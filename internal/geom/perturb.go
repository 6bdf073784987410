package geom

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
)

// The paper assumes P is in general linear position (Section 2). Real and
// synthetic datasets contain duplicates and degeneracies; Perturb applies a
// deterministic symbolic-style perturbation so downstream code (hulls,
// Voronoi adjacency) can assume general position without special-casing.

// Perturb returns a copy of pts where each coordinate is jittered by a
// uniform offset in [−scale, scale], using the given seed. The input is
// not modified. scale should be far below the data resolution; callers
// typically pass scale ≈ 1e-9 for data normalized to [−1,1]^d.
func Perturb(pts []Vector, scale float64, seed int64) []Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Vector, len(pts))
	for i, p := range pts {
		q := p.Clone()
		for j := range q {
			q[j] += scale * (2*rng.Float64() - 1)
		}
		out[i] = q
	}
	return out
}

// Dedup returns pts with exact duplicates removed, preserving first
// occurrence order. Duplicate points never change maxima and inflate n for
// no benefit; all dataset loaders dedup before running algorithms.
func Dedup(pts []Vector) []Vector {
	seen := make(map[string]struct{}, len(pts))
	out := make([]Vector, 0, len(pts))
	buf := make([]byte, 0, 64)
	for _, p := range pts {
		buf = AppendKey(buf[:0], p)
		k := string(buf)
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, p)
	}
	return out
}

// AppendKey appends v's exact coordinate key to b and returns the
// extended buffer: each coordinate's IEEE-754 bit pattern, little-endian,
// in order. Two vectors of one dimension have equal keys exactly when
// they are bitwise equal (−0 and 0 differ, which is fine for identity
// lookups and dedup). string(AppendKey(nil, v)) is a map key for v.
func AppendKey(b []byte, v Vector) []byte {
	b = slices.Grow(b, 8*len(v))
	for _, c := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
	}
	return b
}
