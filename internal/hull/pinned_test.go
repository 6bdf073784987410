package hull

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"mincore/internal/data"
	"mincore/internal/geom"
	"mincore/internal/sphere"
)

// extremePins records ξ and the FNV-64a hash of the exact ExtremePoints
// index sequence (order included) for every pinnedInputs entry. The
// table was written by a run of the Clarkson scan before the interior
// screen existed, so any change to which points are reported, or in
// which order, fails TestExtremePointsPinned.
var extremePins = map[string]struct {
	xi   int
	hash uint64
}{
	"normal-d3-n2000":   {39, 0xc582662ec3bb4f6a},
	"uniform-d3-n2000":  {88, 0x30deb7d1a41a7568},
	"normal-d4-n2000":   {100, 0xd48bd4d15755ff8d},
	"uniform-d4-n2000":  {245, 0xde90f6d28935ddf6},
	"normal-d5-n2000":   {219, 0xec94a8ad2423c413},
	"uniform-d5-n2000":  {453, 0x8670c99e575877d6},
	"normal-d6-n2000":   {345, 0xac054d61f7ea7f21},
	"uniform-d6-n2000":  {736, 0xeb15577c287833c0},
	"normal-d3-n20000":  {58, 0xb238e77fa44e22a9},
	"uniform-d3-n20000": {139, 0xb7c3a1479413a094},
	"normal-d4-n20000":  {189, 0x09fee9ce751e99fd},
	"uniform-d4-n20000": {532, 0xa5ac3a11d1df314b},
	"normal-d5-n20000":  {389, 0xbaa5722d3941bd44},
	"uniform-d5-n20000": {1288, 0xf79d10f5622eded3},
	"normal-d6-n20000":  {875, 0x62b0e052e26f6710},
	"uniform-d6-n20000": {2560, 0x9c3ecc62c4f537fb},
	"normal-d3-n50000":  {70, 0x37495be97f7e547b},
	"shell-d4-n400":     {400, 0x77067c4652bfafa9},
	"duplicates-d3":     {4, 0xb2ef41fe5d3f9e40},
	"cube-corners-d4":   {16, 0xee92734a314eab25},
}

// pinnedInput is one named ExtremePoints input of the pinned table.
type pinnedInput struct {
	name string
	pts  []geom.Vector
}

// pinnedInputs builds the pinned table's inputs: NORMAL and UNIFORM
// (internal/data, seed 1) for d ∈ {3,4,5,6} × n ∈ {2000, 20000}, one
// 50,000-point d=3 NORMAL cloud, an all-extreme shell (every point on
// the unit sphere, so the interior screen never certifies and its yield
// stop fires), and the duplicate and cube-corner inputs.
func pinnedInputs() []pinnedInput {
	var ins []pinnedInput
	for _, n := range []int{2000, 20000} {
		for _, d := range []int{3, 4, 5, 6} {
			ins = append(ins,
				pinnedInput{fmt.Sprintf("normal-d%d-n%d", d, n), data.Normal(n, d, 1).Points},
				pinnedInput{fmt.Sprintf("uniform-d%d-n%d", d, n), data.Uniform(n, d, 1).Points})
		}
	}
	return append(ins,
		pinnedInput{"normal-d3-n50000", data.Normal(50000, 3, 1).Points},
		pinnedInput{"shell-d4-n400", sphereShell(400, 4, 11)},
		pinnedInput{"duplicates-d3", duplicatePoints()},
		pinnedInput{"cube-corners-d4", cubeCorners()},
	)
}

// sphereShell returns n random points on the unit sphere in R^d: all of
// them are extreme.
func sphereShell(n, d int, seed int64) []geom.Vector {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		pts[i] = sphere.RandomDirection(rng, d)
	}
	return pts
}

// duplicatePoints is a tetrahedron-like set with one duplicated vertex
// and one interior point (index 5).
func duplicatePoints() []geom.Vector {
	return []geom.Vector{
		{1, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {-1, -1, -1}, {0.1, 0.1, 0.1},
	}
}

// cubeCorners returns the 16 corners of [−1,1]^4 (indices 0–15) followed
// by 200 points strictly inside the cube.
func cubeCorners() []geom.Vector {
	rng := rand.New(rand.NewSource(6))
	var pts []geom.Vector
	for mask := 0; mask < 16; mask++ {
		v := geom.NewVector(4)
		for b := 0; b < 4; b++ {
			if mask&(1<<b) != 0 {
				v[b] = 1
			} else {
				v[b] = -1
			}
		}
		pts = append(pts, v)
	}
	for i := 0; i < 200; i++ {
		v := geom.NewVector(4)
		for b := range v {
			v[b] = rng.Float64()*1.6 - 0.8
		}
		pts = append(pts, v)
	}
	return pts
}

// indexHash is the FNV-64a hash of an index sequence, each index written
// as a little-endian uint64.
func indexHash(x []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, i := range x {
		binary.LittleEndian.PutUint64(b[:], uint64(i))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestExtremePointsPinned is the bitwise differential test of the
// extreme-point scan: the same indices in the same order as the pinned
// run, on every input.
func TestExtremePointsPinned(t *testing.T) {
	for _, in := range pinnedInputs() {
		x := mustExtremePoints(t, in.pts)
		got := indexHash(x)
		pin, ok := extremePins[in.name]
		if !ok {
			t.Errorf("%s: no pin (ξ=%d hash=%#016x)", in.name, len(x), got)
			continue
		}
		if len(x) != pin.xi || got != pin.hash {
			t.Errorf("%s: ξ=%d hash=%#016x, pinned ξ=%d hash=%#016x",
				in.name, len(x), got, pin.xi, pin.hash)
		}
	}
}
