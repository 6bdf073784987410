package stream

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mincore/internal/geom"
	"mincore/internal/obs"
)

// reference is the floor-free summary: every point scans every
// direction. It counts the slot updates and the points that made one,
// which Feed must reproduce in mincore_stream_champion_updates_total and
// Version.
type reference struct {
	best    []geom.Vector
	bestV   []float64
	updates uint64
	changed uint64
}

func (r *reference) feed(dirs []geom.Vector, p geom.Vector) {
	if r.best == nil {
		r.best = make([]geom.Vector, len(dirs))
		r.bestV = make([]float64, len(dirs))
	}
	n := 0
	for k, u := range dirs {
		if v := geom.Dot(p, u); r.best[k] == nil || v > r.bestV[k] {
			r.best[k], r.bestV[k] = p, v
			n++
		}
	}
	r.updates += uint64(n)
	if n > 0 {
		r.changed++
	}
}

// checkBrute compares every slot of s with geom.MaxDot over the whole
// stream so far, bit for bit in both the value and the champion.
func checkBrute(t *testing.T, label string, s *Summary, stream []geom.Vector) {
	t.Helper()
	for k, u := range s.dirs {
		i, v := geom.MaxDot(stream, u)
		if s.best[k] == nil {
			t.Fatalf("%s: slot %d empty, brute force holds %v", label, k, stream[i])
		}
		if math.Float64bits(s.bestV[k]) != math.Float64bits(v) ||
			!bytes.Equal(geom.AppendKey(nil, s.best[k]), geom.AppendKey(nil, stream[i])) {
			t.Fatalf("%s: slot %d holds %v (value %v), brute force %v (value %v)",
				label, k, s.best[k], s.bestV[k], stream[i], v)
		}
	}
}

// floorStreams returns the streams of TestFeedFloorMatchesBrute in d:
// NORMAL clouds at every scale, a cloud in the half-space x₀ ≥ 5 (a
// negative floor), all duplicates, the zero vector, and unit-sphere
// points that include the net's own directions (⟨u,u⟩ sits on the
// bound).
func floorStreams(d int, dirs []geom.Vector) map[string][]geom.Vector {
	out := map[string][]geom.Vector{}
	for _, scale := range []float64{1, 1e-160, 1e-200, 1e-310, 1e-318, 1e300} {
		n := 2000
		if scale < 1e-300 {
			n = 200 // subnormal arithmetic runs about 100× slower
		}
		pts := gauss(n, d, int64(10+d))
		for _, p := range pts {
			for j := range p {
				p[j] *= scale
			}
		}
		out[fmt.Sprintf("normal×%g", scale)] = pts
	}
	half := gauss(1500, d, int64(20+d))
	for _, p := range half {
		p[0] = 5 + math.Abs(p[0])
	}
	out["half-space"] = half
	dup := make([]geom.Vector, 200)
	for i := range dup {
		dup[i] = geom.Vector(make([]float64, d))
		for j := range dup[i] {
			dup[i][j] = 0.5 + float64(j)
		}
	}
	out["duplicates"] = dup
	zero := make([]geom.Vector, 50)
	for i := range zero {
		zero[i] = geom.NewVector(d)
	}
	out["zero"] = zero
	var sph []geom.Vector
	for _, p := range gauss(1500, d, int64(30+d)) {
		sph = append(sph, p.MustNormalize())
	}
	for _, u := range dirs {
		sph = append(sph, u.Clone(), u.Scale(-1))
	}
	rand.New(rand.NewSource(int64(d))).Shuffle(len(sph), func(i, j int) { sph[i], sph[j] = sph[j], sph[i] })
	out["sphere"] = sph
	return out
}

// TestFeedFloorMatchesBrute checks that the champion floor never changes
// what Feed keeps: over streams at scales from 1e-310 to 1e300, with a
// negative floor, with duplicates, zeros and ties on the norm bound, in
// d 2–6, every slot matches geom.MaxDot bit for bit in value and
// champion, and the update counter and Version match a floor-free
// reference. A summary built by Merge or FromState midway and fed the
// rest must match too.
func TestFeedFloorMatchesBrute(t *testing.T) {
	if !obs.On() {
		obs.Enable()
		defer obs.Disable()
	}
	for d := 2; d <= 6; d++ {
		m := 12 * d * d
		for name, pts := range floorStreams(d, NewSummary(m, d, 3).dirs) {
			label := fmt.Sprintf("d%d/%s", d, name)

			s := NewSummary(m, d, 3)
			var ref reference
			before := mChampionUpdates.Value()
			for i, p := range pts {
				if err := s.Feed(p); err != nil {
					t.Fatalf("%s: feed %d: %v", label, i, err)
				}
				ref.feed(s.dirs, p)
			}
			checkBrute(t, label, s, pts)
			if got := mChampionUpdates.Value() - before; got != ref.updates {
				t.Fatalf("%s: %d champion updates counted, reference %d", label, got, ref.updates)
			}
			if s.Version() != ref.changed {
				t.Fatalf("%s: version %d, reference %d points changed a slot", label, s.Version(), ref.changed)
			}

			// Merge: a summary of the first third absorbs one of the
			// second, then keeps feeding the last third.
			a, b := NewSummary(m, d, 3), NewSummary(m, d, 3)
			third := len(pts) / 3
			a.AddAll(pts[:third])
			b.AddAll(pts[third : 2*third])
			if err := a.Merge(b); err != nil {
				t.Fatal(err)
			}
			a.AddAll(pts[2*third:])
			checkBrute(t, label+"/merge", a, pts)

			// FromState: restore midway and keep feeding.
			c := NewSummary(m, d, 3)
			c.AddAll(pts[:third])
			r, err := FromState(c.State())
			if err != nil {
				t.Fatal(err)
			}
			r.AddAll(pts[third:])
			checkBrute(t, label+"/from-state", r, pts)
		}
	}
}

// TestVersionTracksChampionChanges checks the version contract the serve
// cache keys on: points below every champion and a merge that improves
// nothing leave it alone, and a point or a merge that changes a slot
// advances it.
func TestVersionTracksChampionChanges(t *testing.T) {
	s := NewSummary(64, 3, 1)
	pts := gauss(500, 3, 2)
	s.AddAll(pts)
	v := s.Version()
	if v == 0 {
		t.Fatal("feeding a stream left the version at 0")
	}
	for _, p := range pts[:100] {
		s.Add(p.Scale(0.5)) // interior
		s.Add(p)            // already seen
	}
	if s.Version() != v {
		t.Fatalf("interior and repeated points moved the version from %d to %d", v, s.Version())
	}
	same := NewSummary(64, 3, 1)
	same.AddAll(pts[:200])
	if err := s.Merge(same); err != nil {
		t.Fatal(err)
	}
	if s.Version() != v {
		t.Fatalf("a merge that improves nothing moved the version from %d to %d", v, s.Version())
	}
	s.Add(geom.Vector{100, 0, 0})
	if s.Version() != v+1 {
		t.Fatalf("a new champion moved the version from %d to %d, want %d", v, s.Version(), v+1)
	}
	far := NewSummary(64, 3, 1)
	far.Add(geom.Vector{0, 100, 0})
	if err := s.Merge(far); err != nil {
		t.Fatal(err)
	}
	if s.Version() != v+2 {
		t.Fatalf("a merge that changes a slot moved the version from %d to %d, want %d", v, s.Version(), v+2)
	}
}
