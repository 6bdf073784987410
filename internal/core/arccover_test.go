package core

import (
	"math"
	"math/rand"
	"testing"

	"mincore/internal/geom"
)

func TestCellArcMatchesSweep(t *testing.T) {
	// The closed-form contract: at both endpoints of every candidate's
	// arc the cell test is tight, |⟨p,u⟩ − (1−ε)ω(P,u)| ≤ 1e-12, and a
	// membership sweep (720 directions plus probes 1e-6 rad either side
	// of each endpoint) disagrees with the arc nowhere farther than
	// 1e-9 rad from an endpoint.
	const resTol, angTol, probe = 1e-12, 1e-9, 1e-6
	for _, cloud := range []string{"normal", "uniform"} {
		for _, n := range []int{1000, 10000} {
			inst := dataCloud2D(t, cloud, n)
			for _, eps := range []float64{0.001, 0.02, 0.1, 0.2, 0.4} {
				cand, seeds := inst.optMCCandidates(eps)
				stride := max(1, len(cand)/25)
				for j, id := range cand {
					a := inst.cellArc(id, seeds[j], eps)
					p := inst.Pts[id]
					for _, th := range []float64{a.start, a.end} {
						u := geom.UnitFromTheta(th)
						if r := math.Abs(geom.Dot(p, u) - (1-eps)*inst.Omega(u)); r > resTol {
							t.Fatalf("%s-n%d ε=%v candidate %d: residual %g at endpoint θ=%v", cloud, n, eps, id, r, th)
						}
					}
					if j%stride != 0 {
						continue
					}
					probes := []float64{a.start - probe, a.start + probe, a.end - probe, a.end + probe}
					for k := 0; k < 720; k++ {
						probes = append(probes, 2*math.Pi*float64(k)/720)
					}
					for _, th := range probes {
						u := geom.UnitFromTheta(th)
						inCell := geom.Dot(p, u) >= (1-eps)*inst.Omega(u)
						inArc := geom.InCCWArc(th, a.start, a.end)
						if inCell != inArc && angDistTo(th, a.start) > angTol && angDistTo(th, a.end) > angTol {
							t.Fatalf("%s-n%d ε=%v candidate %d: membership mismatch at θ=%v (cell=%v, arc=[%v,%v])",
								cloud, n, eps, id, th, inCell, a.start, a.end)
						}
					}
				}
			}
		}
	}
}

func angDistTo(a, b float64) float64 {
	d := math.Abs(geom.NormalizeAngle(a) - geom.NormalizeAngle(b))
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

func TestMinCircularArcCoverUnits(t *testing.T) {
	// Three thirds of the circle with slight overlap: optimal 3.
	third := 2 * math.Pi / 3
	arcs := []arc{
		{start: 0, end: third + 0.1, id: 0},
		{start: third, end: 2*third + 0.1, id: 1},
		{start: 2 * third, end: 2*math.Pi + 0.1, id: 2},
		{start: 0.2, end: 0.4, id: 3}, // useless small arc
	}
	sol := minCircularArcCover(arcs)
	if len(sol) != 3 {
		t.Fatalf("cover = %v want 3 arcs", sol)
	}
	// Gap → infeasible.
	gap := []arc{
		{start: 0, end: 1, id: 0},
		{start: 2, end: 3, id: 1},
	}
	if sol := minCircularArcCover(gap); sol != nil {
		t.Fatalf("gapped arcs covered?! %v", sol)
	}
	if sol := minCircularArcCover(nil); sol != nil {
		t.Fatal("empty arc set covered")
	}
}

func TestMinCircularArcCoverRandomAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 150; trial++ {
		m := 3 + rng.Intn(9)
		arcs := make([]arc, m)
		for i := range arcs {
			s := rng.Float64() * 2 * math.Pi
			arcs[i] = arc{start: s, end: s + 0.2 + rng.Float64()*2.8, id: i}
		}
		sol := minCircularArcCover(arcs)
		want := bruteArcCover(arcs)
		switch {
		case want == 0 && sol != nil:
			t.Fatalf("trial %d: brute says infeasible, greedy found %v", trial, sol)
		case want > 0 && sol == nil:
			t.Fatalf("trial %d: brute found %d, greedy failed", trial, want)
		case want > 0 && len(sol) != want:
			t.Fatalf("trial %d: greedy %d vs brute %d", trial, len(sol), want)
		}
	}
}

// bruteArcCover finds the optimal circular cover size by subset
// enumeration (0 = infeasible).
func bruteArcCover(arcs []arc) int {
	m := len(arcs)
	best := 0
	for mask := 1; mask < 1<<m; mask++ {
		cnt := 0
		var chosen []arc
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				cnt++
				chosen = append(chosen, arcs[i])
			}
		}
		if best > 0 && cnt >= best {
			continue
		}
		if coversCircle(chosen) {
			best = cnt
		}
	}
	return best
}

func coversCircle(arcs []arc) bool {
	// Probe densely plus endpoints.
	for k := 0; k < 2000; k++ {
		th := 2 * math.Pi * float64(k) / 2000
		ok := false
		for _, a := range arcs {
			if geom.InCCWArc(th, geom.NormalizeAngle(a.start), geom.NormalizeAngle(a.end)) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
