package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mincore/internal/geom"
)

// Property-based tests on the core invariants, via testing/quick over
// randomized subset/instance draws.

// Loss is monotone: adding points to a coreset never increases the loss.
func TestPropertyLossMonotone(t *testing.T) {
	inst := fatRandom2D(t, 120, 101)
	f := func(seed int64, k uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := inst.N()
		size := 1 + int(k)%8
		q := make([]int, size)
		for i := range q {
			q[i] = rng.Intn(n)
		}
		super := append(append([]int(nil), q...), rng.Intn(n))
		return inst.Loss(super) <= inst.Loss(q)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The gauge oracle and the 2D reference sweep agree on arbitrary subsets.
func TestPropertyLossEvaluatorsAgree(t *testing.T) {
	inst := fatRandom2D(t, 80, 103)
	f := func(seed int64, k uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 2 + int(k)%6
		q := make([]int, size)
		for i := range q {
			q[i] = rng.Intn(inst.N())
		}
		a, b := inst.lossExact2D(q), inst.Loss(q)
		return a-b < 1e-6 && b-a < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Every algorithm's output is a subset of P with loss ≤ ε, across random
// fat instances.
func TestPropertyAlgorithmsAlwaysValid(t *testing.T) {
	f := func(seed int64, epsRaw uint8, dRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + int(dRaw)%3 // 2..4
		eps := 0.05 + float64(epsRaw%20)/100
		pts := make([]geom.Vector, 120)
		for i := range pts {
			pts[i] = geom.NewVector(d)
			for j := range pts[i] {
				pts[i][j] = rng.NormFloat64()
			}
		}
		inst, err := NewInstance(pts)
		if err != nil {
			return true // degenerate draw; skip
		}
		check := func(q []int, err error) bool {
			if err != nil {
				return false
			}
			for _, id := range q {
				if id < 0 || id >= inst.N() {
					return false
				}
			}
			return inst.Loss(q) <= eps+1e-6
		}
		if d == 2 {
			if !check(inst.OptMC(eps)) {
				return false
			}
		}
		dg := mustDG(t, inst, inst.BuildIPDG(0, seed))
		if !check(inst.DSMC(dg, eps)) {
			return false
		}
		q, _, err := inst.SCMC(eps, SCMCOptions{Seed: seed})
		return check(q, err)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The extreme set is closed under direction argmax: any direction's
// maximizer is in X.
func TestPropertyExtremeSetComplete(t *testing.T) {
	inst := fatRandom(t, 300, 3, 107)
	xset := make(map[int]bool)
	for _, id := range inst.X {
		xset[id] = true
	}
	f := func(a, b, c float64) bool {
		u := geom.Vector{a, b, c}
		if n := u.Norm(); n == 0 || n > 1e6 {
			return true
		}
		j, _ := geom.MaxDot(inst.Pts, u)
		return xset[j]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Omega is positively homogeneous: ω(P, c·u) = c·ω(P, u) for c > 0.
func TestPropertyOmegaHomogeneous(t *testing.T) {
	inst := fatRandom(t, 200, 3, 109)
	f := func(a, b, c float64, scaleRaw uint8) bool {
		u := geom.Vector{a, b, c}
		if n := u.Norm(); n == 0 || n > 1e6 {
			return true
		}
		scale := 0.1 + float64(scaleRaw)/32
		w1 := inst.Omega(u)
		w2 := inst.Omega(u.Scale(scale))
		diff := w2 - scale*w1
		return diff < 1e-9*(1+scale) && diff > -1e-9*(1+scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
