package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mincore/internal/data"
	"mincore/internal/geom"
	"mincore/internal/lp"
)

// refOwnerLoss is the reference for one owner of the exact loss oracle:
// the per-owner LP the oracle solved before the gauge reformulation,
// max x s.t. ⟨q,u⟩ + x ≤ 1 ∀q ∈ Q, ⟨t,u⟩ = 1, through its dual
//
//	min Σ_q y_q + z   s.t.  Σ_q y_q·q + z·t = 0,  Σ_q y_q = 1,
//	                        y ≥ 0, z free,
//
// built fresh and solved cold over every point of Q (no hull scan). It
// returns the LP optimum, or 1 for an infeasible dual (an unbounded
// primal: Q leaves a direction cone around t uncovered).
func refOwnerLoss(t geom.Vector, qx []geom.Vector, d int) (float64, error) {
	nq := len(qx)
	prob := lp.NewProblem(nq + 1) // vars: y_q ≥ 0, z free
	for j := 0; j < nq; j++ {
		prob.SetNonNegative(j)
	}
	obj := make([]float64, nq+1)
	for j := range obj {
		obj[j] = 1
	}
	prob.SetObjective(obj, false)
	row := make([]float64, nq+1)
	for i := 0; i < d; i++ {
		for j, qp := range qx {
			row[j] = qp[i]
		}
		row[nq] = t[i]
		prob.AddEQ(row, 0)
	}
	for j := 0; j < nq; j++ {
		row[j] = 1
	}
	row[nq] = 0
	prob.AddEQ(row, 1)
	sol := prob.Solve()
	switch sol.Status {
	case lp.Optimal:
		return sol.Value, nil
	case lp.Infeasible:
		return 1, nil
	default:
		return 0, fmt.Errorf("reference owner LP: status %v", sol.Status)
	}
}

// gaugeRefQSets returns the subsets the oracle is checked on: at each ε
// the smaller of DSMC with refinement and SCMC (the public Auto's pick
// in d = 3; in d ≥ 4 the public Auto builds SCMC alone) and, in 2D,
// OptMC's set, then a seeded half of X, a seeded mix of extreme and
// interior points, a one-sided cap that leaves some owners a whole
// uncovered cone, X itself, and the empty set.
func gaugeRefQSets(t *testing.T, inst *Instance) []struct {
	name string
	q    []int
} {
	t.Helper()
	type qset = struct {
		name string
		q    []int
	}
	var sets []qset
	dg, err := inst.BuildDominanceGraph(inst.BuildIPDG(0, 14))
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.20, 0.10, 0.05, 0.02} {
		qd, err := inst.DSMCRefined(dg, eps, 8)
		if err != nil {
			t.Fatal(err)
		}
		qs, _, err := inst.SCMC(eps, SCMCOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		q := qd
		if len(qs) < len(qd) {
			q = qs
		}
		if l := inst.Loss(q); l > eps+1e-9 {
			t.Fatalf("auto/%.2f: loss %v exceeds ε", eps, l)
		}
		sets = append(sets, qset{fmt.Sprintf("auto/%.2f", eps), q})
		if inst.D == 2 {
			qo, err := inst.OptMC(eps)
			if err != nil {
				t.Fatal(err)
			}
			sets = append(sets, qset{fmt.Sprintf("optmc/%.2f", eps), qo})
		}
	}
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(inst.Xi())
	half := make([]int, inst.Xi()/2)
	for i := range half {
		half[i] = inst.X[perm[i]]
	}
	sets = append(sets, qset{"half-of-X", half})

	extreme := make(map[int]bool, inst.Xi())
	for _, x := range inst.X {
		extreme[x] = true
	}
	var interior []int
	for i := range inst.Pts {
		if !extreme[i] {
			interior = append(interior, i)
		}
	}
	var mixed []int
	for _, k := range perm[:inst.Xi()/4] {
		mixed = append(mixed, inst.X[k])
	}
	for _, k := range rng.Perm(len(interior))[:inst.Xi()/4] {
		mixed = append(mixed, interior[k])
	}
	rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
	sets = append(sets, qset{"mixed-interior", mixed})

	var capped []int
	for k, p := range inst.ExtPts {
		if p[0] > 0.3 {
			capped = append(capped, inst.X[k])
		}
	}
	sets = append(sets, qset{"cap", capped})
	sets = append(sets, qset{"X", append([]int(nil), inst.X...)})
	sets = append(sets, qset{"empty", nil})
	return sets
}

// circleCloud returns n points evenly spaced on the unit circle and n
// seeded points strictly inside it: a 2D cloud whose every circle point
// is extreme.
func circleCloud(n int, seed int64) []geom.Vector {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, 0, 2*n)
	for i := 0; i < n; i++ {
		th := 2 * math.Pi * float64(i) / float64(n)
		pts = append(pts, geom.Vector{math.Cos(th), math.Sin(th)})
	}
	for i := 0; i < n; i++ {
		r, th := 0.9*math.Sqrt(rng.Float64()), 2*math.Pi*rng.Float64()
		pts = append(pts, geom.Vector{r * math.Cos(th), r * math.Sin(th)})
	}
	return pts
}

// TestGaugeOracleMatchesReference is the differential test of the exact
// loss oracle against refOwnerLoss, owner by owner: every clamped
// per-owner loss within 1e-12 of the reference, loss exactly 1 exactly
// when the reference reads ≥ 1, the maximum above a dense sampled lower
// bound, and the per-owner values bitwise identical across worker counts
// and with LP warm-starting on or off. In 2D the loss must also be
// within 1e-12 of the critical-direction sweep lossExact2D, on clouds
// with a small ξ and on one with ξ = 300.
func TestGaugeOracleMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("builds eleven instances and their Auto coresets")
	}
	ctx := context.Background()
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	type input struct {
		name string
		pts  []geom.Vector
	}
	var inputs []input
	for d := 2; d <= 6; d++ {
		inputs = append(inputs,
			input{fmt.Sprintf("normal-d%d", d), data.Normal(1000, d, 1).Points},
			input{fmt.Sprintf("uniform-d%d", d), data.Uniform(1000, d, 1).Points})
	}
	inputs = append(inputs, input{"circle-d2", circleCloud(300, 1)})
	for _, in := range inputs {
		inst, err := NewInstance(in.pts)
		if err != nil {
			t.Fatal(err)
		}
		d := inst.D
		infeasible := 0
		for _, set := range gaugeRefQSets(t, inst) {
			label := in.name + "/" + set.name
			qx := make([]geom.Vector, len(set.q))
			for i, id := range set.q {
				qx[i] = inst.Pts[id]
			}
			ref := make([]float64, inst.Xi())
			for k, owner := range inst.ExtPts {
				if ref[k], err = refOwnerLoss(owner, qx, d); err != nil {
					t.Fatalf("%s owner %d: %v", label, k, err)
				}
			}
			var base []float64
			var baseCuts []geom.Vector
			for _, workers := range []int{1, 3} {
				for _, cold := range []bool{false, true} {
					inst.Workers, inst.DisableLPWarmStart = workers, cold
					vals, cuts, err := inst.ownerLPsCtx(ctx, set.q, 0, true)
					if err != nil {
						t.Fatalf("%s workers=%d cold=%v: %v", label, workers, cold, err)
					}
					if base != nil {
						for k := range vals {
							if math.Float64bits(vals[k]) != math.Float64bits(base[k]) || !slices.EqualFunc(cuts[k], baseCuts[k], sameBits) {
								t.Fatalf("%s workers=%d cold=%v owner %d: %x cut %v vs %x cut %v", label, workers, cold, k,
									math.Float64bits(vals[k]), cuts[k], math.Float64bits(base[k]), baseCuts[k])
							}
						}
						continue
					}
					base, baseCuts = vals, cuts
					for k, v := range vals {
						if (v == 1) != (ref[k] >= 1) {
							t.Fatalf("%s owner %d: oracle %v, reference %v", label, k, v, ref[k])
						}
						if v == 1 {
							infeasible++
						}
						if diff := math.Abs(clampLoss(v) - clampLoss(ref[k])); diff > 1e-12 {
							t.Fatalf("%s owner %d: oracle %v, reference %v (|Δ| %.3g)", label, k, v, ref[k], diff)
						}
						// A cut must show at least the owner's loss.
						if u := cuts[k]; u != nil {
							wq := math.Inf(-1)
							for _, qp := range qx {
								wq = math.Max(wq, geom.Dot(qp, u))
							}
							if l := clampLoss(1 - wq/inst.Omega(u)); l < clampLoss(v)-1e-12 {
								t.Fatalf("%s owner %d: cut %v shows loss %v below the owner's %v", label, k, u, l, v)
							}
						}
					}
				}
			}
			inst.Workers, inst.DisableLPWarmStart = 0, false
			exact := inst.Loss(set.q)
			if sampled := inst.MaxLossSampled(set.q, 20000, int64(d)); exact < sampled-1e-12 {
				t.Fatalf("%s: exact loss %v below the sampled lower bound %v", label, exact, sampled)
			}
			if d == 2 {
				if sweep := inst.lossExact2D(set.q); math.Abs(exact-sweep) > 1e-12 {
					t.Fatalf("%s: exact loss %v, 2D reference sweep %v", label, exact, sweep)
				}
			}
		}
		if infeasible <= inst.Xi() {
			// The empty set alone makes ξ owners infeasible; the cap
			// must add more, or its check is vacuous.
			t.Fatalf("%s: only %d loss-1 owners over all sets", in.name, infeasible)
		}
	}
}

// The gauge Σλ is 0 only at the origin, which a fat instance never has
// as an extreme point: an Optimal solve there is a misread, reported as
// an error so that 1 − 1/g never reaches a loss as −Inf.
func TestGaugeSolveRejectsZeroGauge(t *testing.T) {
	inst := fatRandom(t, 200, 3, 73)
	g := gaugeWorker{prob: gaugeProblem(inst.ExtPts, inst.D)}
	if sol, err := g.solve(geom.NewVector(inst.D)); !errors.Is(err, ErrNumericalInstability) {
		t.Fatalf("zero owner: status %v value %v, err %v; want ErrNumericalInstability", sol.Status, sol.Value, err)
	}
	if sol, err := g.solve(inst.ExtPts[0]); err != nil || sol.Status != lp.Optimal || math.Abs(sol.Value-1) > 1e-12 {
		t.Fatalf("owner in Q: status %v value %v, err %v; want gauge 1", sol.Status, sol.Value, err)
	}
}
