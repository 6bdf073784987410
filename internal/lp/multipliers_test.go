package lp

import (
	"math"
	"math/rand"
	"testing"
)

// ownerDual builds the per-owner loss LP the core package's exact
// oracle solved before it moved to the gauge LP — min Σ_q y_q + z s.t.
// Σ_q y_q·q + z·t = 0, Σ_q y_q = 1, y ≥ 0, z free — whose d+1
// multipliers are the primal optimum (u, x) of max x s.t.
// ⟨q,u⟩ + x ≤ 1 ∀q, ⟨t,u⟩ = 1: an equality-form LP with a free column,
// the shape the multiplier readout must handle.
func ownerDual(qs [][]float64, t []float64) *Problem {
	d, nq := len(t), len(qs)
	p := NewProblem(nq + 1)
	obj := make([]float64, nq+1)
	for j := range obj {
		obj[j] = 1
	}
	for j := 0; j < nq; j++ {
		p.SetNonNegative(j)
	}
	p.SetObjective(obj, false)
	row := make([]float64, nq+1)
	for i := 0; i < d; i++ {
		for j, q := range qs {
			row[j] = q[i]
		}
		row[nq] = t[i]
		p.AddEQ(row, 0)
	}
	for j := 0; j < nq; j++ {
		row[j] = 1
	}
	row[nq] = 0
	p.AddEQ(row, 1)
	return p
}

// ownerPrimal is the same LP stated directly over free (u, x): the test
// reference the multipliers are checked against.
func ownerPrimal(qs [][]float64, t []float64) *Problem {
	d := len(t)
	p := NewProblem(d + 1)
	obj := make([]float64, d+1)
	obj[d] = 1
	p.SetObjective(obj, true)
	row := make([]float64, d+1)
	for _, q := range qs {
		copy(row, q)
		row[d] = 1
		p.AddLE(row, 1)
	}
	copy(row, t)
	row[d] = 0
	p.AddEQ(row, 1)
	return p
}

func randPoints(rng *rand.Rand, n, d int, scale float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
		for j := range out[i] {
			out[i][j] = scale * rng.NormFloat64()
		}
	}
	return out
}

// On random owner LPs the multipliers of the dual's d+1 rows are the
// primal optimum: ⟨t,u⟩ = 1, x = Value, primal feasibility, and the same
// (u, x) the primal solved directly returns.
func TestMultipliersMatchOwnerPrimal(t *testing.T) {
	optimal := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(5)
		qs := randPoints(rng, 2*d+rng.Intn(20), d, 1)
		owner := randPoints(rng, 1, d, 2)[0]
		var s Solver
		s.ValueOnly = true
		sol := s.Solve(ownerDual(qs, owner))
		if sol.Status != Optimal {
			if s.Multipliers(nil) != nil {
				t.Fatalf("seed %d: multipliers after a %v solve", seed, sol.Status)
			}
			continue
		}
		optimal++
		pi := s.Multipliers(nil)
		if len(pi) != d+1 {
			t.Fatalf("seed %d: %d multipliers, want %d", seed, len(pi), d+1)
		}
		u, x := pi[:d], pi[d]
		var tu float64
		for i := range u {
			tu += owner[i] * u[i]
		}
		if math.Abs(tu-1) > 1e-9 {
			t.Fatalf("seed %d: ⟨t,u⟩ = %v, want 1", seed, tu)
		}
		if math.Abs(x-sol.Value) > 1e-9 {
			t.Fatalf("seed %d: x = %v, Value = %v", seed, x, sol.Value)
		}
		for j, q := range qs {
			var qu float64
			for i := range u {
				qu += q[i] * u[i]
			}
			if qu+x > 1+1e-9 {
				t.Fatalf("seed %d: primal row %d violated: %v", seed, j, qu+x)
			}
		}
		ref := ownerPrimal(qs, owner).Solve()
		if ref.Status != Optimal {
			t.Fatalf("seed %d: direct primal %v, dual optimal", seed, ref.Status)
		}
		if math.Abs(ref.Value-sol.Value) > 1e-9 {
			t.Fatalf("seed %d: primal value %v, dual %v", seed, ref.Value, sol.Value)
		}
		for i, v := range pi {
			if math.Abs(v-ref.X[i]) > 1e-7*math.Max(1, math.Abs(v)) {
				t.Fatalf("seed %d: multipliers %v, direct primal %v", seed, pi, ref.X)
			}
		}
	}
	if optimal < 30 {
		t.Fatalf("only %d optimal owner LPs; test is too thin", optimal)
	}
}

// Warm-started, cold and ValueOnly solves that end at the same basis give
// bitwise-equal multipliers, in the caller's orientation: for these
// maximizations bᵀπ equals Value and Aᵀπ ≥ c on the nonnegative columns,
// with negative right-hand sides (sign-flipped tableau rows) included.
func TestMultipliersWarmMatchColdBitwise(t *testing.T) {
	warmed := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(3)
		nr := d + 1 + rng.Intn(4)
		warmP, setWarm := eq2Style(rand.New(rand.NewSource(seed)), d, nr)
		coldP, setCold := eq2Style(rand.New(rand.NewSource(seed)), d, nr)
		warm := &Solver{}
		cold := &Solver{NoWarm: true, ValueOnly: true}
		for trial := 0; trial < 30; trial++ {
			rhs := make([]float64, d)
			for dim := range rhs {
				rhs[dim] = 0.25 * rng.NormFloat64()
			}
			setWarm(rhs)
			setCold(rhs)
			before := warm.warmOK
			ws := warm.Solve(warmP)
			cs := cold.Solve(coldP)
			if ws.Status != cs.Status {
				t.Fatalf("seed %d trial %d: warm %v, cold %v", seed, trial, ws.Status, cs.Status)
			}
			wpi, cpi := warm.Multipliers(nil), cold.Multipliers(nil)
			if ws.Status != Optimal {
				if wpi != nil || cpi != nil {
					t.Fatalf("seed %d trial %d: multipliers after a %v solve", seed, trial, ws.Status)
				}
				continue
			}
			if before {
				warmed++
			}
			if !bitsEqual(wpi, cpi) {
				t.Fatalf("seed %d trial %d: warm π %v != cold π %v", seed, trial, wpi, cpi)
			}
			var bpi float64
			for r, con := range warmP.constraints {
				bpi += con.rhs * wpi[r]
			}
			if math.Abs(bpi-ws.Value) > 1e-9 {
				t.Fatalf("seed %d trial %d: bᵀπ = %v, Value = %v", seed, trial, bpi, ws.Value)
			}
			for j := 0; j < warmP.numVars; j++ {
				var api float64
				for r, con := range warmP.constraints {
					api += con.coeffs[j] * wpi[r]
				}
				if api < warmP.objective[j]-1e-9 {
					t.Fatalf("seed %d trial %d: dual row %d infeasible: %v < %v", seed, trial, j, api, warmP.objective[j])
				}
			}
		}
	}
	if warmed == 0 {
		t.Fatal("warm path never engaged; test is vacuous")
	}
}
