package core

import (
	"context"
	"errors"
	"fmt"
)

// The dual formulation of MC (Section 2): given a size budget r, find a
// subset of at most r points minimizing the loss. As the paper notes, any
// MC algorithm solves the dual by binary search on ε; optimal MC
// algorithms stay optimal at a logarithmic cost. Figures 11–12 use this
// to compare fixed-size coresets across algorithms.

// Solver is any MC algorithm wrapped as ε → coreset.
type Solver func(eps float64) ([]int, error)

// DualSolve finds the smallest ε (within 2^-iters resolution) whose
// coreset has at most r points, returning that coreset and its ε. It
// bisects (0, 1) with iters probes at dyadic ε values, so the ε values
// it probes depend on the solver's answers alone. The solver is assumed
// size-monotone in ε, which all algorithms here are up to greedy noise;
// the best (smallest-ε) feasible solution seen is returned even if
// monotonicity hiccups. A solver error steers the search like an
// over-budget answer, except a cancelled context, which aborts it.
func DualSolve(r int, solve Solver, iters int) ([]int, float64, error) {
	if r < 1 {
		return nil, 0, fmt.Errorf("core: dual size budget must be ≥ 1, got %d", r)
	}
	if iters <= 0 {
		iters = 20
	}
	lo, hi := 0.0, 1.0
	var best []int
	bestEps := 1.0
	found := false
	for k := 0; k < iters; k++ {
		mid := (lo + hi) / 2
		if mid <= 0 || mid >= 1 {
			break
		}
		q, err := solve(mid)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, 0, err
		}
		if err == nil && len(q) <= r {
			if !found || mid < bestEps {
				best, bestEps, found = q, mid, true
			}
			hi = mid
		} else {
			lo = mid
		}
	}
	if !found {
		return nil, 0, fmt.Errorf("core: no ε in (0,1) meets size budget %d: %w", r, ErrInfeasible)
	}
	return best, bestEps, nil
}
