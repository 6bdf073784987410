//go:build !race

package core

import (
	"context"
	"testing"
)

// Allocation-regression gate on the dominance-graph edge-LP loop: the
// pooled per-worker solvers and per-cell problems keep the build at a
// handful of allocations per CELL (currently ~70, dominated by the
// witness directions and per-cell problem setup), where the pre-pooling
// code paid hundreds per PAIR (~840 per cell, ~219k per build on this
// instance). The ceiling is set with headroom above the per-cell cost
// but far below any per-pair regression, which would blow past it by an
// order of magnitude. Excluded under the race detector, whose
// instrumentation inflates allocation counts.
func TestEdgeLPAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate builds a ξ≈260 instance")
	}
	inst := gaussianInstance(t, 5000, 5, 7)
	ipdg := inst.BuildIPDG(0, 1)
	inst.Workers = 1
	avg := testing.AllocsPerRun(3, func() {
		if _, err := inst.BuildDominanceGraph(ipdg); err != nil {
			t.Fatal(err)
		}
	})
	xi := inst.Xi()
	ceiling := float64(120*xi + 2000)
	if avg > ceiling {
		t.Fatalf("DG build allocates %.0f objects (ξ=%d, %.1f/cell), ceiling %.0f — the allocation diet regressed",
			avg, xi, avg/float64(xi), ceiling)
	}
}

// Allocation-regression gate on the exact loss oracle: one gauge
// Problem per worker per call and a warm-started solver across owners
// keep a Loss call at a handful of allocations plus one key per
// point of Q (226 on this instance: ξ 261, |Q| 183). Only the 78 owners
// outside Q solve an LP, so the ceiling is per point of Q, not per
// owner: rebuilding the gauge problem per owner reads 1,318 here, and
// the per-owner dual LPs behind a Clarkson scan of Q that the gauge
// oracle replaced read 23,075.
func TestLossOracleAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate builds a ξ≈260 instance")
	}
	inst := gaussianInstance(t, 5000, 5, 7)
	inst.Workers = 1
	q, _, err := inst.SCMC(0.05, SCMCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(3, func() {
		if _, err := inst.LossCtx(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	})
	xi := inst.Xi()
	ceiling := float64(xi + 2*len(q) + 100)
	if avg > ceiling {
		t.Fatalf("Loss allocates %.0f objects (ξ=%d, |Q|=%d), ceiling %.0f — the oracle rebuilds per owner again",
			avg, xi, len(q), ceiling)
	}
}
