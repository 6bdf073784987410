package core

import "mincore/internal/obs"

// Solver metrics for the core algorithms. Dominance-graph counters are
// recorded once per build from the already-merged per-worker stats, so
// the ξ² pair loop itself carries no instrumentation; loss-oracle and
// set-cover counters sit on per-call (not per-point) boundaries. All
// updates are behind the obs.On() gate.
var (
	mDGBuilds = obs.Default.Counter("mincore_dg_builds_total",
		"Dominance-graph builds completed.", nil)
	mDGCells = obs.Default.Counter("mincore_dg_cells_total",
		"Dominance-graph cells (extreme points xi) processed across builds.", nil)
	mDGLPs = obs.Default.Counter("mincore_dg_edge_lps_total",
		"Eq. 2 edge-weight LPs solved during dominance-graph builds.", nil)
	mDGEdges = obs.Default.Counter("mincore_dg_edges_total",
		"Dominance-graph edges retained (weight < 1).", nil)
	mSCMCRounds = obs.Default.Counter("mincore_scmc_rounds_total",
		"SCMC cut rounds executed (cover, exact-oracle check, cuts).", nil)

	mLossExact = obs.Default.Counter("mincore_loss_oracle_calls_total",
		"Loss-oracle evaluations by evaluator.", obs.Labels{"evaluator": "exactlp"})
	mLossSampled = obs.Default.Counter("mincore_loss_oracle_calls_total",
		"Loss-oracle evaluations by evaluator.", obs.Labels{"evaluator": "sampled"})
)
