package lp

import (
	"math"

	"mincore/internal/faultinject"
	"mincore/internal/obs"
)

// Dense two-phase primal simplex over the tableau
//
//	minimize  cᵀy   subject to  Ay = b, y ≥ 0, b ≥ 0
//
// Free variables of the public Problem are split y = y⁺ − y⁻; LE/GE rows
// receive slack/surplus columns; GE/EQ rows receive phase-1 artificials.
// Pivoting uses Dantzig's rule with a switch to Bland's rule after a fixed
// number of iterations, which guarantees termination on degenerate
// problems.
//
// All storage lives on a Solver: the tableau rows share one flat backing
// array and every per-solve scratch slice (phase-1 cost, simplex
// multipliers, reduced costs, the canonical-extraction system) is grown
// once and reused across solves, so a pooled Solver performs O(1)
// allocations per solve instead of rebuilding the tableau. Problem.Solve
// uses a throwaway Solver, preserving its allocate-per-call contract.
//
// Optimal solutions are extracted canonically: the final basis B is
// re-solved as the m×m system B·z = b₀ against a pristine copy of the
// initial (sign-fixed) matrix and right-hand side, by Gaussian
// elimination with partial pivoting. The extracted solution is therefore
// a pure function of (basis, original data) — independent of the pivot
// path that reached the basis — which is what makes warm-started and
// cold solves bitwise identical whenever they terminate at the same
// optimal basis (the generic case under mincore's general-position
// perturbation).

const (
	pivotTol   = 1e-9 // entries below this are treated as zero pivots
	feasTol    = 1e-7 // phase-1 objective below this means feasible
	reducedTol = 1e-9 // reduced costs above −reducedTol are optimal
	blandAfter = 5000 // switch from Dantzig to Bland after this many pivots
	iterFactor = 200  // iteration cap = iterFactor · (m + n) + 10000

	// ratioTieRel scales the ratio-test tie tolerance relative to the
	// incumbent ratio. An absolute 1e-12 slack mis-breaks ties once
	// b[r]/arj grows past ~1 — at 1e6 scale two mathematically tied
	// ratios computed through different roundings differ by ~1e-10, so an
	// absolute comparison sees them as distinct, never engages the
	// smallest-basis-index tie-break, and Dantzig can cycle on degenerate
	// badly-scaled systems until blandAfter rescues it.
	ratioTieRel = 1e-12

	// warmFeasRel scales the feasibility tolerance for a warm-started
	// basis: recomputed basic values below −warmFeasRel·max(1,‖b₀‖∞) make
	// the retained basis primal-infeasible for the new right-hand side
	// and send it to the dual-simplex repair; tiny negatives above it are
	// clamped to zero (degenerate basic variables at their bound).
	warmFeasRel = 1e-9

	// maxDualPivots bounds the dual-simplex feasibility repair. An
	// RHS-only change typically needs 1–3 pivots; a repair that runs long
	// is either degenerate-cycling or walking toward an infeasibility
	// proof, and both are better decided by a cold two-phase solve, whose
	// phase-1 verdict carries the exact tolerance semantics the rest of
	// the system (and the bitwise-determinism contract) is built on.
	maxDualPivots = 64
)

type tableau struct {
	m, n  int         // constraint rows, structural+slack columns (no artificials)
	a     [][]float64 // m row views into aback, each nTotal long
	aback []float64   // flat m×nTotal backing
	b     []float64   // rhs, kept ≥ 0
	c     []float64   // phase-2 cost over nTotal columns (zero on artificials)
	basis []int       // basis[i] = column basic in row i

	nTotal  int // n + number of artificials
	nArt    int
	varMap  [][2]int // varMap[i] = {plusCol, minusCol}; minusCol = -1 for nonneg vars
	numVars int

	rowSign []float64 // +1, or −1 if the row was negated to make rhs ≥ 0
	idCol   []int     // per row, a column that was e_r in the original matrix
	farkas  []float64 // infeasibility certificate in original row order

	inBasis []bool // column membership in the basis, kept in sync with basis

	// Pristine copies of the initial sign-fixed system, untouched by
	// pivoting: a0 is the m×nTotal matrix, b0 the right-hand side. They
	// feed canonical solution extraction and the warm-restart right-hand-
	// side recomputation.
	a0 []float64
	b0 []float64

	pivots int // pivot operations performed, for the obs metrics
}

// Solver is a reusable simplex handle. Beyond pooling every tableau and
// scratch allocation across solves, it warm-starts: when asked to solve
// the same Problem again after only right-hand-side changes
// (Problem.SetConstraintRHS), it reuses the previous optimal basis.
// Because the cost vector and matrix are unchanged, that basis is still
// dual-feasible, so three tiers apply, cheapest first:
//
//  1. the recomputed basic values B⁻¹·b₀ are already nonnegative — the
//     old basis is optimal for the new right-hand side outright, with
//     zero pivots and zero pricing;
//  2. some basic values went negative — a dual-simplex repair pivots
//     the infeasibilities out (typically 1–3 pivots), then an ordinary
//     phase-2 pricing pass confirms optimality under exactly the cold
//     path's termination test;
//  3. the repair exhausts its pivot budget or proves the new system
//     primal-infeasible — fall back to a cold two-phase solve, whose
//     phase-1 verdict is the tolerance-semantics source of truth.
//
// Warm and cold solves return bitwise-identical solutions — see the
// canonical extraction note above — so warm-starting is a pure speedup.
//
// A Solver is not safe for concurrent use; pool one per worker.
// The zero value is ready to use.
type Solver struct {
	// NoWarm disables warm-starting (every solve runs cold two-phase,
	// still reusing buffers). Results are identical either way; the
	// switch exists for determinism tests and benchmarks.
	NoWarm bool
	// SkipFarkas skips the infeasibility-certificate computation on
	// Infeasible solves (Solution.Farkas stays nil). Callers that only
	// branch on Status — the dominance-graph edge loop — avoid the
	// per-infeasible-solve allocation.
	SkipFarkas bool
	// ReuseX aliases Solution.X into solver-owned storage that is
	// overwritten by the next Solve call on this handle. Callers must
	// consume (or copy) X before re-solving. Off by default: X is
	// freshly allocated per solve.
	ReuseX bool
	// ValueOnly skips materializing Solution.X on Optimal solves (X
	// stays nil). Solution.Value is still computed from the canonically
	// extracted basic values, so it matches the full path's Value (the
	// skipped zero-coefficient objective terms are exact no-ops, up to
	// the sign of a zero total). Callers that only read Status/Value —
	// the dominance-graph edge loop, the loss evaluator — drop the
	// per-solve O(numVars) expansion entirely.
	ValueOnly bool

	t tableau // pooled storage, rebuilt or warm-restarted per solve

	// Warm-start bookkeeping: the problem the retained tableau was built
	// from, the structural generation it had then, whether the last solve
	// left a warm-startable basis, and the feasibility tolerance of the
	// current warm right-hand side (set by warmRHS, consumed by the
	// dual-simplex repair).
	p         *Problem
	structGen uint64
	warmOK    bool
	warmTol   float64

	// optimal records whether the last solve ended Optimal with a
	// tableau behind it, the precondition of Multipliers.
	optimal bool

	// Per-solve scratch reused across calls.
	y, rc, c1 []float64 // simplex multipliers, reduced costs, phase-1 cost
	gm, gz    []float64 // canonical-extraction system (m×m) and rhs
	sb        []int     // sorted basis columns for canonical extraction
	yv        []float64 // basic-value expansion over nTotal columns
	xbuf      []float64 // Solution.X backing when ReuseX
}

// NewSolver returns an empty Solver (equivalent to &Solver{}; provided
// for discoverability).
func NewSolver() *Solver { return &Solver{} }

// Solve solves p, warm-starting from the previous solve when possible.
// The returned Solution matches Problem.Solve bitwise on every path
// (see the canonical-extraction note), modulo the SkipFarkas and ReuseX
// opt-ins.
func (s *Solver) Solve(p *Problem) Solution {
	s.optimal = false
	if p.err != nil {
		if obs.On() {
			mSolves.Inc()
			mFailures.Inc()
		}
		return Solution{Status: BadProblem}
	}
	if p.numVars == 0 {
		if obs.On() {
			mSolves.Inc()
		}
		return Solution{Status: Optimal, X: nil, Value: 0}
	}
	t := &s.t
	var st Status
	warm := false
	if !s.NoWarm && s.warmOK && s.p == p && s.structGen == p.structGen {
		if s.warmRHS(p) {
			// The previous optimal basis is feasible for the new rhs, and
			// its reduced costs — a function of (cost, basis, matrix) only,
			// all unchanged — already passed the phase-2 optimality test on
			// the previous solve: optimal outright, no pricing needed.
			warm = true
			st = Optimal
			if obs.On() {
				mWarmSolves.Inc()
			}
		} else if s.dualRestore() {
			// Dual-simplex repair restored feasibility; run the ordinary
			// pricing loop so the basis passes the exact cold-path
			// optimality test (usually zero iterations).
			warm = true
			st, _ = s.runSimplex(t.c, t.n)
			if obs.On() {
				mWarmDualSolves.Inc()
			}
		} else if obs.On() {
			mWarmFallbacks.Inc()
		}
	}
	if !warm {
		s.buildTableau(p)
		s.p = p
		s.structGen = p.structGen
		st = s.solveCold()
	}
	s.optimal = st == Optimal
	s.warmOK = s.optimal && !t.artificialBasic()
	if obs.On() {
		mSolves.Inc()
		mPivots.Add(uint64(t.pivots))
		if st == IterLimit {
			mFailures.Inc()
		}
	}
	switch st {
	case Infeasible:
		return Solution{Status: st, Farkas: t.farkas}
	case Optimal:
		if s.ValueOnly {
			return Solution{Status: Optimal, Value: s.canonicalValue(p)}
		}
		x := s.extractCanonical()
		// Report the objective in the caller's orientation.
		var v float64
		for i, c := range p.objective {
			v += c * x[i]
		}
		return Solution{Status: Optimal, X: x, Value: v}
	default:
		return Solution{Status: st}
	}
}

// Reset drops the warm-start state and problem binding while keeping the
// pooled buffers, so a retained Solver can't warm-start across a Problem
// that was structurally rebuilt at the same address.
func (s *Solver) Reset() {
	s.p = nil
	s.warmOK = false
}

func growF(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

func growI(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// buildTableau (re)initializes s.t from p, reusing every buffer whose
// capacity suffices. It is the cold path's tableau constructor.
func (s *Solver) buildTableau(p *Problem) {
	t := &s.t
	m := len(p.constraints)
	t.m = m
	t.numVars = p.numVars
	t.pivots = 0
	t.farkas = nil

	// Column layout: for each variable, one column (nonneg) or two (free:
	// plus then minus); then one slack/surplus column per LE/GE row; then
	// artificials.
	if cap(t.varMap) >= p.numVars {
		t.varMap = t.varMap[:p.numVars]
	} else {
		t.varMap = make([][2]int, p.numVars)
	}
	col := 0
	for i := 0; i < p.numVars; i++ {
		if p.nonneg[i] {
			t.varMap[i] = [2]int{col, -1}
			col++
		} else {
			t.varMap[i] = [2]int{col, col + 1}
			col += 2
		}
	}
	nStruct := col
	nSlack := 0
	nArt := 0
	t.rowSign = growF(t.rowSign, m)
	for r, con := range p.constraints {
		sense := con.sense
		t.rowSign[r] = 1
		if con.rhs < 0 {
			t.rowSign[r] = -1
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		if sense != EQ {
			nSlack++
		}
		if sense != LE {
			nArt++ // GE (surplus) and EQ rows need a phase-1 artificial
		}
	}
	n := nStruct + nSlack
	nTotal := n + nArt
	t.n = n
	t.nArt = nArt
	t.nTotal = nTotal

	t.aback = growF(t.aback, m*nTotal)
	for i := range t.aback {
		t.aback[i] = 0
	}
	if cap(t.a) >= m {
		t.a = t.a[:m]
	} else {
		t.a = make([][]float64, m)
	}
	t.b = growF(t.b, m)
	t.basis = growI(t.basis, m)
	t.idCol = growI(t.idCol, m)
	if cap(t.inBasis) >= nTotal {
		t.inBasis = t.inBasis[:nTotal]
		for i := range t.inBasis {
			t.inBasis[i] = false
		}
	} else {
		t.inBasis = make([]bool, nTotal)
	}

	slackCol := nStruct
	artCol := n
	for r, con := range p.constraints {
		row := t.aback[r*nTotal : (r+1)*nTotal : (r+1)*nTotal]
		t.a[r] = row
		sg := t.rowSign[r]
		for i, cf := range con.coeffs {
			v := sg * cf
			pc, mc := t.varMap[i][0], t.varMap[i][1]
			row[pc] += v
			if mc >= 0 {
				row[mc] -= v
			}
		}
		t.b[r] = sg * con.rhs
		sense := con.sense
		if sg < 0 {
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		switch sense {
		case LE:
			row[slackCol] = 1
			t.basis[r] = slackCol
			t.idCol[r] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[r] = artCol
			t.idCol[r] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[r] = artCol
			t.idCol[r] = artCol
			artCol++
		}
		t.inBasis[t.basis[r]] = true
	}

	// Pristine copies for canonical extraction and warm restarts.
	t.a0 = growF(t.a0, m*nTotal)
	copy(t.a0, t.aback)
	t.b0 = growF(t.b0, m)
	copy(t.b0, t.b)

	// Phase-2 cost vector: minimize −objective if maximizing.
	t.c = growF(t.c, nTotal)
	for i := range t.c {
		t.c[i] = 0
	}
	sign := 1.0
	if p.maximize {
		sign = -1.0
	}
	for i, cf := range p.objective {
		pc, mc := t.varMap[i][0], t.varMap[i][1]
		t.c[pc] += sign * cf
		if mc >= 0 {
			t.c[mc] -= sign * cf
		}
	}
}

// warmRHS repositions the retained tableau at p's current right-hand
// sides: it recomputes the basic values b = B⁻¹·b₀ (the r-th column of
// B⁻¹ is the current idCol[r] column of the tableau) and installs them,
// clamping degenerate tiny negatives to zero. It returns whether the old
// basis is primal-feasible for the new right-hand side; when it is not,
// the genuinely negative entries are left in place for the dual-simplex
// repair, and s.warmTol carries the feasibility tolerance it should use.
func (s *Solver) warmRHS(p *Problem) bool {
	t := &s.t
	m := t.m
	scale := 1.0
	for r := 0; r < m; r++ {
		nb := t.rowSign[r] * p.constraints[r].rhs
		t.b0[r] = nb
		if a := math.Abs(nb); a > scale {
			scale = a
		}
	}
	gz := growF(s.gz, m)
	s.gz = gz
	for r := 0; r < m; r++ {
		ar := t.a[r]
		var v float64
		for k := 0; k < m; k++ {
			v += ar[t.idCol[k]] * t.b0[k]
		}
		gz[r] = v
	}
	tol := warmFeasRel * scale
	s.warmTol = tol
	feasible := true
	for r := 0; r < m; r++ {
		if gz[r] < 0 {
			if gz[r] < -tol {
				feasible = false
			} else {
				gz[r] = 0
			}
		}
	}
	copy(t.b, gz)
	t.pivots = 0
	t.farkas = nil
	return feasible
}

// dualRestore runs the dual simplex from the retained (dual-feasible)
// basis to pivot out the negative basic values warmRHS left behind. Each
// iteration picks the most-negative basic value's row as the leaving row
// (ties to the lower row index, deterministically) and the entering
// column by the dual ratio test min rc_j/(−a_rj) over eligible nonbasic
// structural columns, with the same relative tie tolerance and
// smallest-index tie-break as the primal ratio test.
//
// Reduced costs are not recomputed here at all: s.rc already holds the
// phase-2 reduced costs of the current basis. Every Optimal solve ends
// with a from-scratch pricing pass at the terminal basis (runSimplex
// prices before concluding optimality), the zero-pivot warm tier leaves
// the basis untouched, and warmOK is the gate for reaching this code —
// so the invariant holds by induction across a warm chain. Within the
// repair, each pivot updates rc incrementally (rc'_j = rc_j − rc_e·â_rj
// with â the normalized post-pivot leaving row); a full O(m·n) pricing
// pass per iteration was the dominant dual-repair cost. Incremental
// roundoff can only steer which column enters — never the reported
// solution, which is pinned by canonical extraction and the caller's
// fresh pricing pass, and the drift dies with that pass: the next
// solve's rc is from-scratch again.
//
// Returns true when primal feasibility is restored — the caller then
// runs one ordinary pricing pass to certify optimality under the cold
// path's exact termination test. Returns false when the pivot budget is
// exhausted or a leaving row admits no entering column (the new system
// is primal-infeasible); the caller falls back to a cold two-phase
// solve so the Infeasible verdict carries phase 1's tolerance semantics.
func (s *Solver) dualRestore() bool {
	t := &s.t
	rc := s.rc[:t.n] // carried over from the previous solve's terminal pricing
	for iter := 0; iter < maxDualPivots; iter++ {
		leave := -1
		worst := -s.warmTol
		for r := 0; r < t.m; r++ {
			if t.b[r] < worst {
				worst = t.b[r]
				leave = r
			}
		}
		if leave < 0 {
			// Feasible; clamp the remaining tolerated negatives to zero,
			// exactly as warmRHS does on the all-feasible path.
			for r := 0; r < t.m; r++ {
				if t.b[r] < 0 {
					t.b[r] = 0
				}
			}
			return true
		}
		enter := -1
		bestRatio := math.Inf(1)
		lrow := t.a[leave]
		for j := 0; j < t.n; j++ {
			arj := lrow[j]
			if arj >= -pivotTol || t.isBasic(j) {
				continue
			}
			ratio := rc[j] / -arj
			if enter < 0 {
				bestRatio, enter = ratio, j
				continue
			}
			// Ascending scan: on a tie the incumbent (smaller j) wins.
			if ratio < bestRatio-ratioTieRel*math.Max(1, math.Abs(bestRatio)) {
				bestRatio, enter = ratio, j
			}
		}
		if enter < 0 {
			return false // primal infeasible: let cold phase 1 decide
		}
		ce := rc[enter]
		t.pivot(leave, enter)
		if ce != 0 {
			lr := t.a[leave]
			for j := 0; j < t.n; j++ {
				rc[j] -= ce * lr[j]
			}
		}
		rc[enter] = 0
	}
	return false
}

// artificialBasic reports whether any artificial column is still basic.
func (t *tableau) artificialBasic() bool {
	for _, j := range t.basis {
		if j >= t.n {
			return true
		}
	}
	return false
}

// solveCold runs phase 1 (if artificials exist) then phase 2.
func (s *Solver) solveCold() Status {
	t := &s.t
	if t.nArt > 0 {
		// Phase-1 cost: sum of artificials.
		c1 := growF(s.c1, t.nTotal)
		s.c1 = c1
		for j := 0; j < t.n; j++ {
			c1[j] = 0
		}
		for j := t.n; j < t.nTotal; j++ {
			c1[j] = 1
		}
		st, obj := s.runSimplex(c1, t.nTotal)
		if st != Optimal {
			return st // unbounded phase 1 cannot happen; IterLimit propagates
		}
		if obj > feasTol {
			if !s.SkipFarkas {
				t.computeFarkas(c1)
			}
			return Infeasible
		}
		// Drive any remaining artificial basics out of the basis.
		for r := 0; r < t.m; r++ {
			if t.basis[r] < t.n {
				continue
			}
			pivoted := false
			for j := 0; j < t.n; j++ {
				if math.Abs(t.a[r][j]) > pivotTol {
					t.pivot(r, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Row is all zeros over structural columns: a redundant
				// constraint whose artificial cannot leave the basis. It
				// sits at value 0 now, but later pivots eliminate other
				// rows against this one and accumulated roundoff can
				// drift the artificial away from 0 — phase 2 would then
				// report Optimal on a basis that violates the original
				// constraint. Neutralize the row outright: zero every
				// entry except the artificial's own unit column and pin
				// its value to 0, so the row can never be chosen by a
				// ratio test and the artificial is frozen at 0 for good.
				row := t.a[r]
				for j := range row {
					row[j] = 0
				}
				row[t.basis[r]] = 1
				t.b[r] = 0
			}
		}
	}
	st, _ := s.runSimplex(t.c, t.n) // phase 2: artificial columns frozen
	return st
}

// runSimplex minimizes cost over the current tableau, allowing entering
// columns only in [0, nCols). Returns status and the final objective value.
func (s *Solver) runSimplex(cost []float64, nCols int) (Status, float64) {
	// Failpoint: a numerically stuck pivot surfaces as the iteration
	// limit, the same way a real degenerate cycle would.
	if faultinject.Fail(faultinject.SiteSimplexPivot) {
		return IterLimit, 0
	}
	t := &s.t
	maxIter := iterFactor*(t.m+t.nTotal) + 10000
	// Reduced costs are computed from scratch each iteration: for our
	// problem sizes (m ≤ few·10³, n ≤ ~30) this is cheap and avoids
	// maintaining a running objective row.
	y := growF(s.y, t.m) // simplex multipliers via basis costs
	s.y = y
	rc := growF(s.rc, nCols)
	s.rc = rc
	for iter := 0; iter < maxIter; iter++ {
		// y_r = cost of basic variable in row r; reduced costs
		// rc = cost − yᵀA computed row-major for cache friendliness.
		for r := 0; r < t.m; r++ {
			y[r] = cost[t.basis[r]]
		}
		copy(rc, cost[:nCols])
		for r := 0; r < t.m; r++ {
			yr := y[r]
			if yr == 0 {
				continue
			}
			ar := t.a[r]
			for j := 0; j < nCols; j++ {
				rc[j] -= yr * ar[j]
			}
		}
		// Find entering column.
		enter := -1
		if iter < blandAfter {
			best := -reducedTol
			for j := 0; j < nCols; j++ {
				if rc[j] < best && !t.isBasic(j) {
					best = rc[j]
					enter = j
				}
			}
		} else {
			// Bland: smallest index with negative reduced cost.
			for j := 0; j < nCols; j++ {
				if rc[j] < -reducedTol && !t.isBasic(j) {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return Optimal, t.objective(cost)
		}
		// Ratio test. Ties are detected with a slack relative to the
		// incumbent ratio (see ratioTieRel) and broken toward the
		// smallest basic index, which is what prevents cycling on
		// degenerate systems regardless of their scale.
		leave := -1
		bestRatio := math.Inf(1)
		for r := 0; r < t.m; r++ {
			arj := t.a[r][enter]
			if arj <= pivotTol {
				continue
			}
			ratio := t.b[r] / arj
			if leave < 0 {
				bestRatio, leave = ratio, r
				continue
			}
			slack := ratioTieRel * math.Max(1, math.Abs(bestRatio))
			if ratio < bestRatio-slack ||
				(ratio < bestRatio+slack && t.basis[r] < t.basis[leave]) {
				bestRatio, leave = ratio, r
			}
		}
		if leave < 0 {
			return Unbounded, 0
		}
		t.pivot(leave, enter)
	}
	return IterLimit, 0
}

func (t *tableau) isBasic(j int) bool { return t.inBasis[j] }

func (t *tableau) objective(cost []float64) float64 {
	var v float64
	for r := 0; r < t.m; r++ {
		v += cost[t.basis[r]] * t.b[r]
	}
	return v
}

// pivot makes column enter basic in row leave.
func (t *tableau) pivot(leave, enter int) {
	t.pivots++
	piv := t.a[leave][enter]
	inv := 1 / piv
	row := t.a[leave]
	for j := range row {
		row[j] *= inv
	}
	t.b[leave] *= inv
	for r := 0; r < t.m; r++ {
		if r == leave {
			continue
		}
		f := t.a[r][enter]
		if f == 0 {
			continue
		}
		ar := t.a[r]
		for j := range ar {
			ar[j] -= f * row[j]
		}
		t.b[r] -= f * t.b[leave]
		if math.Abs(t.b[r]) < 1e-12 {
			t.b[r] = 0
		}
	}
	t.inBasis[t.basis[leave]] = false
	t.inBasis[enter] = true
	t.basis[leave] = enter
}

// computeFarkas derives the phase-1 infeasibility certificate. For each
// original row r there is a column that was the identity vector e_r in the
// original tableau (the slack of an LE row or the artificial of a GE/EQ
// row); the current entries of that column are the r-th column of B⁻¹, so
// the simplex multipliers are y = c_Bᵀ·B⁻¹ recovered columnwise. The
// certificate is reported against the caller's original row orientation.
// The slice is freshly allocated: it escapes into Solution.Farkas.
func (t *tableau) computeFarkas(cost []float64) {
	y := make([]float64, t.m)
	for r := 0; r < t.m; r++ {
		var v float64
		for i := 0; i < t.m; i++ {
			v += cost[t.basis[i]] * t.a[i][t.idCol[r]]
		}
		y[r] = v * t.rowSign[r]
	}
	t.farkas = y
}

// extractCanonical maps the optimal basis back to the original variables
// by re-solving B·z = b₀ against the pristine initial system, so the
// result depends only on the basis SET and the original data — not on
// the pivot path, and not on which row each basic variable happens to
// occupy (different pivot histories permute basis[]; the columns are
// sorted here to erase that). Row negations in a0/b0 (rowSign) are also
// exactly neutral through partial-pivoted elimination: pivot choice is
// by absolute value and every negated intermediate stays exactly
// negated. Together these make warm and cold solves that terminate at
// the same optimal basis return bitwise-identical X. A numerically
// singular basis system (which a successful simplex run should never
// produce) falls back to the tableau's basic values.
func (s *Solver) extractCanonical() []float64 {
	t := &s.t
	cols, vals := s.canonicalBasis()
	yv := growF(s.yv, t.nTotal)
	s.yv = yv
	for i := range yv {
		yv[i] = 0
	}
	for k, j := range cols {
		yv[j] = vals[k]
	}
	var x []float64
	if s.ReuseX {
		x = growF(s.xbuf, t.numVars)
		s.xbuf = x
	} else {
		x = make([]float64, t.numVars)
	}
	for i := 0; i < t.numVars; i++ {
		pc, mc := t.varMap[i][0], t.varMap[i][1]
		x[i] = yv[pc]
		if mc >= 0 {
			x[i] -= yv[mc]
		}
	}
	return x
}

// Multipliers returns the simplex multipliers of the last solve, one per
// constraint in insertion order, or nil unless that solve was Optimal.
// They are the optimal solution π of the LP dual, in the caller's
// orientation: for a minimization over Ax = b, π maximizes bᵀπ subject to
// aⱼᵀπ ≤ cⱼ on nonnegative variables and aⱼᵀπ = cⱼ on free ones; for a
// maximization the inequalities flip and π minimizes. Either way bᵀπ
// equals Solution.Value.
//
// They are read on demand from the canonical basis — π solves Bᵀπ = c_B
// over the sorted basis columns of the pristine initial system — so, like
// the extracted primal, they depend only on the basis and the original
// data: warm and cold solves that end at the same basis return bitwise-
// identical multipliers, and solves that never ask pay nothing. dst is
// reused when its capacity suffices. A numerically singular basis system
// (never produced by a successful simplex run) also reports nil.
func (s *Solver) Multipliers(dst []float64) []float64 {
	if !s.optimal {
		return nil
	}
	t := &s.t
	m := t.m
	sb := s.sortedBasis()
	gm := growF(s.gm, m*m)
	s.gm = gm
	gz := growF(s.gz, m)
	s.gz = gz
	for k, col := range sb {
		for r := 0; r < m; r++ {
			gm[k*m+r] = t.a0[r*t.nTotal+col]
		}
		gz[k] = t.c[col]
	}
	if !solveDense(gm, gz, m) {
		return nil
	}
	// The tableau minimizes with rows sign-fixed to b ≥ 0: undo both.
	sign := 1.0
	if s.p.maximize {
		sign = -1
	}
	dst = growF(dst, m)
	for r := range dst {
		dst[r] = sign * t.rowSign[r] * gz[r]
	}
	return dst
}

// sortedBasis returns the basis columns in ascending order, in solver
// scratch.
func (s *Solver) sortedBasis() []int {
	t := &s.t
	sb := growI(s.sb, t.m)
	s.sb = sb
	copy(sb, t.basis)
	// Insertion sort: m is small (≤ ~a dozen rows for every LP in the
	// repo) and this avoids the interface boxing of the sort package.
	for i := 1; i < len(sb); i++ {
		v := sb[i]
		j := i - 1
		for j >= 0 && sb[j] > v {
			sb[j+1] = sb[j]
			j--
		}
		sb[j+1] = v
	}
	return sb
}

// canonicalBasis performs the basis re-solve behind canonical
// extraction: B·z = b₀ over the sorted basis columns against the
// pristine initial system. It returns parallel slices (columns, values)
// of the m basic variables; every other column is zero. On a
// numerically singular basis system it falls back to the tableau's
// basic values in basis order — the same pairs, differently ordered,
// so consumers that treat the result as a column→value map are
// unaffected. The returned slices alias solver scratch.
func (s *Solver) canonicalBasis() ([]int, []float64) {
	t := &s.t
	m := t.m
	sb := s.sortedBasis()
	gm := growF(s.gm, m*m)
	s.gm = gm
	gz := growF(s.gz, m)
	s.gz = gz
	for r := 0; r < m; r++ {
		base := r * t.nTotal
		for k := 0; k < m; k++ {
			gm[r*m+k] = t.a0[base+sb[k]]
		}
		gz[r] = t.b0[r]
	}
	if solveDense(gm, gz, m) {
		return sb, gz
	}
	return t.basis, t.b
}

// canonicalValue computes the objective value for a ValueOnly solve
// from the canonical basic values, without expanding them over all
// variables. Zero-coefficient objective terms are skipped: in the full
// path they contribute an exact ±0.0 to the sum, so the accumulated
// value is identical up to the sign of a zero total.
func (s *Solver) canonicalValue(p *Problem) float64 {
	t := &s.t
	cols, vals := s.canonicalBasis()
	var v float64
	for i, cf := range p.objective {
		if cf == 0 {
			continue
		}
		pc, mc := t.varMap[i][0], t.varMap[i][1]
		xi := basicValue(cols, vals, pc)
		if mc >= 0 {
			xi -= basicValue(cols, vals, mc)
		}
		v += cf * xi
	}
	return v
}

// basicValue looks column j up in the (columns, values) pair returned
// by canonicalBasis; nonbasic columns are zero. Linear scan: m ≤ ~a
// dozen for every LP in the repo.
func basicValue(cols []int, vals []float64, j int) float64 {
	for k, c := range cols {
		if c == j {
			return vals[k]
		}
	}
	return 0
}

// solveDense solves the dense m×m system a·x = b in place (result in b)
// by Gaussian elimination with partial pivoting. Deterministic for fixed
// inputs; returns false on a (near-)singular matrix.
func solveDense(a, b []float64, m int) bool {
	for col := 0; col < m; col++ {
		piv := col
		best := math.Abs(a[col*m+col])
		for r := col + 1; r < m; r++ {
			if v := math.Abs(a[r*m+col]); v > best {
				best, piv = v, r
			}
		}
		if best < 1e-300 {
			return false
		}
		if piv != col {
			pr, cr := a[piv*m:piv*m+m], a[col*m:col*m+m]
			for k := col; k < m; k++ {
				pr[k], cr[k] = cr[k], pr[k]
			}
			b[piv], b[col] = b[col], b[piv]
		}
		inv := 1 / a[col*m+col]
		for r := col + 1; r < m; r++ {
			f := a[r*m+col] * inv
			if f == 0 {
				continue
			}
			ar := a[r*m : r*m+m]
			cr := a[col*m : col*m+m]
			for k := col; k < m; k++ {
				ar[k] -= f * cr[k]
			}
			b[r] -= f * b[col]
		}
	}
	for r := m - 1; r >= 0; r-- {
		v := b[r]
		ar := a[r*m : r*m+m]
		for k := r + 1; k < m; k++ {
			v -= ar[k] * b[k]
		}
		b[r] = v / ar[r]
	}
	return true
}
