// Package lp implements a dense two-phase primal simplex solver for the
// small linear programs that arise in mincore: the dominance-graph edge
// weights of Eq. 2 in the paper, the gauge LPs of the exact loss oracle,
// the exact maximum-loss computation of Nanongkai et al. used in the
// NP-hardness reduction, and the vertex tests of Clarkson's
// output-sensitive extreme-point algorithm.
//
// All of these LPs have O(d) variables or O(d) rows (d ≤ 10 in every
// experiment) and at most a few thousand constraints or columns, so a
// dense tableau solver is exact (within floating-point tolerance) and
// fast; it replaces the GLPK solver used by the paper's C++
// implementation.
//
// Variables are free (unbounded in sign) by default, matching the LPs in
// the paper where the direction vector u ranges over R^d; callers may mark
// individual variables as nonnegative.
package lp

import (
	"errors"
	"fmt"
)

// Status reports the outcome of Solve.
type Status int

const (
	// Optimal means a finite optimum was found.
	Optimal Status = iota
	// Infeasible means no point satisfies all constraints.
	Infeasible
	// Unbounded means the objective is unbounded over the feasible region.
	Unbounded
	// IterLimit means the solver hit its iteration cap (should not happen
	// with Bland's rule; treated as an internal error by callers).
	IterLimit
	// BadProblem means the problem was malformed at construction time
	// (dimension-mismatched objective or constraint, see Problem.Err).
	BadProblem
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case BadProblem:
		return "bad-problem"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// ErrBadProblem is recorded for malformed inputs (dimension mismatches,
// no variables); Solve then reports Status BadProblem and Problem.Err
// returns the detailed cause.
var ErrBadProblem = errors.New("lp: malformed problem")

// Sense is the direction of a linear constraint.
type Sense int

const (
	// LE is aᵀx ≤ b.
	LE Sense = iota
	// GE is aᵀx ≥ b.
	GE
	// EQ is aᵀx = b.
	EQ
)

type constraint struct {
	coeffs []float64
	sense  Sense
	rhs    float64
}

// Problem is a linear program: maximize Objective·x subject to the added
// constraints. Construct with NewProblem, add constraints, then Solve.
type Problem struct {
	numVars     int
	objective   []float64
	maximize    bool
	constraints []constraint
	nonneg      []bool
	err         error // first construction error; sticky

	// structGen counts structural mutations (constraints added, objective
	// or nonnegativity changed). A retained Solver warm-starts only while
	// the generation it captured still matches; SetConstraintRHS leaves it
	// untouched, which is exactly what makes rhs-only resolves warm.
	structGen uint64
}

// NewProblem returns an empty problem over numVars free variables with a
// zero objective (a pure feasibility problem until SetObjective is called).
func NewProblem(numVars int) *Problem {
	return &Problem{
		numVars:   numVars,
		objective: make([]float64, numVars),
		maximize:  true,
		nonneg:    make([]bool, numVars),
	}
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return p.numVars }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.constraints) }

// Err returns the first construction error (a dimension-mismatched
// objective or constraint), or nil for a well-formed problem.
func (p *Problem) Err() error { return p.err }

// SetObjective sets the objective coefficients; maximize selects the
// optimization direction. A coefficient vector of the wrong length marks
// the problem malformed (Solve reports BadProblem) instead of panicking.
func (p *Problem) SetObjective(coeffs []float64, maximize bool) {
	if len(coeffs) != p.numVars {
		if p.err == nil {
			p.err = fmt.Errorf("%w: objective has %d coefficients, want %d", ErrBadProblem, len(coeffs), p.numVars)
		}
		return
	}
	p.objective = append([]float64(nil), coeffs...)
	p.maximize = maximize
	p.structGen++
}

// SetNonNegative constrains variable i to x_i ≥ 0.
func (p *Problem) SetNonNegative(i int) {
	p.nonneg[i] = true
	p.structGen++
}

// AddConstraint appends the constraint coeffs·x (sense) rhs. A
// coefficient vector of the wrong length marks the problem malformed
// (Solve reports BadProblem) instead of panicking.
func (p *Problem) AddConstraint(coeffs []float64, sense Sense, rhs float64) {
	if len(coeffs) != p.numVars {
		if p.err == nil {
			p.err = fmt.Errorf("%w: constraint %d has %d coefficients, want %d", ErrBadProblem, len(p.constraints), len(coeffs), p.numVars)
		}
		return
	}
	p.constraints = append(p.constraints, constraint{
		coeffs: append([]float64(nil), coeffs...),
		sense:  sense,
		rhs:    rhs,
	})
	p.structGen++
}

// SetConstraintRHS replaces the right-hand side of constraint i, keeping
// its coefficients and sense. This is the warm-restart hook: a Solver
// that solved this problem can resolve after rhs-only changes from the
// previous optimal basis without rebuilding the tableau. An out-of-range
// index marks the problem malformed (Solve reports BadProblem) instead
// of panicking.
func (p *Problem) SetConstraintRHS(i int, rhs float64) {
	if i < 0 || i >= len(p.constraints) {
		if p.err == nil {
			p.err = fmt.Errorf("%w: SetConstraintRHS(%d) with %d constraints", ErrBadProblem, i, len(p.constraints))
		}
		return
	}
	p.constraints[i].rhs = rhs
}

// AddLE appends coeffs·x ≤ rhs.
func (p *Problem) AddLE(coeffs []float64, rhs float64) { p.AddConstraint(coeffs, LE, rhs) }

// AddGE appends coeffs·x ≥ rhs.
func (p *Problem) AddGE(coeffs []float64, rhs float64) { p.AddConstraint(coeffs, GE, rhs) }

// AddEQ appends coeffs·x = rhs.
func (p *Problem) AddEQ(coeffs []float64, rhs float64) { p.AddConstraint(coeffs, EQ, rhs) }

// Solution holds the result of Solve. X and Value are meaningful only when
// Status == Optimal.
//
// Farkas is set when Status == Infeasible: it is a vector z, one entry per
// constraint in insertion order, certifying infeasibility. For a problem
// whose constraints are all equalities Ax = b over nonnegative variables
// (the containment LPs of Clarkson's algorithm), z satisfies zᵀA ≤ 0
// componentwise and zᵀb > 0 up to solver tolerance.
type Solution struct {
	Status Status
	X      []float64
	Value  float64
	Farkas []float64
}

// Solve runs the two-phase simplex method and returns the solution. A
// problem marked malformed at construction time reports BadProblem.
//
// Each call uses a throwaway Solver, so the returned slices are freshly
// allocated and independent of later solves. Callers in a hot loop
// should hold a Solver of their own: it pools the tableau across solves
// and warm-starts rhs-only resolves, returning bitwise-identical
// solutions.
func (p *Problem) Solve() Solution {
	var s Solver
	return s.Solve(p)
}
