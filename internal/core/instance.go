// Package core implements the paper's contribution: algorithms for the
// Minimum ε-Coreset (MC) problem for maxima representation.
//
//   - OptMC (Section 5): the optimal polynomial-time algorithm in R²,
//     via Algorithm 1's candidate selection, each candidate's cell arc in
//     closed form, and a minimum circular arc cover. Algorithm 1's
//     overlap graph and shortest directed cycle are its test reference.
//   - DSMC (Algorithms 2–3): the dominance-graph approximation in any
//     fixed dimension, with LP edge weights (Eq. 2) and greedy dominating
//     set.
//   - SCMC (Algorithm 4): the δ-net set-cover approximation, with the
//     direction set grown from the exact loss oracle's cuts instead of a
//     fixed net or a blindly doubled sample.
//   - ANNKernel: the ε-kernel baseline of Yu et al. [45] ("ANN" in the
//     paper's experiments), in internal/kernel, glued here for loss
//     validation.
//
// All algorithms assume the instance is α-fat in [−1,1]^d (Section 2);
// use internal/transform.Fatten on raw data first. The package also
// provides exact and sampled evaluation of the loss l(Q,P) and the dual
// (size-budgeted) problem via binary search.
package core

import (
	"fmt"
	"sync"

	"mincore/internal/geom"
	"mincore/internal/hull"
	"mincore/internal/mips"
	"mincore/internal/transform"
	"mincore/internal/voronoi"
)

// Instance is a preprocessed MC problem instance: the (α-fat) point set
// together with its extreme points and derived structures shared by all
// algorithms. Build once with NewInstance and reuse across ε values, as
// the paper's experiments do.
type Instance struct {
	Pts []geom.Vector // the full point set P (assumed α-fat in [−1,1]^d)
	D   int           // dimensionality

	X      []int         // extreme point indices into Pts (CCW order for d=2)
	ExtPts []geom.Vector // Pts[X[i]]

	Alpha float64 // empirical fatness (transform.EmpiricalFatness)

	// Workers is the degree of parallelism for the parallel hot paths
	// (dominance-graph construction, loss evaluation, SCMC's set-system
	// construction): 0 selects GOMAXPROCS, 1 forces sequential execution.
	// Set it before sharing the instance across goroutines; outputs are
	// bitwise identical for every value.
	Workers int

	// DisableLPWarmStart forces every dominance-graph edge LP and every
	// gauge LP of the exact loss oracle to solve cold instead of
	// warm-starting from the previous pair's or owner's basis. Outputs
	// are bitwise identical either way (see lp.Solver); the switch
	// exists for determinism tests and benchmarks.
	DisableLPWarmStart bool

	// 2D-only caches (nil in higher dimensions).
	BoundaryVecs []geom.Vector // u*_i between consecutive extreme points

	extTree *mips.KDTree // over ExtPts

	// Memos of pure functions of the extreme points, shared by every
	// build on the instance: the warm-start scan tour (scanOrder) and the
	// dominance graph's witness directions (dgSubstrate).
	tourOnce    sync.Once
	tour        []int
	dgOnce      sync.Once
	dgWitnesses [][]geom.Vector
}

// NewInstance preprocesses pts: extracts extreme points (Clarkson / hulls),
// measures fatness, and builds the kd-tree over the extreme points that
// every directional maximum query runs on. pts must already be α-fat in
// [−1,1]^d; it is retained, not copied.
func NewInstance(pts []geom.Vector) (*Instance, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("core: empty point set")
	}
	d := pts[0].Dim()
	inst := &Instance{Pts: pts, D: d}

	var err error
	inst.X, err = hull.ExtremePoints(pts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if d == 2 {
		// Hull2D yields CCW order starting from the lexicographic minimum;
		// re-sort by polar angle as Algorithm 1 expects (valid because the
		// set is fat, i.e. the origin is interior).
		inst.X, err = hull.SortCCWByAngle(pts, inst.X)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	inst.ExtPts = make([]geom.Vector, len(inst.X))
	for i, id := range inst.X {
		inst.ExtPts[i] = pts[id]
	}
	inst.Alpha = transform.EmpiricalFatness(inst.ExtPts, 1024, 1)
	if inst.Alpha <= 0 {
		return nil, fmt.Errorf("core: point set is not fat (α=%g ≤ 0); apply transform.Fatten first", inst.Alpha)
	}
	if d == 2 {
		bv, err := voronoi.BoundaryVectors2D(inst.ExtPts)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		inst.BoundaryVecs = bv
	}
	inst.extTree = mips.NewKDTree(inst.ExtPts)
	return inst, nil
}

// NewInstanceFromExtremes builds an instance over a point set that is
// already known to consist solely of extreme points in canonical order —
// the ExtPts of a previously built instance (CCW-sorted for d=2). It
// skips hull enumeration entirely and X is the identity. Every derived
// structure (ExtPts order, fatness, boundary vectors) is bitwise
// identical to the parent's, so the extreme-point algorithms select the
// same points as on the parent, in ξ-point indexing. The library no
// longer calls it: DSMC and SCMC index the parent's X directly. It stays
// for the benchmark's setup replay.
func NewInstanceFromExtremes(extPts []geom.Vector) (*Instance, error) {
	if len(extPts) == 0 {
		return nil, fmt.Errorf("core: empty point set")
	}
	d := extPts[0].Dim()
	inst := &Instance{Pts: extPts, D: d}
	inst.X = make([]int, len(extPts))
	for i := range inst.X {
		inst.X[i] = i
	}
	inst.ExtPts = extPts
	inst.Alpha = transform.EmpiricalFatness(inst.ExtPts, 1024, 1)
	if inst.Alpha <= 0 {
		return nil, fmt.Errorf("core: point set is not fat (α=%g ≤ 0); apply transform.Fatten first", inst.Alpha)
	}
	if d == 2 {
		bv, err := voronoi.BoundaryVectors2D(inst.ExtPts)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		inst.BoundaryVecs = bv
	}
	inst.extTree = mips.NewKDTree(extPts)
	return inst, nil
}

// N returns |P|.
func (inst *Instance) N() int { return len(inst.Pts) }

// Xi returns ξ = |X|, the number of extreme points.
func (inst *Instance) Xi() int { return len(inst.X) }

// Omega returns ω(P,u) = max_{p∈P} ⟨p,u⟩, evaluated over the extreme
// points (which realize every directional maximum).
func (inst *Instance) Omega(u geom.Vector) float64 {
	_, w := inst.extTree.MaxDot(u)
	return w
}

// ExtremeAt returns the index (into Pts) of the extreme point for u.
func (inst *Instance) ExtremeAt(u geom.Vector) int {
	i, _ := inst.extTree.MaxDot(u)
	return inst.X[i]
}
