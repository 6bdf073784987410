package core

import (
	"context"
	"math"

	"mincore/internal/geom"
	"mincore/internal/hull"
	"mincore/internal/mips"
	"mincore/internal/parallel"
	"mincore/internal/voronoi"
)

// The exact 2D loss by a critical-direction sweep. Loss reads l(Q,P)
// off the gauge LP of conv(Q) in every dimension; in the plane the loss
// is piecewise monotone between known breakpoints, so it can also be
// read directly, without an LP. This is the reference the gauge is
// checked against in 2D, as optMCAlgorithm1 is for OptMC.

// lossExact2D returns the exact maximum loss of Q (indices into
// inst.Pts) in two dimensions by evaluating every critical direction:
// the Voronoi boundary vectors of X and of the hull of Q, where the
// loss attains its maxima, plus the perpendiculars of Q's hull points.
// It reports the conservative worst case 1 when the loss cannot be
// measured, or when the instance is not 2D.
func (inst *Instance) lossExact2D(q []int) float64 {
	if inst.D != 2 || len(q) == 0 {
		return 1
	}
	qpts := make([]geom.Vector, len(q))
	for i, id := range q {
		qpts[i] = inst.Pts[id]
	}
	// Upper envelope of Q is realized by the hull of Q; its boundary
	// vectors are the argmax breakpoints.
	qh, err := hull.Hull2D(qpts)
	if err != nil {
		return 1
	}
	qExt := make([]geom.Vector, len(qh))
	for i, id := range qh {
		qExt[i] = qpts[id]
	}
	qExtSorted, err := hull.SortCCWByAngle(qExt, identity(len(qExt)))
	if err != nil {
		return 1
	}
	ordered := make([]geom.Vector, len(qExtSorted))
	for i, id := range qExtSorted {
		ordered[i] = qExt[id]
	}

	candidates := append([]geom.Vector(nil), inst.BoundaryVecs...)
	if len(ordered) >= 2 {
		if bv, err := voronoi.BoundaryVectors2D(ordered); err == nil {
			candidates = append(candidates, bv...)
		}
	}
	// Guard directions: perpendiculars to each coreset point (where its
	// own contribution crosses zero) catch the loss-=1 coverage gaps.
	for _, p := range ordered {
		th := geom.Theta(p)
		candidates = append(candidates,
			geom.UnitFromTheta(th+math.Pi/2), geom.UnitFromTheta(th-math.Pi/2))
	}

	qTree := mips.NewKDTree(ordered)
	losses := make([]float64, len(candidates))
	err = parallel.For(context.Background(), inst.Workers, len(candidates), func(k int) {
		u := candidates[k]
		wp := inst.Omega(u)
		if wp <= 0 {
			return // cannot happen on a fat instance
		}
		_, wq := qTree.MaxDot(u)
		losses[k] = 1 - wq/wp
	})
	if err != nil {
		return 1
	}
	worst := 0.0
	for _, l := range losses {
		if l > worst {
			worst = l
		}
	}
	return clampLoss(worst)
}
