// Package hull computes convex hulls and extreme-point sets: Andrew's
// monotone chain in 2D, an incremental hull for small 3D sets
// (used for exact IPDG edges), and Clarkson's output-sensitive LP-based
// extreme-point algorithm in arbitrary fixed dimension. Together these
// replace the Qhull dependency of the paper's implementation.
package hull

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mincore/internal/geom"
)

// ErrBadInput marks point data the hull routines cannot process: mixed
// or wrong dimensions, or non-finite coordinates. Matching the typed
// taxonomy of the core package, malformed geometry is reported, never
// panicked on.
var ErrBadInput = errors.New("hull: invalid input")

// checkDim verifies that every point has dimension d and only finite
// coordinates.
func checkDim(pts []geom.Vector, d int) error {
	for i, p := range pts {
		if p.Dim() != d {
			return fmt.Errorf("%w: point %d has dimension %d, want %d", ErrBadInput, i, p.Dim(), d)
		}
		for j, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: point %d coordinate %d is %v", ErrBadInput, i, j, v)
			}
		}
	}
	return nil
}

// Hull2D returns the indices (into pts) of the vertices of the convex hull
// of the 2D point set pts, in counterclockwise order starting from the
// lexicographically smallest point. Collinear non-vertex points are
// excluded. Duplicates are tolerated. For fewer than 3 distinct points the
// hull degenerates to those points. Points of the wrong dimension or with
// non-finite coordinates return ErrBadInput.
func Hull2D(pts []geom.Vector) ([]int, error) {
	n := len(pts)
	if n == 0 {
		return nil, nil
	}
	if err := checkDim(pts, 2); err != nil {
		return nil, err
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := pts[idx[a]], pts[idx[b]]
		if pa[0] != pb[0] {
			return pa[0] < pb[0]
		}
		return pa[1] < pb[1]
	})
	// Drop exact duplicates.
	uniq := idx[:0]
	for i, id := range idx {
		if i > 0 && geom.Equal(pts[id], pts[uniq[len(uniq)-1]]) {
			continue
		}
		uniq = append(uniq, id)
	}
	idx = uniq
	n = len(idx)
	if n == 1 {
		return []int{idx[0]}, nil
	}
	if n == 2 {
		return []int{idx[0], idx[1]}, nil
	}

	hull := make([]int, 0, 2*n)
	// Lower hull.
	for _, id := range idx {
		for len(hull) >= 2 &&
			geom.Orient2D(pts[hull[len(hull)-2]], pts[hull[len(hull)-1]], pts[id]) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, id)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- {
		id := idx[i]
		for len(hull) >= lower &&
			geom.Orient2D(pts[hull[len(hull)-2]], pts[hull[len(hull)-1]], pts[id]) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, id)
	}
	return hull[:len(hull)-1], nil // last point repeats the first
}

// SortCCWByAngle returns the given point indices sorted counterclockwise
// by polar angle θ ∈ [0,2π). OptMC requires extreme points and candidates
// in this order (Section 5). Indices outside [0, len(pts)) or referenced
// points that are not finite 2D return ErrBadInput.
func SortCCWByAngle(pts []geom.Vector, ids []int) ([]int, error) {
	for _, id := range ids {
		if id < 0 || id >= len(pts) {
			return nil, fmt.Errorf("%w: index %d not in [0,%d)", ErrBadInput, id, len(pts))
		}
		if pts[id].Dim() != 2 {
			return nil, fmt.Errorf("%w: point %d has dimension %d, want 2", ErrBadInput, id, pts[id].Dim())
		}
		for j, v := range pts[id] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: point %d coordinate %d is %v", ErrBadInput, id, j, v)
			}
		}
	}
	out := append([]int(nil), ids...)
	sort.Slice(out, func(a, b int) bool {
		return geom.Theta(pts[out[a]]) < geom.Theta(pts[out[b]])
	})
	return out, nil
}
