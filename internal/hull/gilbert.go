package hull

import "mincore/internal/geom"

// Gilbert's algorithm (the distance sub-routine of GJK) computes the point
// of conv(S) nearest to a query p by Frank–Wolfe iterations with optimal
// line search. It serves as the fast pre-test of Clarkson's exact
// containment test: far-outside queries produce a separating direction
// that is verified by a single exact support scan; everything else falls
// through to the exact LP.

// gilbert runs at most maxIter Frank–Wolfe steps. It returns a unit
// direction u with ⟨p,u⟩ > max_{s∈S} ⟨s,u⟩ + tol (verified exactly), or
// nil when it certified none: p is inside within tol, close to the
// boundary, or the budget ran out.
func gilbert(p geom.Vector, s []geom.Vector, maxIter int) geom.Vector {
	if len(s) == 0 {
		return geom.AxisVector(len(p), 0, 1)
	}
	// Start from the support point in direction p (good initial guess).
	i0, _ := geom.MaxDot(s, p)
	x := s[i0].Clone()
	for iter := 0; iter < maxIter; iter++ {
		dir := geom.Sub(p, x)
		dn := dir.Norm()
		if dn <= tol {
			return nil
		}
		// Support point of S in direction (p − x).
		j, sup := geom.MaxDot(s, dir)
		// Frank–Wolfe gap: if no point of S is further than x along dir,
		// x is the projection; p is outside at distance dn.
		gap := sup - geom.Dot(x, dir)
		if gap <= 1e-12+1e-9*dn {
			// Verify the separation exactly before certifying.
			if u := dir.Scale(1 / dn); separates(p, s, u) {
				return u
			}
			return nil
		}
		// Optimal step toward s[j]: minimize ‖p − ((1−t)x + t s_j)‖².
		w := geom.Sub(s[j], x)
		t := geom.Dot(dir, w) / w.NormSq()
		if t >= 1 {
			x = s[j].Clone()
		} else if t > 0 {
			x = geom.Add(x, w.Scale(t))
		} else {
			return nil // no progress; numerical corner
		}
	}
	// Iteration budget exhausted: close to the boundary, defer to the LP.
	return nil
}
