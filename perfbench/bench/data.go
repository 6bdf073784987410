package bench

import (
	"math"
	"math/rand"

	"mincore"
)

// Input returns a batch workload's input: the NORMAL(n, d) cloud of the
// workload's fixed data seed, followed by n/50 exact duplicates of its
// points picked by the run's seed. New drops the duplicates (keeping
// first occurrences in order), so every run preprocesses and solves the
// same instance while its input still varies with the seed. Reordering
// the cloud instead would change the hull's discovery order and with it
// the solvers' tie-breaks, which moves SCMC across doubling stages and
// the build time by 2× — a property of the input, not of the program.
func Input(n, d int, dataSeed, seed int64) []mincore.Point {
	pts := Normal(n, d, dataSeed)
	return append(pts, duplicates(pts, n/50, seed)...)
}

// duplicates returns k copies of points of pts picked by seed.
func duplicates(pts []mincore.Point, k int, seed int64) []mincore.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]mincore.Point, k)
	for i := range out {
		out[i] = append(mincore.Point(nil), pts[rng.Intn(len(pts))]...)
	}
	return out
}

// Stream returns the serve workload's input: the NORMAL(n, d) cloud of
// the fixed data seed in an order the run's seed picks, followed by
// extra duplicates of its points. A stream's champion set is the same
// for every arrival order once every point has arrived, so reads after
// the whole cloud see the same champion set on every run.
func Stream(n, extra, d int, dataSeed, seed int64) []mincore.Point {
	pts := Normal(n, d, dataSeed)
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return append(pts, duplicates(pts, extra, seed+1)...)
}

// Normal returns n points in d dimensions with every attribute drawn from
// the standard normal distribution and min-max rescaled to [−1,1] — the
// paper's NORMAL dataset, generated from seed alone.
func Normal(n, d int, seed int64) []mincore.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]mincore.Point, n)
	for i := range pts {
		p := make(mincore.Point, d)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	for j := 0; j < d; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range pts {
			lo, hi = math.Min(lo, p[j]), math.Max(hi, p[j])
		}
		for _, p := range pts {
			p[j] = 2*(p[j]-lo)/(hi-lo) - 1
		}
	}
	return pts
}
