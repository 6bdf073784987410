// Package stream provides one-pass, mergeable coreset summaries for
// maxima representation — the streaming setting the paper surveys in
// §1.1 [1, 5, 7, 18, 46]. The summary maintains, for a fixed direction
// net on S^{d-1}, the running extreme point of each direction; because
// per-direction champions are order-independent and maxima commute with
// set union, summaries built on different substreams merge exactly.
//
// The guarantee matches the direction-grid kernel of Agarwal et al. [1]:
// with a β-net of directions over an α-fat stream, the champions form an
// ε-coreset for ε ≈ β²/(2α) + O(β⁴); Summary.Coreset documents the
// measured loss contract used by the tests. Unlike the batch algorithms,
// the summary needs no preprocessing pass and uses O(|net|) memory
// independent of the stream length.
package stream

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"mincore/internal/obs"

	"mincore/internal/geom"
	"mincore/internal/sphere"
)

// Typed Merge errors, wrapped with detail by Merge and re-exported by
// the root package for errors.Is checks.
var (
	// ErrIncompatible marks summaries built with different parameters
	// (direction count, dimension, or seed): their champion slots do not
	// correspond, so merging would silently corrupt the sketch.
	ErrIncompatible = errors.New("stream: incompatible summaries")
	// ErrBadMerge marks a structurally invalid merge: a nil summary, or
	// a summary merged into itself (which would double-count its stream).
	ErrBadMerge = errors.New("stream: invalid merge")
	// ErrInvalidPoint marks a stream point rejected by Feed: a NaN or
	// infinite coordinate, or a dimension that does not match the
	// summary's. Invalid points would otherwise corrupt the champion
	// slots silently (an Inf coordinate wins every direction forever).
	ErrInvalidPoint = errors.New("stream: invalid point")
	// ErrBadState marks a summary state that cannot be restored: slot
	// indices out of range, wrong point dimensions, or non-finite
	// champion data. Snapshot loading wraps it after CRC/framing checks.
	ErrBadState = errors.New("stream: invalid summary state")
)

// Summary is a one-pass coreset summary. Create with NewSummary, feed
// points with Add (any order, one pass), and read the coreset with
// Coreset. Summaries with identical direction sets merge with Merge.
type Summary struct {
	dirs  []geom.Vector
	best  []geom.Vector // champion point per direction (nil until seen)
	bestV []float64
	d     int
	n     int   // points consumed
	m     int   // requested direction count (pre axis augmentation)
	seed  int64 // direction-net seed
	// floor is min_k bestV[k], or −Inf while a slot is empty, and uMax
	// the largest ‖u‖ over dirs: a point with ‖p‖·uMax below the floor
	// can replace no champion. Feed derives both when floorOK is false,
	// as it is after NewSummary, Merge and FromState, so a summary that
	// is only merged and read never pays for them.
	floor, uMax float64
	floorOK     bool
	// version counts the Feed and Merge calls that changed a slot, so an
	// unchanged version means unchanged champions.
	version uint64
}

// NewSummary builds a summary over m near-uniform directions in R^d
// (exact ring on S¹, Fibonacci spiral on S², seeded uniform sample
// beyond). Larger m tightens the coreset guarantee and enlarges the
// summary; m = O(1/ε^{d-1}) directions of angular radius β give loss
// O(β²) on fat streams.
func NewSummary(m, d int, seed int64) *Summary {
	if m < 2*d {
		m = 2 * d
	}
	dirs := sphere.GridDirections(m, d, seed)
	// Axis directions guarantee the bounding box is always represented.
	for i := 0; i < d; i++ {
		dirs = append(dirs, geom.AxisVector(d, i, 1), geom.AxisVector(d, i, -1))
	}
	return &Summary{
		dirs:  dirs,
		best:  make([]geom.Vector, len(dirs)),
		bestV: make([]float64, len(dirs)),
		d:     d,
		m:     m,
		seed:  seed,
	}
}

// Feed validates and consumes one stream point. A point that can beat
// some champion costs O(m·d); once the stream settles, most points fall
// below every champion and cost O(d). A point with the wrong dimension or
// a NaN/Inf coordinate is rejected with ErrInvalidPoint and leaves the
// summary untouched — invalid input must never corrupt a summary that may
// already persist days of stream.
func (s *Summary) Feed(p geom.Vector) error {
	if p.Dim() != s.d {
		return fmt.Errorf("%w: dimension %d, summary dimension %d", ErrInvalidPoint, p.Dim(), s.d)
	}
	for j, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: coordinate %d is %v", ErrInvalidPoint, j, v)
		}
	}
	if !s.floorOK {
		s.resetFloor()
	}
	updates := 0
	// ⟨p,u⟩ ≤ ‖p‖‖u‖; the factor keeps that true of the rounded values,
	// and the slack of products that underflow. Below the floor, p can
	// replace no champion, so skipping it changes nothing.
	if norm(p)*s.uMax*(1+1e-12)+0x1p-1000 >= s.floor {
		for k, u := range s.dirs {
			v := geom.Dot(p, u)
			if s.best[k] == nil || v > s.bestV[k] {
				s.best[k] = p.Clone()
				s.bestV[k] = v
				updates++
			}
		}
		if updates > 0 {
			s.version++
			s.floor = slices.Min(s.bestV) // the scan filled every slot
		}
	}
	s.n++
	if obs.On() {
		mPoints.Inc()
		mChampionUpdates.Add(uint64(updates))
	}
	return nil
}

// resetFloor derives uMax and the floor from the direction net and the
// champion slots.
func (s *Summary) resetFloor() {
	s.uMax = 0
	for _, u := range s.dirs {
		s.uMax = max(s.uMax, u.Norm())
	}
	s.floor = slices.Min(s.bestV)
	if slices.ContainsFunc(s.best, func(p geom.Vector) bool { return p == nil }) {
		s.floor = math.Inf(-1)
	}
	s.floorOK = true
}

// norm returns ‖p‖ without squaring the raw coordinates, which loses
// precision below about 1e-154 and reads 0 below about 1e-162: it
// scales by the largest |coordinate| first. An overflow to +Inf only
// turns Feed's skip off.
func norm(p geom.Vector) float64 {
	var m float64
	for _, v := range p {
		m = max(m, math.Abs(v))
	}
	if m == 0 {
		return 0
	}
	var sq float64
	for _, v := range p {
		r := v / m
		sq += r * r
	}
	return m * math.Sqrt(sq)
}

// Add consumes one pre-validated stream point; it panics on input Feed
// would reject. Internal callers feed instance points that New already
// validated; external ingest goes through Feed.
func (s *Summary) Add(p geom.Vector) {
	if err := s.Feed(p); err != nil {
		panic(err.Error())
	}
}

// AddAll consumes a batch of points.
func (s *Summary) AddAll(pts []geom.Vector) {
	for _, p := range pts {
		s.Add(p)
	}
}

// N returns the number of points consumed.
func (s *Summary) N() int { return s.n }

// Dim returns the point dimension the summary was built for.
func (s *Summary) Dim() int { return s.d }

// Size returns the number of distinct champion points currently held —
// the coreset size, at most the number of directions.
func (s *Summary) Size() int { return len(s.Coreset()) }

// Coreset returns the distinct champion points. For an α-fat stream and
// a direction set of covering radius β, the result Q satisfies
// ω(Q,u) ≥ (1 − β²/α − O(β⁴))·ω(P,u) for every direction u: the nearest
// net direction u′ to u satisfies ⟨q,u⟩ ≥ ⟨q,u′⟩ − ‖u−u′‖ ≥
// ω(P,u′) − β·‖q‖ ≥ ω(P,u) − 2β·diam-terms, made relative by fatness.
func (s *Summary) Coreset() []geom.Vector {
	seen := make(map[string]bool, len(s.best))
	var out []geom.Vector
	for _, p := range s.best {
		if p == nil {
			continue
		}
		key := string(geom.AppendKey(nil, p))
		if !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	return out
}

// Merge folds other into s. Both summaries must have been created with
// identical parameters (same m, d, seed); the merged summary is exactly
// the summary of the concatenated streams. Structural misuse (nil or
// self-merge) returns ErrBadMerge; parameter mismatch ErrIncompatible.
func (s *Summary) Merge(other *Summary) error {
	if other == nil {
		return fmt.Errorf("%w: nil summary", ErrBadMerge)
	}
	if other == s {
		return fmt.Errorf("%w: summary merged into itself", ErrBadMerge)
	}
	if s.d != other.d {
		return fmt.Errorf("%w: dimension %d vs %d", ErrIncompatible, s.d, other.d)
	}
	if s.m != other.m || len(s.dirs) != len(other.dirs) {
		return fmt.Errorf("%w: direction count %d vs %d", ErrIncompatible, s.m, other.m)
	}
	if s.seed != other.seed {
		return fmt.Errorf("%w: seed %d vs %d", ErrIncompatible, s.seed, other.seed)
	}
	for k := range s.dirs {
		if !geom.Equal(s.dirs[k], other.dirs[k]) {
			return fmt.Errorf("%w: direction sets diverge at slot %d", ErrIncompatible, k)
		}
	}
	changed := false
	for k := range s.dirs {
		if other.best[k] == nil {
			continue
		}
		if s.best[k] == nil || other.bestV[k] > s.bestV[k] {
			s.best[k] = other.best[k].Clone()
			s.bestV[k] = other.bestV[k]
			changed = true
		}
	}
	if changed {
		s.version++
		s.floorOK = false
	}
	s.n += other.n
	return nil
}

// Version counts the Feed and Merge calls that changed a champion slot.
// It only grows, so a summary whose version has not moved holds the same
// champions, bit for bit. It is not part of the State.
func (s *Summary) Version() uint64 { return s.version }

// Omega returns the summary's maximum inner product for u — the
// approximate ω(P,u) served from the summary alone.
func (s *Summary) Omega(u geom.Vector) float64 {
	best := math.Inf(-1)
	for _, p := range s.best {
		if p == nil {
			continue
		}
		if v := geom.Dot(p, u); v > best {
			best = v
		}
	}
	return best
}

// Slot is one non-empty champion slot of a summary state: the direction
// index, the champion point, and its inner product with that direction.
type Slot struct {
	Index int
	Value float64
	Point geom.Vector
}

// State is the complete serializable state of a Summary. The direction
// net itself is not part of the state: it is a pure function of
// (M, D, Seed), so FromState rebuilds it deterministically and restored
// summaries Merge with any live summary built from the same parameters.
type State struct {
	M    int // requested direction count (pre axis augmentation)
	D    int
	Seed int64
	N    int
	// Slots holds the non-empty champion slots in ascending index order.
	Slots []Slot
}

// State captures a deep copy of the summary's state for serialization.
func (s *Summary) State() State {
	st := State{M: s.m, D: s.d, Seed: s.seed, N: s.n}
	for k, p := range s.best {
		if p == nil {
			continue
		}
		st.Slots = append(st.Slots, Slot{Index: k, Value: s.bestV[k], Point: p.Clone()})
	}
	return st
}

// FromState restores a summary from a captured state, rebuilding the
// direction net from (M, D, Seed). The restored summary is bitwise
// identical to the one State was called on. Structurally invalid states
// — out-of-range slot indices, wrong point dimensions, non-finite
// champion data, a negative point count — return ErrBadState.
func FromState(st State) (*Summary, error) {
	if st.D < 1 {
		return nil, fmt.Errorf("%w: dimension %d", ErrBadState, st.D)
	}
	if st.N < 0 {
		return nil, fmt.Errorf("%w: negative point count %d", ErrBadState, st.N)
	}
	s := NewSummary(st.M, st.D, st.Seed)
	prev := -1
	for _, sl := range st.Slots {
		if sl.Index < 0 || sl.Index >= len(s.dirs) {
			return nil, fmt.Errorf("%w: slot index %d out of range [0,%d)", ErrBadState, sl.Index, len(s.dirs))
		}
		if sl.Index <= prev {
			return nil, fmt.Errorf("%w: slot indices not strictly ascending at %d", ErrBadState, sl.Index)
		}
		prev = sl.Index
		if sl.Point.Dim() != st.D {
			return nil, fmt.Errorf("%w: slot %d point dimension %d, want %d", ErrBadState, sl.Index, sl.Point.Dim(), st.D)
		}
		if math.IsNaN(sl.Value) || math.IsInf(sl.Value, 0) {
			return nil, fmt.Errorf("%w: slot %d value is %v", ErrBadState, sl.Index, sl.Value)
		}
		for j, v := range sl.Point {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: slot %d coordinate %d is %v", ErrBadState, sl.Index, j, v)
			}
		}
		s.best[sl.Index] = sl.Point.Clone()
		s.bestV[sl.Index] = sl.Value
	}
	s.n = st.N
	return s, nil
}

// SuggestDirections returns the direction count needed for a target loss
// eps at fatness alpha in dimension d, inverting the β²/α ≈ ε relation
// with the (β ≈ covering radius of m uniform directions) heuristic
// β ≈ c·m^{-1/(d-1)}.
func SuggestDirections(eps, alpha float64, d int) int {
	if eps <= 0 || eps >= 1 || alpha <= 0 {
		return 64 * d
	}
	beta := math.Sqrt(eps * alpha)
	m := math.Pow(2.5/beta, float64(d-1))
	if m < float64(8*d) {
		m = float64(8 * d)
	}
	const cap = 1 << 22
	if m > cap {
		m = cap
	}
	return int(math.Ceil(m))
}
