package mincore

import (
	"fmt"
	"io"
	"math"

	"mincore/internal/geom"
	"mincore/internal/snapshot"
	"mincore/internal/stream"
)

// Typed streaming errors, re-exported for errors.Is checks against the
// public package alone.
var (
	// ErrIncompatibleSummaries is returned by StreamSummary.Merge for
	// summaries built with different parameters (dimension, direction
	// count, or seed).
	ErrIncompatibleSummaries = stream.ErrIncompatible
	// ErrBadMerge is returned by StreamSummary.Merge for a structurally
	// invalid merge: a nil summary or a summary merged into itself.
	ErrBadMerge = stream.ErrBadMerge
	// ErrBadSnapshot is returned by ReadStreamSummary (and the ingest
	// service's recovery path) for a snapshot that cannot be decoded:
	// wrong magic, unsupported version, truncated or torn payload, CRC
	// mismatch, or a structurally invalid summary state.
	ErrBadSnapshot = snapshot.ErrBadSnapshot
)

// StreamSummary is a one-pass, mergeable coreset summary for maxima
// representation: feed points in any order with Add (each point is seen
// once, O(m) memory for m directions; O(m·d) work while a point can still
// beat a champion, O(d) once the stream settles), merge summaries of
// substreams with Merge, and read the coreset with Coreset.
//
// Unlike the batch algorithms, the summary cannot pre-normalize the
// stream, so the ε guarantee is relative to the stream's own fatness: on
// an α-fat stream, NewStreamSummary(d, eps, alpha, seed) sizes its
// direction set so the coreset loss is at most ≈ eps. For raw streams of
// unknown shape, treat the result as a directional-maxima sketch and
// validate downstream.
type StreamSummary struct {
	s *stream.Summary
}

// NewStreamSummary creates a summary for d-dimensional points targeting
// loss eps on streams of fatness ≥ alpha (alpha ≤ 0 assumes 0.25).
func NewStreamSummary(d int, eps, alpha float64, seed int64) *StreamSummary {
	if alpha <= 0 {
		alpha = 0.25
	}
	m := stream.SuggestDirections(eps, alpha, d)
	return &StreamSummary{s: stream.NewSummary(m, d, seed)}
}

// Feed validates and consumes one stream point. A NaN or infinite
// coordinate, or a point of the wrong dimension, is rejected with
// ErrInvalidPoint and leaves the summary untouched — the validation New
// applies to batch input, applied at ingest time.
func (ss *StreamSummary) Feed(p Point) error {
	if len(p) != ss.s.Dim() {
		return fmt.Errorf("%w: point has dimension %d, summary dimension %d", ErrInvalidPoint, len(p), ss.s.Dim())
	}
	for j, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: coordinate %d is %v", ErrInvalidPoint, j, v)
		}
	}
	return ss.s.Feed(geom.Vector(p))
}

// Add consumes one pre-validated stream point; invalid input panics
// (the historical contract). Use Feed to reject bad points gracefully.
func (ss *StreamSummary) Add(p Point) { ss.s.Add(geom.Vector(p)) }

// N returns the number of points consumed.
func (ss *StreamSummary) N() int { return ss.s.N() }

// Size returns the current coreset size.
func (ss *StreamSummary) Size() int { return ss.s.Size() }

// Coreset returns copies of the current coreset points: changing them
// leaves the summary untouched.
func (ss *StreamSummary) Coreset() []Point {
	q := ss.s.Coreset()
	out := make([]Point, len(q))
	for i, p := range q {
		out[i] = Point(p.Clone())
	}
	return out
}

// Omega returns the summary's maximum inner product for direction u.
func (ss *StreamSummary) Omega(u Point) float64 { return ss.s.Omega(geom.Vector(u)) }

// Merge folds another summary (same d, eps, alpha, seed parameters) into
// this one; the result is exactly the summary of the concatenated
// streams. Merging a nil summary or a summary into itself returns
// ErrBadMerge; parameter mismatch returns ErrIncompatibleSummaries.
func (ss *StreamSummary) Merge(other *StreamSummary) error {
	if other == nil || other.s == nil {
		return fmt.Errorf("%w: nil summary", ErrBadMerge)
	}
	if other == ss {
		return fmt.Errorf("%w: summary merged into itself", ErrBadMerge)
	}
	return ss.s.Merge(other.s)
}

// WriteSnapshot serializes the summary to w in the versioned snapshot
// format (magic, format version, parameter header, champion payload,
// CRC-32 trailer). The encoding is bitwise exact: ReadStreamSummary
// restores a summary with identical champions that merges with any live
// summary of the same parameters. For crash-safe on-disk checkpointing
// with generation fallback, use the ingest service instead.
func (ss *StreamSummary) WriteSnapshot(w io.Writer) error {
	return snapshot.Encode(w, ss.s.State(), snapshot.Meta{})
}

// ReadStreamSummary restores a summary serialized by WriteSnapshot.
// Malformed input of any kind returns an error wrapping ErrBadSnapshot;
// it never panics.
func ReadStreamSummary(r io.Reader) (*StreamSummary, error) {
	s, _, err := snapshot.Decode(r)
	if err != nil {
		return nil, err
	}
	return &StreamSummary{s: s}, nil
}
