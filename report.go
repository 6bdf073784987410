package mincore

import (
	"errors"
	"fmt"
	"time"

	"mincore/internal/core"
	"mincore/internal/obs"
)

// certTol is the slack allowed between a coreset's measured exact loss
// and the requested ε during certification; it absorbs the floating-
// point noise of the loss LPs without ever certifying a materially
// invalid coreset.
const certTol = 1e-9

// Typed failure taxonomy. ErrNumericalInstability and ErrInfeasible are
// the same sentinels the solver layer wraps, re-exported so callers can
// errors.Is against the public package alone.
var (
	// ErrNumericalInstability marks an LP solve that degenerated (hit its
	// iteration cap or was handed a malformed tableau). Builds failing
	// this way are retried and escalated by the repair pipeline.
	ErrNumericalInstability = core.ErrNumericalInstability
	// ErrInfeasible marks a subproblem with no solution: an impossible
	// LP status on a fat instance, or a fixed-size budget no ε ∈ (0,1)
	// can meet.
	ErrInfeasible = core.ErrInfeasible
	// ErrUncertified is returned (inside an *UncertifiedError) when every
	// retry and fallback was exhausted without producing a coreset whose
	// measured loss meets ε.
	ErrUncertified = errors.New("mincore: coreset could not be certified")
	// ErrInvalidPoint is returned by New for NaN/Inf coordinates or
	// mixed-dimension input slices.
	ErrInvalidPoint = errors.New("mincore: invalid point")
)

// BuildReport records what the verify-and-repair pipeline did to produce
// (or fail to produce) a coreset. Every Coreset returned by Coreset,
// CoresetCtx, FixedSize, and FixedSizeCtx carries one in its Report
// field.
type BuildReport struct {
	// Requested is the algorithm the caller asked for; Algorithm is the
	// one that produced the returned coreset (different after fallback).
	Requested, Algorithm Algorithm
	// Eps is the target bound the result was certified against.
	Eps float64
	// CertifiedLoss is the exact loss measured on the original instance;
	// Certified reports whether it is ≤ Eps (up to tolerance).
	CertifiedLoss float64
	Certified     bool
	// Attempts counts every build attempt (first tries, retries, and
	// fallbacks), or FixedSize's probes; Retries counts only the
	// re-seeded perturbation retries.
	Attempts, Retries int
	// Fallbacks lists the escalation steps taken, in order, e.g.
	// "retry(dsmc)#1" or "fallback(scmc)". Empty for a clean first build.
	Fallbacks []string
	// Wall is the total wall-clock time of the pipeline, or of
	// FixedSize's whole search.
	Wall time.Duration
	// CacheHit marks a result served from the memoized build cache (or
	// joined to a concurrent identical build) rather than built fresh.
	// Wall is zero and Trace is a single root span with a cache=hit attr;
	// the full phase trace lives on the original build's report.
	CacheHit bool
	// Checkpoint is the durable-snapshot provenance of the stream state
	// a build was served from; nil for plain batch builds.
	Checkpoint *CheckpointMeta
	// Stale marks a result served from the last-good fallback instead of
	// a fresh build (degraded mode, opt-in via StaleServePolicy); the
	// Staleness field says how far behind it is and why it was used. The
	// result is still ε-certified — against the stream position it was
	// built at, not the current one.
	Stale     bool
	Staleness *StalenessMeta
	// Trace is the phase-level span tree of the build: dominance-graph
	// construction, each per-algorithm attempt, loss certification, and
	// repair retries, with durations and key attributes. Rendered by
	// `mccoreset -trace` and returned inside mcserve build responses.
	Trace *obs.Trace `json:"trace,omitempty"`
}

// CheckpointMeta describes the durable checkpoint backing a coreset
// served by the ingest service: which snapshot generation existed when
// the build ran, and how far the live stream had advanced past it. The
// gap StreamN − Points is the window a crash at build time would lose
// (and producers would replay).
type CheckpointMeta struct {
	// Path is the snapshot location ("" when durability is disabled).
	Path string
	// Generation and SavedAt identify the last durable generation
	// (Generation 0 = none written yet).
	Generation uint64
	SavedAt    time.Time
	// Points is the stream position captured in that generation;
	// StreamN the live position the build saw.
	Points, StreamN int
	// RestoredN is the stream position recovered at service start
	// (0 = fresh start).
	RestoredN int
}

// StalenessMeta quantifies a degraded-mode answer: the provenance of the
// retained build and its distance from the live stream. The loss bound
// argument is exactly the mergeable-summary one — the coreset was
// certified at ε against StreamN points, so against the current stream it
// is certified for everything up to that position and best-effort for the
// PointsBehind points after it.
type StalenessMeta struct {
	// BuiltAt is when the retained build completed; Age is the elapsed
	// time at serve time.
	BuiltAt time.Time
	Age     time.Duration
	// StreamN is the stream position the retained build was certified at;
	// PointsBehind is how many points the live stream has advanced since.
	StreamN, PointsBehind int
	// Reason is why the fresh build failed: "overloaded", "uncertified",
	// "deadline", "watchdog_kill", or "error".
	Reason string
}

// UncertifiedError is returned when the repair pipeline exhausts every
// retry and fallback without certifying a coreset. It carries the
// best-effort coreset found (lowest measured loss; may be nil when no
// attempt produced a measurable result) so callers can degrade
// gracefully, and unwraps to both ErrUncertified and the underlying
// per-attempt failures.
type UncertifiedError struct {
	// Coreset is the best uncertified result, or nil.
	Coreset *Coreset
	// Report describes the attempts made.
	Report *BuildReport
	// Err joins the individual attempt failures.
	Err error
}

func (e *UncertifiedError) Error() string {
	n := 0
	if e.Report != nil {
		n = e.Report.Attempts
	}
	if e.Err != nil {
		return fmt.Sprintf("%v after %d attempts: %v", ErrUncertified, n, e.Err)
	}
	return fmt.Sprintf("%v after %d attempts", ErrUncertified, n)
}

// Unwrap exposes ErrUncertified and the joined attempt failures to
// errors.Is / errors.As.
func (e *UncertifiedError) Unwrap() []error {
	if e.Err == nil {
		return []error{ErrUncertified}
	}
	return []error{ErrUncertified, e.Err}
}
