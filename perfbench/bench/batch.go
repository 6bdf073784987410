package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"mincore"
)

// certTol is the slack the library allows between a certified loss and ε.
const certTol = 1e-9

// NewCoreseter preprocesses pts the way every batch workload does: a
// fresh New with sequential workers, so the blocking phases add up.
func NewCoreseter(pts []mincore.Point, seed int64) (*mincore.Coreseter, error) {
	return mincore.New(pts, mincore.WithSeed(seed), mincore.WithWorkers(1))
}

// CheckCertified verifies a build's contract: the report says certified,
// and the indices, re-measured with the exact loss oracle, meet ε.
func CheckCertified(cs *mincore.Coreseter, q *mincore.Coreset, eps float64) error {
	if q.Report == nil || !q.Report.Certified {
		return fmt.Errorf("ε=%g: build not certified", eps)
	}
	if l := cs.Loss(q.Indices); l > eps+certTol {
		return fmt.Errorf("ε=%g: re-measured loss %.6g exceeds ε", eps, l)
	}
	return nil
}

// BatchRun is what one run of a batch workload measured.
type BatchRun struct {
	SetupS    []float64            // one per New
	BuildS    map[string][]float64 // per EpsKey, one per build
	Sizes     map[string]int       // certified size per EpsKey
	Attempted int
	Errors    []string
}

// RunBatch runs every session of the workload once — a session is one
// New, then one certified build per ε of the session on that Coreseter —
// and then, while time is left, repeats in order each session whose last
// run still fits before the deadline. Cheap sessions thus get more
// samples than expensive ones, and every session gets at least one. The
// collector runs before each timed call, so one build's garbage is not
// charged to the next.
func RunBatch(ctx context.Context, w Workload, pts []mincore.Point, seed int64, seconds float64) *BatchRun {
	r := &BatchRun{BuildS: map[string][]float64{}, Sizes: map[string]int{}}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	last := make([]time.Duration, len(w.Sessions))
	for i, session := range w.Sessions {
		last[i] = r.session(ctx, session, pts, seed)
	}
	for ran := true; ran; {
		ran = false
		for i, session := range w.Sessions {
			if time.Now().Add(last[i]).Before(deadline) {
				last[i] = r.session(ctx, session, pts, seed)
				ran = true
			}
		}
	}
	return r
}

// session runs one New and its builds, returning how long that took.
func (r *BatchRun) session(ctx context.Context, eps []float64, pts []mincore.Point, seed int64) time.Duration {
	start := time.Now()
	r.Attempted++
	runtime.GC()
	t0 := time.Now()
	cs, err := NewCoreseter(pts, seed)
	if err != nil {
		r.Errors = append(r.Errors, fmt.Sprintf("New: %v", err))
		return time.Since(start)
	}
	r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
	for _, e := range eps {
		r.Attempted++
		runtime.GC()
		t1 := time.Now()
		q, err := cs.CoresetCtx(ctx, e, mincore.Auto)
		el := time.Since(t1)
		if err == nil {
			err = CheckCertified(cs, q, e)
		}
		if err != nil {
			r.Errors = append(r.Errors, fmt.Sprintf("ε=%g: %v", e, err))
			continue
		}
		r.BuildS[EpsKey(e)] = append(r.BuildS[EpsKey(e)], el.Seconds())
		r.Sizes[EpsKey(e)] = q.Size()
	}
	return time.Since(start)
}
