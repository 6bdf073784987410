package mincore_test

// Tests for the observability surface of the build pipeline: every
// algorithm path must leave a non-empty phase trace on its BuildReport,
// including the degraded fallback-chain exit, and the ingest service
// must report checkpoint lag.
//
// The fault-injection tests share the process-global failpoint registry
// with faults_test.go, so they must not call t.Parallel and force
// Workers = 1.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mincore"
	"mincore/internal/faultinject"
	"mincore/internal/obs"
)

// requireSpan fails unless the trace holds a span with the exact name.
func requireSpan(t *testing.T, tr *obs.Trace, name string) *obs.Span {
	t.Helper()
	sp := tr.Find(name)
	if sp == nil {
		t.Fatalf("trace has no span %q:\n%s", name, tr.String())
	}
	return sp
}

func TestTraceOnCertifiedBuild(t *testing.T) {
	cs, err := mincore.New(faultPoints(200, 2, 11), mincore.WithSeed(11), mincore.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := cs.Coreset(0.1, mincore.DSMC)
	if err != nil {
		t.Fatal(err)
	}
	tr := q.Report.Trace
	if tr == nil || tr.Root == nil {
		t.Fatal("certified build report has no trace")
	}
	if tr.Root.Name != "build" {
		t.Errorf("root span = %q, want build", tr.Root.Name)
	}
	if !tr.Root.Ended() {
		t.Error("root span never ended")
	}
	if got := tr.Root.Attr("algorithm"); got != "dsmc" {
		t.Errorf("root algorithm attr = %q, want dsmc", got)
	}
	attempt := requireSpan(t, tr, "attempt(dsmc)#1")
	if !attempt.Ended() {
		t.Error("attempt span never ended")
	}
	requireSpan(t, tr, "build-indices")
	requireSpan(t, tr, "dg-build")
	cert := requireSpan(t, tr, "certify")
	if cert.Attr("loss") == "" {
		t.Error("certify span has no loss attr")
	}
	if tr.SpanCount() < 4 {
		t.Errorf("SpanCount = %d, want >= 4:\n%s", tr.SpanCount(), tr.String())
	}
}

func TestTraceOnFixedSizeBuild(t *testing.T) {
	cs, err := mincore.New(faultPoints(200, 2, 17), mincore.WithSeed(17), mincore.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := cs.FixedSize(10, mincore.DSMC)
	if err != nil {
		t.Fatal(err)
	}
	tr := q.Report.Trace
	if tr == nil || tr.Root == nil {
		t.Fatal("fixed-size build report has no trace")
	}
	if tr.Root.Name != "fixed-size-build" {
		t.Errorf("root span = %q, want fixed-size-build", tr.Root.Name)
	}
	requireSpan(t, tr, "probe#1")
	if !strings.Contains(tr.String(), "eps=") {
		t.Errorf("probe spans carry no eps attrs:\n%s", tr.String())
	}
}

// A certification oracle that always fails walks the whole fallback
// chain; the trace must record an attempt span for every rung and a
// failed certify child on each, and still be attached to the report
// inside the returned *UncertifiedError.
func TestTraceThroughFallbackChain(t *testing.T) {
	cs, err := mincore.New(faultPoints(120, 2, 41), mincore.WithSeed(41), mincore.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.Config{Rate: 1, Sites: []faultinject.Site{faultinject.SiteCertify}})
	_, err = cs.Coreset(0.1, mincore.OptMC)
	faultinject.Disable()
	if err == nil {
		t.Fatal("corrupted certification should not certify")
	}
	var ue *mincore.UncertifiedError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %T, want *UncertifiedError", err)
	}
	tr := ue.Report.Trace
	if tr == nil || tr.Root == nil {
		t.Fatal("uncertified report has no trace")
	}
	if !tr.Root.Ended() {
		t.Error("root span never ended on the degrade path")
	}
	for _, algo := range []string{"optmc", "dsmc", "scmc", "ann", "stream"} {
		sp := requireSpan(t, tr, "attempt("+algo+")#1")
		// SiteCertify corrupts the measured loss (loss attr over ε) or
		// errors outright (error attr); either way the span records why
		// the attempt failed.
		found := false
		for _, c := range sp.Children {
			if c.Name == "certify" && (c.Attr("error") != "" || c.Attr("loss") != "") {
				found = true
			}
		}
		if !found {
			t.Errorf("attempt(%s)#1 has no certify child recording the failure:\n%s", algo, tr.String())
		}
	}
	// Re-seeded retries appear as #2 attempts with a reperturb span.
	requireSpan(t, tr, "attempt(optmc)#2")
	requireSpan(t, tr, "reperturb")
	if tr.SpanCount() < 2*ue.Report.Attempts {
		t.Errorf("SpanCount = %d for %d attempts; trace looks truncated", tr.SpanCount(), ue.Report.Attempts)
	}
}

// TestTraceAttrsSetBeforeSpanEnd pins the trace-lifecycle fix: every
// build flavor must finish with zero late-attr events, and the attrs
// that used to be written after End — the fixed-size probe eps/size,
// the certify loss — must actually be present on their (ended) spans.
func TestTraceAttrsSetBeforeSpanEnd(t *testing.T) {
	requireClean := func(t *testing.T, tr *obs.Trace) {
		t.Helper()
		if tr == nil {
			t.Fatal("no trace on report")
		}
		if n := tr.EventCount(obs.LateAttrEvent); n != 0 {
			t.Fatalf("%d late-attr events — attrs written after span End:\n%s", n, tr.String())
		}
	}

	t.Run("certified", func(t *testing.T) {
		cs, err := mincore.New(faultPoints(200, 2, 19), mincore.WithSeed(19), mincore.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		q, err := cs.Coreset(0.1, mincore.DSMC)
		if err != nil {
			t.Fatal(err)
		}
		requireClean(t, q.Report.Trace)
		cert := requireSpan(t, q.Report.Trace, "certify")
		if !cert.Ended() || cert.Attr("loss") == "" {
			t.Errorf("certify span: ended=%v loss=%q, want ended with loss set", cert.Ended(), cert.Attr("loss"))
		}
	})

	t.Run("fixed-size", func(t *testing.T) {
		cs, err := mincore.New(faultPoints(200, 2, 29), mincore.WithSeed(29), mincore.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		q, err := cs.FixedSize(10, mincore.DSMC)
		if err != nil {
			t.Fatal(err)
		}
		requireClean(t, q.Report.Trace)
		probe := requireSpan(t, q.Report.Trace, "probe#1")
		if !probe.Ended() || probe.Attr("eps") == "" || probe.Attr("size") == "" {
			t.Errorf("probe span: ended=%v eps=%q size=%q, want ended with both set",
				probe.Ended(), probe.Attr("eps"), probe.Attr("size"))
		}
	})

	t.Run("cache-hit", func(t *testing.T) {
		cs, err := mincore.New(faultPoints(200, 2, 31), mincore.WithSeed(31), mincore.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cs.Coreset(0.1, mincore.DSMC); err != nil {
			t.Fatal(err)
		}
		q, err := cs.Coreset(0.1, mincore.DSMC)
		if err != nil {
			t.Fatal(err)
		}
		requireClean(t, q.Report.Trace)
		if !q.Report.Trace.Root.Ended() || q.Report.Trace.Root.Attr("cache") != "hit" {
			t.Errorf("cache-hit root span: ended=%v cache=%q, want ended with cache=hit",
				q.Report.Trace.Root.Ended(), q.Report.Trace.Root.Attr("cache"))
		}
	})
}

func TestServiceStatsCheckpointLag(t *testing.T) {
	dir := t.TempDir()
	svc, err := mincore.NewIngestService(mincore.ServeOptions{
		Dim: 2, Eps: 0.1, Seed: 7,
		SnapshotPath:       dir + "/stream.snap",
		CheckpointInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Feed(mincore.Point{0.3, 0.7}, mincore.Point{0.7, 0.3}); err != nil {
		t.Fatal(err)
	}
	if lag := svc.Stats().CheckpointLag; lag != 0 {
		t.Errorf("CheckpointLag = %v before first checkpoint, want 0", lag)
	}
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	lag := svc.Stats().CheckpointLag
	if lag <= 0 || lag > time.Minute {
		t.Errorf("CheckpointLag = %v after checkpoint, want small positive", lag)
	}
}
