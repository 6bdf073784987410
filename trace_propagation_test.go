package mincore

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mincore/internal/faultinject"
	"mincore/internal/obs"
)

// BenchmarkServeTraceOverhead measures the tracing tax on the served-
// build path: the traced arm performs everything the mcserve middleware
// adds per request — trace mint, context plumbing, the span tree grown
// by admission/scheduler/build instrumentation, and the trace-store
// admission — against an untraced baseline of the same build. The
// committed gate lives in BENCH_observability.json (trace_overhead,
// budget < 2%); this benchmark is the manual entry point (`make trace`).
func BenchmarkServeTraceOverhead(b *testing.B) {
	store := obs.NewTraceStore(obs.StoreOptions{Retain: 64})
	newSvc := func() *IngestService {
		svc, err := NewIngestService(ServeOptions{
			Dim: 2, Eps: 0.1, Seed: 7, CheckpointInterval: -1, BuildCache: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := svc.Feed(servePoints(400, 7)...); err != nil {
			b.Fatal(err)
		}
		for {
			ss, err := svc.Summary()
			if err != nil {
				b.Fatal(err)
			}
			if ss.N() == 400 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		return svc
	}

	b.Run("untraced", func(b *testing.B) {
		svc := newSvc()
		defer svc.Kill()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Coreset(context.Background(), 0.2, Auto); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		svc := newSvc()
		defer svc.Kill()
		for i := 0; i < b.N; i++ {
			rt := obs.StartRequest("GET /v1/tenants/{id}/coreset", "")
			ctx := obs.WithRequest(context.Background(), rt)
			if _, err := svc.Coreset(ctx, 0.2, Auto); err != nil {
				b.Fatal(err)
			}
			rt.Root.End()
			store.Add(&obs.TraceRecord{
				ID: rt.ID, Tenant: "bench", Route: rt.Root.Name, Method: "GET", Status: 200,
				Start: rt.Root.Start, Duration: rt.Root.Duration,
				Anomalies: rt.Anomalies(), Trace: &obs.Trace{Root: rt.Root},
			})
		}
	})
}

// tracedCtx builds a context carrying a fresh request trace with a
// fixed ID, the way the mcserve middleware does at the front door.
func tracedCtx(name, id string) (context.Context, *obs.RequestTrace) {
	rt := obs.StartRequest(name, id)
	return obs.WithRequest(context.Background(), rt), rt
}

func hasAnomaly(kinds []string, want string) bool {
	for _, k := range kinds {
		if k == want {
			return true
		}
	}
	return false
}

// TestTraceStaleServePropagation drives the fallback chain under
// SiteCertify fault injection with a request trace on the context: the
// failed fresh build must mark the trace uncertified, the stale-serve
// decision must appear as an anomaly plus an annotated span, and the
// whole journey — scheduler wait, build, fallback — must hang off the
// one trace ID the caller supplied.
func TestTraceStaleServePropagation(t *testing.T) {
	svc := newTestService(t, ServeOptions{
		Seed: 11, BuildCache: -1, MaxInflightBuilds: 1,
		StaleServe: WithStaleServe(0, 0),
	})
	defer svc.Kill()

	pts := servePoints(500, 29)
	if err := svc.Feed(pts[:400]...); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	drain(t, svc, 400)
	if q, err := svc.Coreset(context.Background(), 0.1, Auto); err != nil || !q.Report.Certified {
		t.Fatalf("fresh build: err=%v", err)
	}
	if err := svc.Feed(pts[400:]...); err != nil {
		t.Fatalf("Feed tail: %v", err)
	}
	drain(t, svc, 500)

	faultinject.Enable(faultinject.Config{Rate: 1, Sites: []faultinject.Site{faultinject.SiteCertify}})
	defer faultinject.Disable()

	ctx, rt := tracedCtx("GET /v1/tenants/{id}/coreset", "trace-stale-1")
	q, err := svc.Coreset(ctx, 0.1, Auto)
	if err != nil {
		t.Fatalf("Coreset with stale fallback: %v", err)
	}
	if !q.Report.Stale || q.Report.Staleness.Reason != "uncertified" {
		t.Fatalf("fallback report = %+v, want stale/uncertified", q.Report)
	}
	rt.Root.End()

	if got := rt.Anomalies(); !hasAnomaly(got, "stale_serve") || !hasAnomaly(got, "uncertified") {
		t.Errorf("anomalies = %v, want stale_serve and uncertified", got)
	}
	tr := &obs.Trace{Root: rt.Root}
	build := tr.Find("build")
	if build == nil {
		t.Fatalf("trace missing build span:\n%s", tr)
	}
	ss := tr.Find("stale-serve")
	if ss == nil {
		t.Fatalf("trace missing stale-serve span:\n%s", tr)
	}
	if got := ss.Attrs["reason"]; got != "uncertified" {
		t.Errorf("stale-serve reason attr = %q, want uncertified", got)
	}
	// The solver's own build trace is grafted under the request's build
	// span, next to the summary merge it ran on, so a single ID reaches
	// from the front door to the certifier.
	var solver, merge *obs.Span
	for _, c := range build.Children {
		switch c.Name {
		case "build":
			solver = c
		case "summary-merge":
			merge = c
		}
	}
	if solver == nil {
		t.Errorf("build span has no attached solver trace:\n%s", tr)
	}
	if merge == nil || merge.Attrs["directions"] == "" || merge.Attrs["champions"] == "" {
		t.Errorf("build span has no summary-merge child with directions and champions attrs:\n%s", tr)
	}
	if rt.ID != "trace-stale-1" {
		t.Errorf("trace ID mutated to %q", rt.ID)
	}
}

// TestTraceWatchdogKillFlightRecorder arms the build watchdog over a
// deterministic clock, hangs a build, and checks the full anomaly
// path: the killed request's trace carries the watchdog_kill anomaly,
// and the flight recorder drops a diagnostic bundle under the
// configured diag dir naming the triggering trace ID.
func TestTraceWatchdogKillFlightRecorder(t *testing.T) {
	clk := &fakeClock{t: time.Unix(7000, 0)}
	diag := t.TempDir()
	store := obs.NewTraceStore(obs.StoreOptions{Retain: 8})
	reg, err := NewTenantRegistry(RegistryOptions{
		Dim: 2, Seed: 9, CheckpointInterval: -1,
		MaxInflightBuilds: 1,
		BuildBudget:       time.Second,
		StaleServe:        WithStaleServe(0, 0),
		TraceStore:        store,
		DiagDir:           diag,
		clock:             clk.now,
	})
	if err != nil {
		t.Fatalf("NewTenantRegistry: %v", err)
	}
	defer reg.Close()
	tnt, err := reg.CreateTenant(TenantConfig{ID: "acme"})
	if err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	pts := servePoints(680, 19)
	if err := tnt.Feed(pts[:600]...); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	drain(t, tnt.Service(), 600)
	if _, err := tnt.Coreset(context.Background(), 0.1, Auto); err != nil {
		t.Fatalf("fresh build: %v", err)
	}
	if err := tnt.Feed(pts[600:]...); err != nil {
		t.Fatalf("Feed tail: %v", err)
	}
	drain(t, tnt.Service(), 680)

	svc := tnt.Service()
	entered := make(chan struct{})
	svc.buildHook = func(ctx context.Context) { close(entered); <-ctx.Done() }
	ctx, rt := tracedCtx("GET /v1/tenants/{id}/coreset", "trace-watchdog-1")
	done := make(chan error, 1)
	go func() {
		_, err := tnt.Coreset(ctx, 0.1, Auto)
		done <- err
	}()
	<-entered
	clk.advance(1500 * time.Millisecond)
	reg.sched.sweep()
	if err := <-done; err != nil {
		t.Fatalf("killed request (want stale answer): %v", err)
	}
	rt.Root.End()

	if got := rt.Anomalies(); !hasAnomaly(got, obs.FlightWatchdogKill) || !hasAnomaly(got, "stale_serve") {
		t.Errorf("anomalies = %v, want watchdog_kill and stale_serve", got)
	}
	// Under a registry the request queued through the fair-share
	// scheduler: its wait and grant are spans on the same trace.
	tr := &obs.Trace{Root: rt.Root}
	sw := tr.Find("sched-wait")
	if sw == nil {
		t.Fatalf("trace missing sched-wait span:\n%s", tr)
	}
	if sw.Attrs["grant_seq"] == "" {
		t.Error("sched-wait span missing grant_seq attr")
	}
	if tr.Find("grant-to-start") == nil {
		t.Errorf("trace missing grant-to-start span:\n%s", tr)
	}

	// One diagnostic bundle, named after the kill, naming the trace.
	files, err := filepath.Glob(filepath.Join(diag, "acme", "*-"+obs.FlightWatchdogKill+".json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("diag bundles = %v (err %v), want exactly one watchdog_kill bundle", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatalf("read bundle: %v", err)
	}
	var bundle obs.FlightBundle
	if err := json.Unmarshal(raw, &bundle); err != nil {
		t.Fatalf("bundle not valid JSON: %v", err)
	}
	if bundle.Kind != obs.FlightWatchdogKill || bundle.Tenant != "acme" {
		t.Errorf("bundle kind/tenant = %q/%q", bundle.Kind, bundle.Tenant)
	}
	if bundle.Trigger == nil || bundle.Trigger.ID != "trace-watchdog-1" {
		t.Errorf("bundle trigger = %+v, want trace-watchdog-1", bundle.Trigger)
	}
	if len(bundle.Stats) == 0 {
		t.Error("bundle carries no metrics snapshot")
	}
}

// TestTraceRestoreReplay restarts a WAL-backed registry and checks the
// boot-time restore shows up in the trace store as its own trace: a
// "restore" record whose span tree covers the snapshot load and the
// WAL replay, so recovery latency is attributable after the fact.
func TestTraceRestoreReplay(t *testing.T) {
	dir := t.TempDir()
	store := obs.NewTraceStore(obs.StoreOptions{Retain: 8})
	opts := RegistryOptions{
		Dim: 2, Seed: 5, SnapshotDir: dir, CheckpointInterval: -1,
		WAL:        &WALConfig{Sync: WALSyncEveryBatch},
		TraceStore: store,
	}
	reg, err := NewTenantRegistry(opts)
	if err != nil {
		t.Fatalf("NewTenantRegistry: %v", err)
	}
	tnt, err := reg.CreateTenant(TenantConfig{ID: "t1"})
	if err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	if err := tnt.Feed(servePoints(64, 31)...); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	drain(t, tnt.Service(), 64)
	// Kill, not Close: no final checkpoint, so the restart has a real
	// WAL tail to replay and the wal-replay span carries live counts.
	tnt.Service().Kill()

	reg2, err := NewTenantRegistry(opts)
	if err != nil {
		t.Fatalf("reopen registry: %v", err)
	}
	defer reg2.Close()
	t2, err := reg2.Tenant("t1")
	if err != nil {
		t.Fatalf("restored tenant: %v", err)
	}
	if got := t2.Service().StreamN(); got != 64 {
		t.Fatalf("restored StreamN = %d, want 64", got)
	}

	var restore *obs.TraceRecord
	for _, rec := range store.Tenant("t1", 0) {
		if rec.Route == "restore" && rec.Trace != nil && rec.Trace.Find("wal-replay") != nil {
			restore = rec
			break
		}
	}
	if restore == nil {
		t.Fatalf("no restore trace with wal-replay span in store: %d records", len(store.Tenant("t1", 0)))
	}
	if restore.ID == "" {
		t.Error("restore trace has no ID")
	}
	if restore.Trace.Find("snapshot-load") == nil {
		t.Errorf("restore trace missing snapshot-load span:\n%s", restore.Trace)
	}
	if strings.TrimSpace(restore.Trace.Find("wal-replay").Attrs["replayed_points"]) == "" {
		t.Error("wal-replay span missing replayed_points attr")
	}
}

// TestTraceWALAppendSpans: a traced ingest against a WAL-backed tenant
// records the durability work — the wal-append span with its assigned
// sequence — under the caller's trace, and the ack/append/fsync
// histograms carry the request's trace ID as their exemplar.
func TestTraceWALAppendSpans(t *testing.T) {
	dir := t.TempDir()
	reg, err := NewTenantRegistry(RegistryOptions{
		Dim: 2, Seed: 3, SnapshotDir: dir, CheckpointInterval: -1,
		WAL:        &WALConfig{Sync: WALSyncEveryBatch},
		TraceStore: obs.NewTraceStore(obs.StoreOptions{Retain: 4}),
	})
	if err != nil {
		t.Fatalf("NewTenantRegistry: %v", err)
	}
	defer reg.Close()
	tnt, err := reg.CreateTenant(TenantConfig{ID: "dur"})
	if err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}

	ctx, rt := tracedCtx("POST /v1/tenants/{id}/ingest", "trace-ingest-1")
	if err := tnt.FeedCtx(ctx, servePoints(16, 37)...); err != nil {
		t.Fatalf("FeedCtx: %v", err)
	}
	rt.Root.End()

	tr := &obs.Trace{Root: rt.Root}
	admit := tr.Find("ingest-admit")
	if admit == nil {
		t.Fatalf("trace missing ingest-admit span:\n%s", tr)
	}
	wa := tr.Find("wal-append")
	if wa == nil {
		t.Fatalf("trace missing wal-append span:\n%s", tr)
	}
	if wa.Attrs["seq"] == "" {
		t.Error("wal-append span missing seq attr")
	}

	snap := obs.Default.Snapshot()
	fam, ok := snap["mincore_ingest_ack_seconds"]
	if !ok {
		t.Fatal("mincore_ingest_ack_seconds family not exposed")
	}
	found := false
	for _, s := range fam.Series {
		if s.Exemplar != nil && s.Exemplar.TraceID == "trace-ingest-1" {
			found = true
		}
	}
	if !found {
		t.Error("ingest ack histogram carries no exemplar for trace-ingest-1")
	}
}
