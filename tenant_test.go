package mincore

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"mincore/internal/obs"
)

func newTestRegistry(t *testing.T, opts RegistryOptions) *TenantRegistry {
	t.Helper()
	if opts.Dim == 0 {
		opts.Dim = 2
	}
	if opts.CheckpointInterval == 0 {
		opts.CheckpointInterval = -1 // manual checkpoints unless a test opts in
	}
	r, err := NewTenantRegistry(opts)
	if err != nil {
		t.Fatalf("NewTenantRegistry: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestValidTenantID(t *testing.T) {
	for id, want := range map[string]bool{
		"a":                      true,
		"default":                true,
		"team-7.эh":              false, // non-ASCII
		"team-7.v2_x":            true,
		"9lives":                 true,
		"":                       false,
		"-lead":                  false, // separator first
		".hidden":                false,
		"has space":              false,
		"has/slash":              false,
		"..":                     false,
		string(make([]byte, 65)): false, // too long (and NUL bytes)
	} {
		if got := ValidTenantID(id); got != want {
			t.Errorf("ValidTenantID(%q) = %v, want %v", id, got, want)
		}
	}
}

func TestTenantRegistryLifecycle(t *testing.T) {
	r := newTestRegistry(t, RegistryOptions{Dim: 2, Eps: 0.1, Seed: 1})

	a, err := r.CreateTenant(TenantConfig{ID: "acme", Eps: 0.2, Weight: 2})
	if err != nil {
		t.Fatalf("CreateTenant(acme): %v", err)
	}
	if _, err := r.CreateTenant(TenantConfig{ID: "zeta"}); err != nil {
		t.Fatalf("CreateTenant(zeta): %v", err)
	}
	if _, err := r.CreateTenant(TenantConfig{ID: "acme"}); !errors.Is(err, ErrTenantExists) {
		t.Errorf("duplicate create = %v, want ErrTenantExists", err)
	}
	if _, err := r.CreateTenant(TenantConfig{ID: "bad/id"}); !errors.Is(err, ErrBadTenantID) {
		t.Errorf("bad id create = %v, want ErrBadTenantID", err)
	}

	// Resolution: explicit fields kept, zeros inherit registry defaults.
	if cfg := a.Config(); cfg.Eps != 0.2 || cfg.Weight != 2 || cfg.Dim != 2 || cfg.Alpha != 0.25 {
		t.Errorf("resolved config = %+v", cfg)
	}
	list := r.ListTenants()
	if len(list) != 2 || list[0].ID != "acme" || list[1].ID != "zeta" {
		t.Fatalf("ListTenants = %+v, want [acme zeta]", list)
	}

	if err := a.Feed(servePoints(50, 3)...); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	drain(t, a.Service(), 50)

	st := r.Stats()
	if len(st.Tenants) != 2 || st.Tenants[0].Tenant != "acme" || st.Tenants[1].Tenant != "zeta" {
		t.Fatalf("registry stats rows = %+v", st.Tenants)
	}
	if st.Tenants[0].Ingested != 50 || st.Tenants[1].Ingested != 0 {
		t.Errorf("per-tenant ingest counters leaked across tenants: %+v", st.Tenants)
	}

	if err := r.DeleteTenant("acme"); err != nil {
		t.Fatalf("DeleteTenant: %v", err)
	}
	if _, err := r.Tenant("acme"); !errors.Is(err, ErrTenantNotFound) {
		t.Errorf("Tenant(acme) after delete = %v, want ErrTenantNotFound", err)
	}
	if err := r.DeleteTenant("acme"); !errors.Is(err, ErrTenantNotFound) {
		t.Errorf("double delete = %v, want ErrTenantNotFound", err)
	}
	if err := a.Feed(Point{0.5, 0.5}); !errors.Is(err, ErrServiceClosed) {
		t.Errorf("Feed on deleted tenant = %v, want ErrServiceClosed", err)
	}
	if _, err := a.Coreset(context.Background(), 0, Auto); !errors.Is(err, ErrServiceClosed) {
		t.Errorf("Coreset on deleted tenant = %v, want ErrServiceClosed", err)
	}

	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := r.CreateTenant(TenantConfig{ID: "late"}); !errors.Is(err, ErrRegistryClosed) {
		t.Errorf("create after close = %v, want ErrRegistryClosed", err)
	}
}

// TestTenantIsolationBitwise: a registry-hosted tenant must produce the
// bitwise-same coreset as a standalone single-tenant service with the
// same parameters and stream — multi-tenancy adds scheduling and
// accounting, never data coupling — and two tenants with different
// seeds/streams produce unrelated coresets.
func TestTenantIsolationBitwise(t *testing.T) {
	r := newTestRegistry(t, RegistryOptions{Dim: 2, MaxInflightBuilds: 1})
	a, err := r.CreateTenant(TenantConfig{ID: "a", Eps: 0.1, Seed: 11})
	if err != nil {
		t.Fatalf("CreateTenant(a): %v", err)
	}
	b, err := r.CreateTenant(TenantConfig{ID: "b", Eps: 0.1, Seed: 22})
	if err != nil {
		t.Fatalf("CreateTenant(b): %v", err)
	}

	ptsA, ptsB := servePoints(600, 101), servePoints(600, 202)
	if err := a.Feed(ptsA...); err != nil {
		t.Fatalf("Feed(a): %v", err)
	}
	if err := b.Feed(ptsB...); err != nil {
		t.Fatalf("Feed(b): %v", err)
	}
	drain(t, a.Service(), 600)
	drain(t, b.Service(), 600)

	qa, err := a.Coreset(context.Background(), 0.1, Auto)
	if err != nil {
		t.Fatalf("Coreset(a): %v", err)
	}
	qb, err := b.Coreset(context.Background(), 0.1, Auto)
	if err != nil {
		t.Fatalf("Coreset(b): %v", err)
	}

	// Standalone twin of tenant a: same dim/ε/α/seed, same stream, no
	// registry, no scheduler.
	twin := newTestService(t, ServeOptions{Dim: 2, Eps: 0.1, Alpha: 0.25, Seed: 11})
	defer twin.Kill()
	if err := twin.Feed(ptsA...); err != nil {
		t.Fatalf("Feed(twin): %v", err)
	}
	drain(t, twin, 600)
	qt, err := twin.Coreset(context.Background(), 0.1, Auto)
	if err != nil {
		t.Fatalf("Coreset(twin): %v", err)
	}

	if !reflect.DeepEqual(qa.Points, qt.Points) || !reflect.DeepEqual(qa.Indices, qt.Indices) {
		t.Errorf("tenant coreset diverges from standalone twin: %d vs %d members", len(qa.Points), len(qt.Points))
	}
	if reflect.DeepEqual(qa.Points, qb.Points) {
		t.Error("independent tenants produced identical coresets")
	}
}

// TestTenantDefaultEps: a coreset request without an ε uses the
// tenant's configured default.
func TestTenantDefaultEps(t *testing.T) {
	r := newTestRegistry(t, RegistryOptions{Dim: 2, Eps: 0.05})
	tn, err := r.CreateTenant(TenantConfig{ID: "wide", Eps: 0.3, Seed: 5})
	if err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	if err := tn.Feed(servePoints(200, 7)...); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	drain(t, tn.Service(), 200)
	q, err := tn.Coreset(context.Background(), 0, Auto)
	if err != nil {
		t.Fatalf("Coreset: %v", err)
	}
	if q.Eps != 0.3 {
		t.Errorf("default-ε build used eps=%v, want tenant default 0.3", q.Eps)
	}
}

// TestTenantQuotaDeterministic drives the ingest quota with an injected
// clock: shedding and refill depend only on the fake time.
func TestTenantQuotaDeterministic(t *testing.T) {
	now := time.Unix(1000, 0)
	r := newTestRegistry(t, RegistryOptions{
		Dim:   2,
		clock: func() time.Time { return now },
	})
	tn, err := r.CreateTenant(TenantConfig{ID: "metered", QuotaPointsPerSec: 10, QuotaBurst: 10, Seed: 1})
	if err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}

	if err := tn.Feed(servePoints(10, 1)...); err != nil {
		t.Fatalf("Feed within burst: %v", err)
	}
	if err := tn.Feed(Point{0.1, 0.2}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("Feed past burst = %v, want ErrQuotaExceeded", err)
	}

	now = now.Add(500 * time.Millisecond) // refills 5 tokens
	if err := tn.Feed(servePoints(5, 2)...); err != nil {
		t.Fatalf("Feed after partial refill: %v", err)
	}
	if err := tn.Feed(Point{0.3, 0.4}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("Feed past refill = %v, want ErrQuotaExceeded", err)
	}

	drain(t, tn.Service(), 15)
	st := tn.Stats()
	if st.Ingested != 15 || st.QuotaShed != 2 {
		t.Errorf("stats after quota run: ingested=%d quota_shed=%d, want 15/2", st.Ingested, st.QuotaShed)
	}
	if st.Tenant != "metered" {
		t.Errorf("stats tenant = %q, want metered", st.Tenant)
	}
}

// TestTenantDurabilityAndDelete: tenant state is namespaced under
// <SnapshotDir>/<id>/ and deletion removes the whole directory.
func TestTenantDurabilityAndDelete(t *testing.T) {
	dir := t.TempDir()
	r := newTestRegistry(t, RegistryOptions{Dim: 2, SnapshotDir: dir})
	tn, err := r.CreateTenant(TenantConfig{ID: "durable", Seed: 9})
	if err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	tdir := filepath.Join(dir, "durable")
	if _, err := os.Stat(filepath.Join(tdir, "tenant.json")); err != nil {
		t.Fatalf("manifest missing: %v", err)
	}

	if err := tn.Feed(servePoints(80, 4)...); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	drain(t, tn.Service(), 80)
	if err := tn.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := os.Stat(filepath.Join(tdir, "stream.snap")); err != nil {
		t.Fatalf("snapshot missing after checkpoint: %v", err)
	}

	if err := r.DeleteTenant("durable"); err != nil {
		t.Fatalf("DeleteTenant: %v", err)
	}
	if _, err := os.Stat(tdir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("tenant dir survives deletion: %v", err)
	}
}

// TestTenantRegistryRestore: a restarted registry restores every
// manifested tenant with its configuration and stream, alpha from a
// manifest that also carries a worker count, as older mcserve builds
// wrote one by default: the key is ignored.
func TestTenantRegistryRestore(t *testing.T) {
	dir := t.TempDir()
	opts := RegistryOptions{Dim: 2, SnapshotDir: dir, CheckpointInterval: -1}

	r1, err := NewTenantRegistry(opts)
	if err != nil {
		t.Fatalf("NewTenantRegistry: %v", err)
	}
	alpha, err := r1.CreateTenant(TenantConfig{ID: "alpha", Eps: 0.1, Seed: 3, Weight: 2})
	if err != nil {
		t.Fatalf("CreateTenant(alpha): %v", err)
	}
	beta, err := r1.CreateTenant(TenantConfig{ID: "beta", Eps: 0.2, Seed: 4})
	if err != nil {
		t.Fatalf("CreateTenant(beta): %v", err)
	}
	if err := alpha.Feed(servePoints(300, 31)...); err != nil {
		t.Fatalf("Feed(alpha): %v", err)
	}
	if err := beta.Feed(servePoints(200, 41)...); err != nil {
		t.Fatalf("Feed(beta): %v", err)
	}
	drain(t, alpha.Service(), 300)
	drain(t, beta.Service(), 200)
	if err := r1.Close(); err != nil { // graceful: final checkpoints
		t.Fatalf("Close: %v", err)
	}
	manifest := filepath.Join(dir, "alpha", manifestName)
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["ingest_workers"] = 2
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r2, err := NewTenantRegistry(opts)
	if err != nil {
		t.Fatalf("restore registry: %v", err)
	}
	defer r2.Close()
	list := r2.ListTenants()
	if len(list) != 2 || list[0].ID != "alpha" || list[1].ID != "beta" {
		t.Fatalf("restored tenants = %+v", list)
	}
	if list[0].Eps != 0.1 || list[0].Weight != 2 || list[1].Eps != 0.2 {
		t.Errorf("restored configs lost fields: %+v", list)
	}
	if list[0].StreamN != 300 || list[1].StreamN != 200 {
		t.Errorf("restored streams = %d/%d points, want 300/200", list[0].StreamN, list[1].StreamN)
	}

	ra, err := r2.Tenant("alpha")
	if err != nil {
		t.Fatalf("Tenant(alpha): %v", err)
	}
	q, err := ra.Coreset(context.Background(), 0, Auto)
	if err != nil {
		t.Fatalf("Coreset on restored tenant: %v", err)
	}
	if q.Size() == 0 || !q.Report.Certified {
		t.Errorf("restored tenant build: size=%d certified=%v", q.Size(), q.Report.Certified)
	}
}

// TestTenantConcurrentBuildsFairShare: with one global build slot, a
// tenant running an ε ladder and a tenant asking for one build all
// complete; the shared scheduler accounts grants per tenant.
func TestTenantConcurrentBuildsFairShare(t *testing.T) {
	r := newTestRegistry(t, RegistryOptions{Dim: 2, MaxInflightBuilds: 1})
	big, err := r.CreateTenant(TenantConfig{ID: "big", Seed: 6})
	if err != nil {
		t.Fatalf("CreateTenant(big): %v", err)
	}
	small, err := r.CreateTenant(TenantConfig{ID: "small", Seed: 7})
	if err != nil {
		t.Fatalf("CreateTenant(small): %v", err)
	}
	if err := big.Feed(servePoints(400, 61)...); err != nil {
		t.Fatalf("Feed(big): %v", err)
	}
	if err := small.Feed(servePoints(400, 71)...); err != nil {
		t.Fatalf("Feed(small): %v", err)
	}
	drain(t, big.Service(), 400)
	drain(t, small.Service(), 400)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for _, eps := range []float64{0.3, 0.25, 0.2, 0.15} { // big's sweep
		wg.Add(1)
		go func(e float64) {
			defer wg.Done()
			if _, err := big.Coreset(context.Background(), e, Auto); err != nil {
				errs <- err
			}
		}(eps)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := small.Coreset(context.Background(), 0.3, Auto); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent build: %v", err)
	}

	st := r.Stats()
	if st.Scheduler.TenantGrants["big"] != 4 || st.Scheduler.TenantGrants["small"] != 1 {
		t.Errorf("scheduler grants = %+v, want big=4 small=1", st.Scheduler.TenantGrants)
	}
	if st.Scheduler.Inflight != 0 {
		t.Errorf("scheduler inflight = %d after all builds, want 0", st.Scheduler.Inflight)
	}
}

// TestTenantWeightClamped: weights arriving through TenantConfig (the
// unauthenticated POST /v1/tenants path) are sanitized by resolve — a
// pathologically small weight is floored rather than allowed to stall
// the shared dispatch loop, and NaN falls back to the default.
func TestTenantWeightClamped(t *testing.T) {
	r := newTestRegistry(t, RegistryOptions{Dim: 2})
	cases := []struct {
		id   string
		in   float64
		want float64
	}{
		{"tiny", 1e-12, 0.01},
		{"nan", math.NaN(), 1},
		{"huge", 1e9, 100},
		{"normal", 2, 2},
	}
	for _, c := range cases {
		tn, err := r.CreateTenant(TenantConfig{ID: c.id, Weight: c.in})
		if err != nil {
			t.Fatalf("CreateTenant(%s): %v", c.id, err)
		}
		if got := tn.Config().Weight; got != c.want {
			t.Errorf("tenant %s: resolved weight = %v, want %v", c.id, got, c.want)
		}
	}
	// A clamped-weight tenant's builds still complete promptly.
	tn, _ := r.Tenant("tiny")
	if err := tn.Feed(servePoints(50, 3)...); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	drain(t, tn.Service(), 50)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := tn.Coreset(ctx, 0.1, Auto); err != nil {
		t.Fatalf("Coreset under clamped weight: %v", err)
	}
}

// TestTenantDeleteCreateRace: DeleteTenant keeps the id reserved until
// scheduler eviction and disk cleanup finish, so a concurrent re-create
// of the same id either waits its turn (ErrTenantExists while the
// delete is in flight) or lands after cleanup — a successful re-create
// can never have its fresh directory removed by the stale delete.
func TestTenantDeleteCreateRace(t *testing.T) {
	dir := t.TempDir()
	r := newTestRegistry(t, RegistryOptions{Dim: 2, SnapshotDir: dir})
	const id = "phoenix"
	for i := 0; i < 25; i++ {
		if _, err := r.CreateTenant(TenantConfig{ID: id}); err != nil {
			t.Fatalf("iter %d: CreateTenant: %v", i, err)
		}
		done := make(chan error, 1)
		go func() { done <- r.DeleteTenant(id) }()
		// Race a re-create against the delete, retrying while the id is
		// still reserved by the in-flight teardown.
		for {
			_, err := r.CreateTenant(TenantConfig{ID: id})
			if err == nil {
				break
			}
			if !errors.Is(err, ErrTenantExists) {
				t.Fatalf("iter %d: racing CreateTenant: %v", i, err)
			}
		}
		if err := <-done; err != nil {
			t.Fatalf("iter %d: DeleteTenant: %v", i, err)
		}
		// The re-created tenant must be live and durable: its manifest
		// (written before the delete completed or after) must survive.
		if _, err := r.Tenant(id); err != nil {
			t.Fatalf("iter %d: re-created tenant gone: %v", i, err)
		}
		if _, err := os.Stat(filepath.Join(dir, id, manifestName)); err != nil {
			t.Fatalf("iter %d: re-created tenant lost its manifest: %v", i, err)
		}
		if err := r.DeleteTenant(id); err != nil {
			t.Fatalf("iter %d: cleanup DeleteTenant: %v", i, err)
		}
	}
}

// TestServiceMetricSeries pins the service-boundary series of both kinds
// of service: a standalone service exports them unlabeled, a registry
// tenant under tenant=<id> (the serve cache also under layer="serve").
// perfbench/layers reads the tenant-labeled series.
func TestServiceMetricSeries(t *testing.T) {
	svc := newTestService(t, ServeOptions{})
	defer svc.Kill()
	r := newTestRegistry(t, RegistryOptions{})
	if _, err := r.CreateTenant(TenantConfig{ID: "series"}); err != nil {
		t.Fatal(err)
	}
	flat := obs.Default.Flatten()
	var want []string
	for _, lbl := range []string{"", `{tenant="series"}`} {
		for _, name := range []string{
			"mincore_ingest_batches_total", "mincore_ingest_points_total",
			"mincore_ingest_shed_points_total", "mincore_ingest_invalid_points_total",
			"mincore_ingest_quota_shed_points_total", "mincore_ingest_queue_depth",
			"mincore_worker_panics_total", "mincore_checkpoint_saves_total",
			"mincore_checkpoint_failures_total", "mincore_serve_build_requests_total",
			"mincore_serve_builds_shed_total", "mincore_sched_grants_total",
			"mincore_stale_serves_total", "mincore_wal_appends_total",
			"mincore_wal_appended_points_total", "mincore_wal_append_failures_total",
			"mincore_wal_fsyncs_total", "mincore_wal_replayed_points_total",
			"mincore_wal_truncations_total", "mincore_wal_segments", "mincore_wal_bytes",
		} {
			want = append(want, name+lbl)
		}
		for _, name := range []string{
			"mincore_checkpoint_duration_seconds", "mincore_serve_build_duration_seconds",
			"mincore_sched_queue_wait_seconds", "mincore_ingest_ack_seconds",
			"mincore_wal_append_seconds", "mincore_wal_fsync_seconds",
		} {
			want = append(want, name+"_count"+lbl)
		}
	}
	for _, lbl := range []string{`{layer="serve"}`, `{layer="serve",tenant="series"}`} {
		for _, name := range []string{
			"mincore_build_cache_hits_total", "mincore_build_cache_misses_total",
			"mincore_build_cache_evictions_total",
		} {
			want = append(want, name+lbl)
		}
	}
	for _, key := range want {
		if _, ok := flat[key]; !ok {
			t.Errorf("series %s not registered", key)
		}
	}
}
