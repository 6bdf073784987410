package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mincore"
	"mincore/internal/obs"
)

// testMaxBody is the ingest body cap the test mux runs with: small
// enough for the 413 table test to hit without building huge payloads,
// large enough that every other test's batches pass untouched.
const testMaxBody = 256 << 10

// newTestServer builds the real route table over a live tenant
// registry with its default tenant, exactly as main() does minus the
// listener and signal handling.
func newTestServer(t *testing.T, opts mincore.RegistryOptions) (*httptest.Server, *mincore.TenantRegistry) {
	t.Helper()
	obs.Enable()
	if opts.CheckpointInterval == 0 {
		opts.CheckpointInterval = -1
	}
	reg, err := mincore.NewTenantRegistry(opts)
	if err != nil {
		t.Fatalf("NewTenantRegistry: %v", err)
	}
	if _, err := reg.Tenant(defaultTenant); err != nil {
		if _, err := reg.CreateTenant(mincore.TenantConfig{ID: defaultTenant}); err != nil {
			t.Fatalf("create default tenant: %v", err)
		}
	}
	t.Cleanup(func() { reg.Close() })
	ts := httptest.NewServer(newMux(reg, obs.Discard(), testMaxBody, opts.TraceStore))
	t.Cleanup(ts.Close)
	return ts, reg
}

func feedPoints(t *testing.T, ts *httptest.Server, path string, pts [][]float64) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"points": pts})
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, mincore.RegistryOptions{Dim: 2, Eps: 0.1, Seed: 7})

	pts := make([][]float64, 0, 64)
	for i := 0; i < 64; i++ {
		pts = append(pts, []float64{float64(i%17) / 17, float64((i*7)%13) / 13})
	}
	feedPoints(t, ts, "/v1/tenants/default/ingest", pts)
	drainHTTP(t, ts, defaultTenant, float64(len(pts)))

	// A build exercises the solver metric families before the scrape;
	// repeating it hits the served-coreset cache, so the cache families
	// carry non-zero samples too.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v1/tenants/default/coreset?eps=0.2")
		if err != nil {
			t.Fatalf("GET coreset: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET coreset: status %d", resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain prefix", ct)
	}
	samples, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("ParsePrometheus: %v", err)
	}
	fams := map[string]bool{}
	for k := range samples {
		name, _, _ := strings.Cut(k, "{")
		name = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if strings.HasPrefix(name, "mincore_") {
			fams[name] = true
		}
	}
	if len(fams) < 10 {
		t.Errorf("scrape exposes %d mincore_ families, want >= 10: %v", len(fams), fams)
	}
	for _, want := range []string{"mincore_ingest_points_total", "mincore_serve_build_requests_total"} {
		found := false
		for k := range samples {
			if strings.HasPrefix(k, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("scrape missing %s", want)
		}
	}

	// The build-cache families must be present per layer; the registry
	// routes everything through the default tenant, so the serve layer's
	// series carry the tenant label while the coreseter layer stays
	// process-global.
	for _, key := range []string{
		`mincore_build_cache_hits_total{layer="coreseter"}`,
		`mincore_build_cache_misses_total{layer="coreseter"}`,
		`mincore_build_cache_evictions_total{layer="serve",tenant="default"}`,
	} {
		if _, ok := samples[key]; !ok {
			t.Errorf("scrape missing sample %s", key)
		}
	}
	if v := samples[`mincore_build_cache_misses_total{layer="serve",tenant="default"}`]; v < 1 {
		t.Errorf(`serve cache misses = %v, want >= 1`, v)
	}
	if v := samples[`mincore_build_cache_hits_total{layer="serve",tenant="default"}`]; v < 1 {
		t.Errorf(`serve cache hits = %v, want >= 1`, v)
	}

	// The tenant's stats mirror the serve-layer cache counters.
	resp, err = http.Get(ts.URL + "/v1/tenants/default/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		CacheHits   int64 `json:"cache_hits"`
		CacheMisses int64 `json:"cache_misses"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Errorf("stats cache counters: hits=%d misses=%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
}

func TestServeJSONContentType(t *testing.T) {
	ts, _ := newTestServer(t, mincore.RegistryOptions{Dim: 2, Eps: 0.1, Seed: 7})
	feedPoints(t, ts, "/v1/tenants/default/ingest", [][]float64{{0.2, 0.9}, {0.9, 0.2}, {0.6, 0.6}})
	drainHTTP(t, ts, defaultTenant, 3)

	for _, tc := range []struct {
		method, path string
		wantStatus   int
	}{
		{"GET", "/v1/tenants/default/stats", http.StatusOK},
		{"GET", "/v1/tenants/default/summary", http.StatusOK},
		{"GET", "/v1/tenants/default/coreset?eps=0.3", http.StatusOK},
		{"POST", "/v1/tenants/default/snapshot", http.StatusOK},
		{"GET", "/v1/tenants/default/coreset?eps=nope", http.StatusBadRequest}, // error path too
		{"GET", "/v1/tenants", http.StatusOK},
		{"GET", "/v1/stats", http.StatusOK},
		{"GET", "/v1/tenants/nope/stats", http.StatusNotFound},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type = %q, want application/json", tc.method, tc.path, ct)
		}
	}
}

func TestServeStatsCheckpointLag(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newTestServer(t, mincore.RegistryOptions{
		Dim: 2, Eps: 0.1, Seed: 7,
		SnapshotDir:        dir,
		CheckpointInterval: time.Hour, // only explicit checkpoints
	})
	feedPoints(t, ts, "/v1/tenants/default/ingest", [][]float64{{0.1, 0.8}, {0.8, 0.1}})

	get := func() map[string]any {
		resp, err := http.Get(ts.URL + "/v1/tenants/default/stats")
		if err != nil {
			t.Fatalf("GET stats: %v", err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("decode stats: %v", err)
		}
		return m
	}

	if m := get(); m["checkpoint_lag_seconds"] != nil {
		t.Errorf("checkpoint_lag_seconds present before any checkpoint: %v", m)
	}
	resp, err := http.Post(ts.URL+"/v1/tenants/default/snapshot", "application/json", nil)
	if err != nil {
		t.Fatalf("POST snapshot: %v", err)
	}
	resp.Body.Close()
	m := get()
	lag, ok := m["checkpoint_lag_seconds"].(float64)
	if !ok {
		t.Fatalf("checkpoint_lag_seconds missing after checkpoint: %v", m)
	}
	if lag < 0 || lag > 60 {
		t.Errorf("checkpoint_lag_seconds = %v, want small non-negative", lag)
	}
}

func TestServePprofAndExpvar(t *testing.T) {
	ts, _ := newTestServer(t, mincore.RegistryOptions{Dim: 2, Eps: 0.1, Seed: 7})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/vars"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestServeCoresetReportHasTrace(t *testing.T) {
	ts, _ := newTestServer(t, mincore.RegistryOptions{Dim: 2, Eps: 0.1, Seed: 7})
	pts := make([][]float64, 0, 32)
	for i := 0; i < 32; i++ {
		pts = append(pts, []float64{float64(i) / 32, float64((i*11)%32) / 32})
	}
	feedPoints(t, ts, "/v1/tenants/default/ingest", pts)
	drainHTTP(t, ts, defaultTenant, float64(len(pts)))

	resp, err := http.Get(ts.URL + "/v1/tenants/default/coreset?eps=0.2")
	if err != nil {
		t.Fatalf("GET coreset: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET coreset: status %d", resp.StatusCode)
	}
	var out struct {
		Report struct {
			Trace *struct {
				Root *struct {
					Name     string            `json:"Name"`
					Children []json.RawMessage `json:"Children"`
				} `json:"Root"`
			} `json:"trace"`
		} `json:"report"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode coreset: %v", err)
	}
	tr := out.Report.Trace
	if tr == nil || tr.Root == nil {
		t.Fatal("build report has no trace")
	}
	if tr.Root.Name != "build" {
		t.Errorf("trace root = %q, want \"build\"", tr.Root.Name)
	}
	if len(tr.Root.Children) == 0 {
		t.Error("trace root has no child spans")
	}
}

func TestErrorCodeMapping(t *testing.T) {
	for _, tc := range []struct {
		err      error
		want     int
		wantCode string
	}{
		{mincore.ErrOverloaded, http.StatusServiceUnavailable, "overloaded"},
		{mincore.ErrInvalidPoint, http.StatusBadRequest, "invalid_point"},
		{mincore.ErrQuotaExceeded, http.StatusTooManyRequests, "quota_exceeded"},
		{mincore.ErrTenantNotFound, http.StatusNotFound, "tenant_not_found"},
		{mincore.ErrTenantExists, http.StatusConflict, "tenant_exists"},
		{mincore.ErrBadTenantID, http.StatusBadRequest, "bad_tenant_id"},
		{mincore.ErrEmptyInput, http.StatusConflict, "empty_stream"},
		{mincore.ErrTenantQuarantined, http.StatusServiceUnavailable, "tenant_quarantined"},
		{mincore.ErrWatchdogKilled, http.StatusServiceUnavailable, "watchdog_killed"},
		{fmt.Errorf("wrapped: %w", mincore.ErrServiceClosed), http.StatusServiceUnavailable, "service_closed"},
		{fmt.Errorf("boom"), http.StatusInternalServerError, "internal"},
	} {
		status, code := errorCode(tc.err)
		if status != tc.want || code != tc.wantCode {
			t.Errorf("errorCode(%v) = (%d, %q), want (%d, %q)", tc.err, status, code, tc.want, tc.wantCode)
		}
	}
}
