package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mincore"
	"mincore/internal/obs"
)

// doJSON issues one request with an optional JSON body and decodes the
// JSON response into a generic map.
func doJSON(t *testing.T, ts *httptest.Server, method, path string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("%s %s: decode: %v", method, path, err)
	}
	return resp, m
}

// drainHTTP polls a tenant's stats until ingested reaches want.
func drainHTTP(t *testing.T, ts *httptest.Server, tenant string, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, st := doJSON(t, ts, "GET", "/v1/tenants/"+tenant+"/stats", nil)
		if n, _ := st["ingested"].(float64); n >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %s ingest stalled: %v", tenant, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// ringPoints returns n fat-ish 2D points as JSON-ready slices.
func ringPoints(n, phase int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{
			float64((i*7+phase)%19)/19 - 0.5,
			float64((i*11+phase)%23)/23 - 0.5,
		}
	}
	return pts
}

// wantEnvelope asserts the single JSON error envelope shape.
func wantEnvelope(t *testing.T, resp *http.Response, body map[string]any, status int, code string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Errorf("status = %d, want %d (body %v)", resp.StatusCode, status, body)
	}
	env, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("response has no error envelope: %v", body)
	}
	if env["code"] != code {
		t.Errorf("error code = %v, want %q", env["code"], code)
	}
	if msg, _ := env["message"].(string); msg == "" {
		t.Errorf("error envelope has empty message: %v", env)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
}

// TestTenantLifecycleHTTP walks one tenant through its whole life over
// the v1 API: create → ingest → coreset → snapshot → delete → 404, and
// checks deletion removes the tenant's on-disk footprint.
func TestTenantLifecycleHTTP(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newTestServer(t, mincore.RegistryOptions{
		Dim: 2, Eps: 0.1, Seed: 5,
		SnapshotDir:        dir,
		CheckpointInterval: time.Hour,
	})

	resp, body := doJSON(t, ts, "POST", "/v1/tenants",
		map[string]any{"id": "acme", "eps": 0.2, "seed": 3, "weight": 2})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d, body %v", resp.StatusCode, body)
	}
	if body["id"] != "acme" || body["eps"] != 0.2 || body["weight"] != 2.0 {
		t.Errorf("create response = %v", body)
	}

	_, list := doJSON(t, ts, "GET", "/v1/tenants", nil)
	if rows, _ := list["tenants"].([]any); len(rows) != 2 { // default + acme
		t.Errorf("tenant list = %v, want 2 rows", list)
	}

	resp, body = doJSON(t, ts, "POST", "/v1/tenants/acme/ingest",
		map[string]any{"points": ringPoints(48, 1)})
	if resp.StatusCode != http.StatusAccepted || body["ingested"] != 48.0 {
		t.Fatalf("ingest: status %d body %v", resp.StatusCode, body)
	}
	drainHTTP(t, ts, "acme", 48)

	resp, body = doJSON(t, ts, "GET", "/v1/tenants/acme/coreset", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coreset: status %d body %v", resp.StatusCode, body)
	}
	if body["eps"] != 0.2 { // ε omitted → the tenant's default, not a global
		t.Errorf("default-ε build used eps=%v, want tenant default 0.2", body["eps"])
	}
	if size, _ := body["size"].(float64); size < 1 {
		t.Errorf("coreset size = %v", body["size"])
	}

	resp, body = doJSON(t, ts, "POST", "/v1/tenants/acme/snapshot", nil)
	if resp.StatusCode != http.StatusOK || body["points"] != 48.0 {
		t.Fatalf("snapshot: status %d body %v", resp.StatusCode, body)
	}
	snap := filepath.Join(dir, "acme", "stream.snap")
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}

	resp, body = doJSON(t, ts, "DELETE", "/v1/tenants/acme", nil)
	if resp.StatusCode != http.StatusOK || body["deleted"] != "acme" {
		t.Fatalf("delete: status %d body %v", resp.StatusCode, body)
	}
	if _, err := os.Stat(filepath.Join(dir, "acme")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("tenant dir survives deletion: %v", err)
	}
	resp, body = doJSON(t, ts, "GET", "/v1/tenants/acme/stats", nil)
	wantEnvelope(t, resp, body, http.StatusNotFound, "tenant_not_found")
}

// TestTenantErrorEnvelope exercises the documented error-code set and
// asserts every failure renders the one envelope shape.
func TestTenantErrorEnvelope(t *testing.T) {
	ts, _ := newTestServer(t, mincore.RegistryOptions{Dim: 2, Eps: 0.1, Seed: 5})

	resp, body := doJSON(t, ts, "GET", "/v1/tenants/default/coreset", nil)
	wantEnvelope(t, resp, body, http.StatusConflict, "empty_stream")

	resp, body = doJSON(t, ts, "POST", "/v1/tenants", map[string]any{"id": "bad/id"})
	wantEnvelope(t, resp, body, http.StatusBadRequest, "bad_tenant_id")

	resp, body = doJSON(t, ts, "POST", "/v1/tenants", map[string]any{"id": "default"})
	wantEnvelope(t, resp, body, http.StatusConflict, "tenant_exists")

	resp, body = doJSON(t, ts, "GET", "/v1/tenants/ghost", nil)
	wantEnvelope(t, resp, body, http.StatusNotFound, "tenant_not_found")

	resp, body = doJSON(t, ts, "DELETE", "/v1/tenants/ghost", nil)
	wantEnvelope(t, resp, body, http.StatusNotFound, "tenant_not_found")

	resp, body = doJSON(t, ts, "POST", "/v1/tenants/default/ingest",
		map[string]any{"points": [][]float64{{1}}}) // wrong dimension
	wantEnvelope(t, resp, body, http.StatusBadRequest, "invalid_point")

	resp, body = doJSON(t, ts, "GET", "/v1/tenants/default/coreset?eps=nope", nil)
	wantEnvelope(t, resp, body, http.StatusBadRequest, "invalid_argument")

	// Quota shedding: burst of 1 point can never admit a 2-point batch.
	if resp, body = doJSON(t, ts, "POST", "/v1/tenants",
		map[string]any{"id": "metered", "quota_points_per_sec": 1}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create metered: %d %v", resp.StatusCode, body)
	}
	resp, body = doJSON(t, ts, "POST", "/v1/tenants/metered/ingest",
		map[string]any{"points": ringPoints(2, 0)})
	wantEnvelope(t, resp, body, http.StatusTooManyRequests, "quota_exceeded")
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
}

// TestCoresetRejectsBadEps is the front door's ε check: a non-finite
// value, ε ≥ 1, trailing garbage, or an unknown algorithm answers 400
// invalid_argument before any build slot is taken, while an absent or
// non-positive ε still selects the tenant's default.
func TestCoresetRejectsBadEps(t *testing.T) {
	ts, _ := newTestServer(t, mincore.RegistryOptions{Dim: 2, Eps: 0.2, Seed: 5})
	feedPoints(t, ts, "/v1/tenants/default/ingest", ringPoints(40, 1))
	drainHTTP(t, ts, defaultTenant, 40)

	builds := func() float64 {
		_, st := doJSON(t, ts, "GET", "/v1/tenants/default/stats", nil)
		return st["builds"].(float64)
	}
	for _, q := range []string{
		"eps=NaN", "eps=nan", "eps=Inf", "eps=-Inf", "eps=1", "eps=1.5",
		"eps=0.1abc", "eps=1e400", "eps=0.1&algo=bogus",
	} {
		resp, body := doJSON(t, ts, "GET", "/v1/tenants/default/coreset?"+q, nil)
		wantEnvelope(t, resp, body, http.StatusBadRequest, "invalid_argument")
	}
	if n := builds(); n != 0 {
		t.Fatalf("rejected requests counted %v builds, want 0", n)
	}
	for _, q := range []string{"", "eps=0", "eps=-0.5"} {
		resp, body := doJSON(t, ts, "GET", "/v1/tenants/default/coreset?"+q, nil)
		if resp.StatusCode != http.StatusOK || body["eps"] != 0.2 {
			t.Errorf("?%s: status %d eps %v, want 200 at the tenant default 0.2", q, resp.StatusCode, body["eps"])
		}
	}
}

// TestUnversionedRoutesGone: the pre-/v1 aliases are not routes.
func TestUnversionedRoutesGone(t *testing.T) {
	ts, _ := newTestServer(t, mincore.RegistryOptions{Dim: 2, Eps: 0.1, Seed: 5})
	for _, rt := range []struct{ method, path string }{
		{"POST", "/ingest"}, {"GET", "/coreset"}, {"GET", "/summary"},
		{"GET", "/stats"}, {"POST", "/checkpoint"},
	} {
		req, _ := http.NewRequest(rt.method, ts.URL+rt.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", rt.method, rt.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", rt.method, rt.path, resp.StatusCode)
		}
	}
}

// TestTenantMetricsLabels: the scrape carries tenant-labeled series for
// the service-boundary families of registry-hosted tenants.
func TestTenantMetricsLabels(t *testing.T) {
	ts, _ := newTestServer(t, mincore.RegistryOptions{Dim: 2, Eps: 0.1, Seed: 5})

	for _, id := range []string{"met.a", "met.b"} {
		if resp, body := doJSON(t, ts, "POST", "/v1/tenants", map[string]any{"id": id, "seed": 9}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d %v", id, resp.StatusCode, body)
		}
	}
	doJSON(t, ts, "POST", "/v1/tenants/met.a/ingest", map[string]any{"points": ringPoints(40, 3)})
	doJSON(t, ts, "POST", "/v1/tenants/met.b/ingest", map[string]any{"points": ringPoints(24, 4)})
	drainHTTP(t, ts, "met.a", 40)
	drainHTTP(t, ts, "met.b", 24)
	if resp, body := doJSON(t, ts, "GET", "/v1/tenants/met.a/coreset?eps=0.3", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("coreset met.a: %d %v", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("ParsePrometheus: %v", err)
	}

	for key, min := range map[string]float64{
		`mincore_ingest_points_total{tenant="met.a"}`:                    40,
		`mincore_ingest_points_total{tenant="met.b"}`:                    24,
		`mincore_serve_build_requests_total{tenant="met.a"}`:             1,
		`mincore_sched_grants_total{tenant="met.a"}`:                     1,
		`mincore_build_cache_misses_total{layer="serve",tenant="met.a"}`: 1,
		`mincore_tenants`: 3, // default + met.a + met.b
	} {
		if v, ok := samples[key]; !ok || v < min {
			t.Errorf("sample %s = %v (present=%v), want >= %v", key, v, ok, min)
		}
	}
	// The light tenant built nothing: its build counter exists but is 0.
	if v := samples[`mincore_serve_build_requests_total{tenant="met.b"}`]; v != 0 {
		t.Errorf(`met.b build requests = %v, want 0`, v)
	}
}

// TestV1RegistryStats: /v1/stats returns one row per tenant (with the
// per-tenant cache and checkpoint columns) plus scheduler counters.
func TestV1RegistryStats(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newTestServer(t, mincore.RegistryOptions{
		Dim: 2, Eps: 0.1, Seed: 5,
		SnapshotDir:        dir,
		CheckpointInterval: time.Hour,
	})
	for _, id := range []string{"rows-a", "rows-b"} {
		if resp, body := doJSON(t, ts, "POST", "/v1/tenants", map[string]any{"id": id, "seed": 11}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d %v", id, resp.StatusCode, body)
		}
	}
	doJSON(t, ts, "POST", "/v1/tenants/rows-a/ingest", map[string]any{"points": ringPoints(32, 5)})
	drainHTTP(t, ts, "rows-a", 32)
	for i := 0; i < 2; i++ { // second request is a cache hit
		if resp, body := doJSON(t, ts, "GET", "/v1/tenants/rows-a/coreset?eps=0.3", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("coreset rows-a: %d %v", resp.StatusCode, body)
		}
	}
	doJSON(t, ts, "POST", "/v1/tenants/rows-a/snapshot", nil)

	resp, body := doJSON(t, ts, "GET", "/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats: %d %v", resp.StatusCode, body)
	}
	if body["tenant_count"] != 3.0 {
		t.Errorf("tenant_count = %v, want 3", body["tenant_count"])
	}
	rows, _ := body["tenants"].(map[string]any)
	a, _ := rows["rows-a"].(map[string]any)
	b, _ := rows["rows-b"].(map[string]any)
	if a == nil || b == nil {
		t.Fatalf("missing per-tenant rows: %v", rows)
	}
	if a["cache_hits"] != 1.0 || a["cache_misses"] != 1.0 {
		t.Errorf("rows-a cache counters = %v/%v, want 1/1", a["cache_hits"], a["cache_misses"])
	}
	if b["cache_hits"] != 0.0 || b["cache_misses"] != 0.0 {
		t.Errorf("rows-b cache counters leaked: %v/%v", b["cache_hits"], b["cache_misses"])
	}
	if _, ok := a["checkpoint_lag_seconds"]; !ok {
		t.Error("rows-a missing checkpoint_lag_seconds after snapshot")
	}
	if _, ok := b["checkpoint_lag_seconds"]; ok {
		t.Error("rows-b has checkpoint lag without any checkpoint")
	}
	sched, _ := body["scheduler"].(map[string]any)
	if sched == nil {
		t.Fatalf("missing scheduler block: %v", body)
	}
	grants, _ := sched["tenant_grants"].(map[string]any)
	if g, _ := grants["rows-a"].(float64); g < 1 {
		t.Errorf("scheduler grants for rows-a = %v, want >= 1", grants)
	}
	if fmt.Sprint(sched["inflight"]) != "0" {
		t.Errorf("scheduler inflight = %v, want 0", sched["inflight"])
	}
}
