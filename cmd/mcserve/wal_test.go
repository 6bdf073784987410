package main

// Tests for the durable-ingest surface of mcserve: the -wal-sync flag
// grammar, the acknowledged==durable graceful shutdown, the 503
// storage_unavailable contract when the log refuses a batch, and the
// mincore_wal_* metric families on the scrape.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"mincore"
	"mincore/internal/faultinject"
	"mincore/internal/obs"
)

func TestParseWALConfig(t *testing.T) {
	cases := []struct {
		sync    string
		mode    mincore.WALSyncMode
		nilCfg  bool
		wantErr bool
	}{
		{sync: "none", nilCfg: true},
		{sync: "batch", mode: mincore.WALSyncEveryBatch},
		{sync: "", mode: mincore.WALSyncEveryBatch},
		{sync: "off", mode: mincore.WALSyncOff},
		{sync: "25ms", mode: mincore.WALSyncInterval},
		{sync: "2s", mode: mincore.WALSyncInterval},
		{sync: "always", wantErr: true},
		{sync: "-5ms", wantErr: true},
		{sync: "0s", wantErr: true},
	}
	for _, c := range cases {
		cfg, err := parseWALConfig(c.sync, 1<<20)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseWALConfig(%q): want error, got %+v", c.sync, cfg)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseWALConfig(%q): %v", c.sync, err)
			continue
		}
		if c.nilCfg {
			if cfg != nil {
				t.Errorf("parseWALConfig(%q) = %+v, want nil (WAL disabled)", c.sync, cfg)
			}
			continue
		}
		if cfg == nil || cfg.Sync != c.mode {
			t.Errorf("parseWALConfig(%q) = %+v, want mode %v", c.sync, cfg, c.mode)
		}
		if cfg != nil && cfg.SegmentBytes != 1<<20 {
			t.Errorf("parseWALConfig(%q) segment bytes = %d, want 1<<20", c.sync, cfg.SegmentBytes)
		}
	}
	if cfg, err := parseWALConfig("25ms", 0); err != nil || cfg.SyncInterval != 25*time.Millisecond {
		t.Errorf("group-commit window not threaded: %+v, %v", cfg, err)
	}
}

// TestGracefulShutdownDrains drives the full shutdown sequence through
// the injectable signal channel: the listener stops admitting, the
// registry writes every tenant's final checkpoint and syncs its WAL,
// and a restarted registry recovers the exact acknowledged stream.
func TestGracefulShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	opts := mincore.RegistryOptions{
		Dim: 2, Eps: 0.1, Seed: 7,
		SnapshotDir: dir,
		WAL:         &mincore.WALConfig{Sync: mincore.WALSyncEveryBatch},
	}
	ts, reg := newTestServer(t, opts)

	pts := make([][]float64, 0, 120)
	for i := 0; i < 120; i++ {
		pts = append(pts, []float64{float64(i%17) / 17, float64((i*7)%13) / 13})
	}
	feedPoints(t, ts, "/v1/tenants/default/ingest", pts)

	sig := make(chan os.Signal, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		gracefulShutdown(sig, ts.Config, reg, obs.Discard(), 10*time.Second)
	}()
	sig <- syscall.SIGTERM
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatalf("graceful shutdown did not complete")
	}

	// The registry refuses new work after the drain.
	if _, err := reg.CreateTenant(mincore.TenantConfig{ID: "late"}); err == nil {
		t.Fatalf("registry accepted work after graceful shutdown")
	}

	// A restart recovers every acknowledged point — the final checkpoint
	// covers the stream, so nothing needs the log (replayed == 0).
	reg2, err := mincore.NewTenantRegistry(opts)
	if err != nil {
		t.Fatalf("restart after shutdown: %v", err)
	}
	defer reg2.Close()
	tnt, err := reg2.Tenant(defaultTenant)
	if err != nil {
		t.Fatalf("default tenant after restart: %v", err)
	}
	if got := tnt.Service().RestoredPoints(); got != len(pts) {
		t.Fatalf("restored %d points after graceful shutdown, want %d", got, len(pts))
	}
	if got := tnt.Service().ReplayedPoints(); got != 0 {
		t.Fatalf("replayed %d points, want 0 (final checkpoint covers the stream)", got)
	}
}

// TestIngestStorageUnavailableHTTP pins the HTTP face of a failing log:
// 503 with the storage_unavailable envelope and Retry-After, a degraded
// /readyz with the storage_unavailable reason, and full recovery (plus
// the WAL columns in the stats row) after one successful write.
func TestIngestStorageUnavailableHTTP(t *testing.T) {
	defer faultinject.Disable()
	ts, _ := newTestServer(t, mincore.RegistryOptions{
		Dim: 2, Eps: 0.1, Seed: 7,
		SnapshotDir: t.TempDir(),
		WAL:         &mincore.WALConfig{Sync: mincore.WALSyncEveryBatch},
	})
	body := func() *strings.Reader {
		return strings.NewReader(`{"points": [[0.5, 0.5], [0.25, 0.75]]}`)
	}

	faultinject.Enable(faultinject.Config{Rate: 1, Times: 1,
		Sites: []faultinject.Site{faultinject.SiteWALAppend}})
	resp, err := http.Post(ts.URL+"/v1/tenants/default/ingest", "application/json", body())
	faultinject.Disable()
	if err != nil {
		t.Fatalf("POST ingest: %v", err)
	}
	var envelope struct {
		Error struct{ Code, Message string } `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("decode error envelope: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || envelope.Error.Code != "storage_unavailable" {
		t.Fatalf("failed append: status %d code %q, want 503 storage_unavailable",
			resp.StatusCode, envelope.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("503 storage_unavailable without Retry-After")
	}

	// Readiness reports the tenant degraded with the storage reason.
	var ready struct {
		Status  string `json:"status"`
		Tenants []struct {
			ID     string `json:"id"`
			State  string `json:"state"`
			Reason string `json:"reason"`
		} `json:"tenants"`
	}
	getJSON(t, ts, "/readyz", &ready)
	if ready.Status != "degraded" {
		t.Fatalf("/readyz status %q after refused batch, want degraded", ready.Status)
	}
	found := false
	for _, h := range ready.Tenants {
		if h.ID == defaultTenant {
			found = true
			if h.State != "degraded" || h.Reason != "storage_unavailable" {
				t.Fatalf("default tenant health = %+v, want degraded/storage_unavailable", h)
			}
		}
	}
	if !found {
		t.Fatalf("/readyz has no default-tenant row: %+v", ready.Tenants)
	}

	// One successful write clears the condition end to end.
	resp, err = http.Post(ts.URL+"/v1/tenants/default/ingest", "application/json", body())
	if err != nil {
		t.Fatalf("POST ingest after fault: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest after fault: status %d, want 202", resp.StatusCode)
	}
	getJSON(t, ts, "/readyz", &ready)
	if ready.Status != "ok" {
		t.Fatalf("/readyz status %q after recovery, want ok", ready.Status)
	}

	// The per-tenant stats row carries the WAL columns.
	var stats struct {
		WALSegments     int   `json:"wal_segments"`
		WALBytes        int64 `json:"wal_bytes"`
		ReplayedPoints  *int  `json:"replayed_points"`
		StorageDegraded *bool `json:"storage_degraded"`
	}
	getJSON(t, ts, "/v1/tenants/default/stats", &stats)
	if stats.WALSegments < 1 || stats.WALBytes <= 0 {
		t.Fatalf("stats row wal_segments=%d wal_bytes=%d, want a live segment",
			stats.WALSegments, stats.WALBytes)
	}
	if stats.ReplayedPoints == nil || stats.StorageDegraded == nil {
		t.Fatalf("stats row missing replayed_points/storage_degraded")
	}
	if *stats.StorageDegraded {
		t.Fatalf("storage_degraded still true after successful write")
	}
}

// TestWALMetricFamilies asserts the scrape exposes the WAL families
// with live samples once a WAL-backed tenant has ingested and
// checkpointed.
func TestWALMetricFamilies(t *testing.T) {
	ts, reg := newTestServer(t, mincore.RegistryOptions{
		Dim: 2, Eps: 0.1, Seed: 7,
		SnapshotDir: t.TempDir(),
		WAL:         &mincore.WALConfig{Sync: mincore.WALSyncEveryBatch},
	})
	pts := make([][]float64, 0, 48)
	for i := 0; i < 48; i++ {
		pts = append(pts, []float64{float64(i%17) / 17, float64((i*7)%13) / 13})
	}
	feedPoints(t, ts, "/v1/tenants/default/ingest", pts)
	tnt, err := reg.Tenant(defaultTenant)
	if err != nil {
		t.Fatalf("default tenant: %v", err)
	}
	if err := tnt.Checkpoint(); err != nil { // drives wal_truncations
		t.Fatalf("checkpoint: %v", err)
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
	// Each family is asserted through the tenant's series, which also
	// carry the traffic.
	lbl := fmt.Sprintf(`{tenant=%q}`, defaultTenant)
	for _, fam := range []string{
		"mincore_wal_appends_total",
		"mincore_wal_appended_points_total",
		"mincore_wal_append_failures_total",
		"mincore_wal_fsyncs_total",
		"mincore_wal_replayed_points_total",
		"mincore_wal_truncations_total",
		"mincore_wal_segments",
		"mincore_wal_bytes",
	} {
		if _, ok := samples[fam+lbl]; !ok {
			t.Errorf("scrape missing %s%s", fam, lbl)
		}
	}
	if v := samples["mincore_wal_appends_total"+lbl]; v < 1 {
		t.Errorf("mincore_wal_appends_total%s = %v, want >= 1", lbl, v)
	}
	// >= because the registry-wide tenant label accumulates across tests
	// in this binary — obs.Default is process-global.
	if v := samples["mincore_wal_appended_points_total"+lbl]; v < 48 {
		t.Errorf("mincore_wal_appended_points_total%s = %v, want >= 48", lbl, v)
	}
	if v := samples["mincore_wal_truncations_total"+lbl]; v < 1 {
		t.Errorf("mincore_wal_truncations_total%s = %v, want >= 1 after checkpoint", lbl, v)
	}
}

// getJSON fetches path from the test server and decodes the JSON body.
func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}
