package mincore

// Chaos test for the durable ingest service: a seeded kill/restore
// matrix that crashes the service at random stream positions while
// snapshot write, fsync, and read faults are injected and poison
// batches panic its workers. The service keeps a write-ahead log synced
// every batch, so every restart — after a kill, a clean close, or a
// read fault that forces the fallback to the older generation — must
// restore exactly the acknowledged log position, and the producer never
// replays. The recovered summary must stay a valid mergeable sketch
// whose measured directional loss is within twice the sketch's ε target
// — the streaming bound of the paper's §1.1 kernel — and no panic may
// escape the supervisor (an escaped panic kills the test process
// outright).
//
// Run a single cell of the matrix with MINCORE_CHAOS_SEED=n; `make
// chaos` runs the full matrix under the race detector.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mincore/internal/faultinject"
)

// chaosEps is the sketch ε the chaos services are built with; the
// acceptance bound is 2×chaosEps.
const chaosEps = 0.05

// chaosPoisonX marks a sacrificial duplicate point the panic hook blows
// up on. Poison points are near the origin, strictly inside the ring
// hull, so whether or not one reaches the summary before the panic
// fires, it can never become a champion — the summary stays exact.
const chaosPoisonX = 1.0 / (1 << 20)

func chaosOptions(path string) ServeOptions {
	return ServeOptions{
		Dim: 2, Eps: chaosEps, Seed: 7, // stream params fixed across restarts
		SnapshotPath:       path,
		CheckpointInterval: -1, // checkpoints driven by the chaos schedule
		QueueSize:          64,
	}
}

func TestChaosKillRestoreMatrix(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if v := os.Getenv("MINCORE_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad MINCORE_CHAOS_SEED %q: %v", v, err)
		}
		seeds = []int64{n}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { chaosRun(t, seed) })
	}
}

func chaosRun(t *testing.T, seed int64) {
	defer faultinject.Disable()
	rng := rand.New(rand.NewSource(seed))
	pts := servePoints(3000, 1000+seed) // fat ring stream
	path := filepath.Join(t.TempDir(), "chaos.snap")

	var panicsInjected, panicsRecovered, kills, failedCkpts int64
	next := 0  // the next stream point the producer sends
	acked := 0 // acknowledged log position: every point Feed accepted
	for round := 0; next < len(pts); round++ {
		svc, err := NewIngestService(chaosOptions(path))
		if err != nil {
			t.Fatalf("round %d: restart after crash: %v", round, err)
		}
		if got := svc.RestoredPoints(); got != acked {
			t.Fatalf("round %d: restored position %d, acknowledged %d", round, got, acked)
		}
		svc.panicHook = func(p []float64) {
			if p[0] == chaosPoisonX {
				panic("chaos poison")
			}
		}

		// Advance the stream; every acknowledged batch moves the log
		// position, poison batches included.
		stop := next + 1 + rng.Intn(len(pts)-next)
		for lo := next; lo < stop; lo += 97 {
			hi := min(lo+97, stop)
			if err := svc.Feed(pts[lo:hi]...); err != nil {
				t.Fatalf("round %d: feed [%d:%d): %v", round, lo, hi, err)
			}
			acked += hi - lo
			if rng.Intn(4) == 0 {
				// A poison batch: the marker leads, so the recovered panic
				// drops the whole batch — only harmless duplicates ride
				// behind it. It is in the log, so restore replays it: the
				// marker is no champion, and the duplicates change nothing.
				panicsInjected++
				if err := svc.Feed(Point{chaosPoisonX, 0}, pts[lo], pts[lo]); err != nil {
					t.Fatalf("round %d: poison feed: %v", round, err)
				}
				acked += 3
			}
		}
		drainChaos(t, svc, stop-next)
		next = stop

		// Checkpoint under injected write/fsync faults: a torn or failed
		// save must leave the previous durable generation intact.
		ckptFault := rng.Intn(3)
		switch ckptFault {
		case 1:
			faultinject.Enable(faultinject.Config{Seed: seed + int64(round), Rate: 1,
				Times: 1, Sites: []faultinject.Site{faultinject.SiteSnapshotWrite}})
		case 2:
			faultinject.Enable(faultinject.Config{Seed: seed + int64(round), Rate: 1,
				Times: 1, Sites: []faultinject.Site{faultinject.SiteSnapshotFsync}})
		}
		err = svc.Checkpoint()
		faultinject.Disable()
		if ckptFault != 0 {
			if err == nil {
				t.Fatalf("round %d: checkpoint survived an injected fault", round)
			}
			failedCkpts++
			// The service is degraded but alive; a retry on the healed
			// "disk" must succeed.
			if err := svc.Checkpoint(); err != nil {
				t.Fatalf("round %d: checkpoint retry: %v", round, err)
			}
		} else if err != nil {
			t.Fatalf("round %d: checkpoint: %v", round, err)
		}

		panicsRecovered += svc.Stats().WorkerPanics
		if rng.Intn(2) == 0 && next < len(pts) {
			// Crash: batches still queued are lost from memory but not
			// from the log.
			svc.Kill()
			kills++
		} else if err := svc.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}

		// Sometimes the next restart's first read is also faulty: the
		// loader must fall back to the intact previous generation, and
		// the log, which reaches back to it, replays to the same
		// acknowledged position.
		if rng.Intn(3) == 0 {
			faultinject.Enable(faultinject.Config{Seed: seed ^ int64(round), Rate: 1,
				Times: 1, Sites: []faultinject.Site{faultinject.SiteSnapshotRead}})
			probe, err := NewIngestService(chaosOptions(path))
			faultinject.Disable()
			if err != nil {
				// Legal only when no second generation could absorb the
				// fault: the loader must surface the error rather than
				// silently start empty over unreadable-but-present state.
				// Nothing is lost — the next healthy restart reads the
				// intact file (verified by the top of the next round).
				if !strings.Contains(err.Error(), "injected read failure") {
					t.Fatalf("round %d: restart under read fault: %v", round, err)
				}
			} else {
				if got := probe.RestoredPoints(); got != acked {
					t.Fatalf("round %d: fallback restored %d, acknowledged %d", round, got, acked)
				}
				probe.Kill()
			}
		}
	}

	// Final recovery: the whole stream was acknowledged, so the restore
	// holds all of it without any producer replay.
	svc, err := NewIngestService(chaosOptions(path))
	if err != nil {
		t.Fatalf("final restart: %v", err)
	}
	defer svc.Kill()
	if got := svc.RestoredPoints(); got != acked {
		t.Fatalf("final restored position %d, acknowledged %d", got, acked)
	}

	ss, err := svc.Summary()
	if err != nil {
		t.Fatalf("recovered summary: %v", err)
	}
	if loss := directionalLoss(pts, ss); loss > 2*chaosEps {
		t.Fatalf("recovered summary loss %.4f exceeds 2ε = %.4f after %d kills, %d failed checkpoints",
			loss, 2*chaosEps, kills, failedCkpts)
	}
	// The recovered summary must still merge with a live summary of the
	// same parameters — mergeability survives every crash.
	live := NewStreamSummary(2, chaosEps, 0.25, 7)
	for _, p := range pts[:50] {
		live.Add(p)
	}
	if err := ss.Merge(live); err != nil {
		t.Fatalf("recovered summary no longer mergeable: %v", err)
	}
	if panicsRecovered == 0 && panicsInjected > 0 {
		t.Fatalf("injected %d poison points, supervisor recorded no panics", panicsInjected)
	}
	t.Logf("seed %d: %d kills, %d failed checkpoints, %d/%d panics recovered, final loss within bound",
		seed, kills, failedCkpts, panicsRecovered, panicsInjected)
}

// TestChaosFleetCorruption is the fleet half of the chaos matrix: k of N
// tenant directories are corrupted (garbage manifest, torn current
// snapshot, both snapshot generations destroyed) and the registry must
// still boot and serve the rest — a torn current generation falls back
// to the previous one plus the log (no quarantine, no loss), truly
// unrecoverable-at-startup state quarantines only that tenant, and
// RecoverTenant brings each sick tenant back in place, serving the
// pre-crash coresets byte for byte.
func TestChaosFleetCorruption(t *testing.T) {
	root := t.TempDir()
	opts := RegistryOptions{
		Dim: 2, Eps: chaosEps, Seed: 7,
		SnapshotDir:        root,
		CheckpointInterval: -1, // checkpoints driven explicitly
		// One segment per fed half: the final checkpoint's compaction
		// through the half-stream generation drops the first half.
		WAL: &WALConfig{SegmentBytes: 1024},
	}
	reg, err := NewTenantRegistry(opts)
	if err != nil {
		t.Fatalf("NewTenantRegistry: %v", err)
	}

	ids := []string{"healthy-a", "healthy-b", "torn-current", "bad-manifest", "dead-snapshot"}
	const half, full = 400, 800
	streams := make(map[string][]Point, len(ids))
	reference := make(map[string]*Coreset, len(ids))
	for i, id := range ids {
		tnt, err := reg.CreateTenant(TenantConfig{ID: id})
		if err != nil {
			t.Fatalf("create %s: %v", id, err)
		}
		pts := servePoints(full, 2000+int64(i))
		streams[id] = pts
		// A mid-stream checkpoint gives every tenant a half-stream
		// previous generation for the torn-write fallback to land on.
		if err := tnt.Feed(pts[:half]...); err != nil {
			t.Fatalf("%s feed: %v", id, err)
		}
		drainChaos(t, tnt.Service(), half)
		if err := tnt.Checkpoint(); err != nil {
			t.Fatalf("%s checkpoint 1: %v", id, err)
		}
		if err := tnt.Feed(pts[half:]...); err != nil {
			t.Fatalf("%s feed tail: %v", id, err)
		}
		drainChaos(t, tnt.Service(), full)
		// No second explicit checkpoint: Close below writes the final
		// full-stream generation, leaving the half-stream one as .prev.
		q, err := tnt.Coreset(context.Background(), 0.1, Auto)
		if err != nil {
			t.Fatalf("%s reference coreset: %v", id, err)
		}
		reference[id] = q
	}
	if err := reg.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Corrupt 3 of the 5 tenant directories, each a different way.
	garbage := []byte("this is not a valid file of any kind")
	if err := os.WriteFile(filepath.Join(root, "bad-manifest", "tenant.json"), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	tornSnap := filepath.Join(root, "torn-current", "stream.snap")
	raw, err := os.ReadFile(tornSnap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tornSnap, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"stream.snap", "stream.snap.prev"} {
		if err := os.WriteFile(filepath.Join(root, "dead-snapshot", f), garbage, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The fleet boots: N−k tenants serve, k are quarantined — never a
	// startup failure.
	reg, err = NewTenantRegistry(opts)
	if err != nil {
		t.Fatalf("restart over corrupt fleet: %v", err)
	}
	defer reg.Close()

	counts := map[string]int{}
	for _, h := range reg.Health() {
		counts[h.State]++
	}
	if counts["ok"] != 3 || counts["quarantined"] != 2 {
		t.Fatalf("health after corrupt restart = %v, want 3 ok / 2 quarantined", counts)
	}

	// Untouched tenants serve byte-identical coresets.
	for _, id := range []string{"healthy-a", "healthy-b"} {
		tnt, err := reg.Tenant(id)
		if err != nil {
			t.Fatalf("%s after restart: %v", id, err)
		}
		q, err := tnt.Coreset(context.Background(), 0.1, Auto)
		if err != nil {
			t.Fatalf("%s coreset: %v", id, err)
		}
		assertSameCoreset(t, id, reference[id], q)
	}

	// A torn current generation is not a quarantine: the loader falls
	// back to the previous generation, and the log, which each
	// checkpoint compacts only through the older generation, replays the
	// rest — the whole acknowledged stream, with no producer replay.
	tnt, err := reg.Tenant("torn-current")
	if err != nil {
		t.Fatalf("torn-current quarantined, want prev-generation fallback: %v", err)
	}
	if got := tnt.Service().RestoredPoints(); got != full {
		t.Fatalf("torn-current restored %d points, want all %d", got, full)
	}
	if got := tnt.Service().ReplayedPoints(); got != full-half {
		t.Fatalf("torn-current replayed %d points from the log, want %d past the prev generation", got, full-half)
	}
	q, err := tnt.Coreset(context.Background(), 0.1, Auto)
	if err != nil {
		t.Fatalf("torn-current coreset: %v", err)
	}
	assertSameCoreset(t, "torn-current", reference["torn-current"], q)

	// Quarantined tenants answer with the typed error and refuse
	// re-creation over their (possibly salvageable) state.
	for id, reason := range map[string]string{
		"bad-manifest":  "bad_manifest",
		"dead-snapshot": "snapshot_unusable",
	} {
		if _, err := reg.Tenant(id); !errors.Is(err, ErrTenantQuarantined) {
			t.Fatalf("%s: err = %v, want ErrTenantQuarantined", id, err)
		}
		if _, err := reg.CreateTenant(TenantConfig{ID: id}); !errors.Is(err, ErrTenantQuarantined) {
			t.Fatalf("create over quarantined %s: err = %v", id, err)
		}
		h, ok := reg.QuarantineInfo(id)
		if !ok || h.Reason != reason {
			t.Fatalf("%s quarantine info = %+v (ok=%v), want reason %s", id, h, ok, reason)
		}
	}

	// Recovery in place, no restart. The corrupt manifest is rebuilt from
	// the intact snapshot header: the stream survives whole.
	tnt, step, err := reg.RecoverTenant("bad-manifest")
	if err != nil {
		t.Fatalf("recover bad-manifest: %v", err)
	}
	if step != "rewrite_manifest" {
		t.Fatalf("bad-manifest recovery step = %q, want rewrite_manifest", step)
	}
	if got := tnt.Service().RestoredPoints(); got != full {
		t.Fatalf("bad-manifest restored %d points, want %d", got, full)
	}
	q, err = tnt.Coreset(context.Background(), 0.1, Auto)
	if err != nil {
		t.Fatalf("bad-manifest coreset: %v", err)
	}
	assertSameCoreset(t, "bad-manifest", reference["bad-manifest"], q)

	// Both generations destroyed, and the log no longer reaches back to
	// position 0: the ladder bottoms out at a stream reset, and the
	// producer's full replay reproduces the coreset.
	tnt, step, err = reg.RecoverTenant("dead-snapshot")
	if err != nil {
		t.Fatalf("recover dead-snapshot: %v", err)
	}
	if step != "reset_stream" {
		t.Fatalf("dead-snapshot recovery step = %q, want reset_stream", step)
	}
	if got := tnt.Service().RestoredPoints(); got != 0 {
		t.Fatalf("dead-snapshot restored %d points after reset, want 0", got)
	}
	if err := tnt.Feed(streams["dead-snapshot"]...); err != nil {
		t.Fatalf("dead-snapshot replay: %v", err)
	}
	drainChaos(t, tnt.Service(), full)
	q, err = tnt.Coreset(context.Background(), 0.1, Auto)
	if err != nil {
		t.Fatalf("dead-snapshot coreset: %v", err)
	}
	assertSameCoreset(t, "dead-snapshot", reference["dead-snapshot"], q)

	for _, h := range reg.Health() {
		if h.State != "ok" {
			t.Fatalf("tenant %s still %s after recovery", h.ID, h.State)
		}
	}
}

// assertSameCoreset enforces the byte-identical serving contract across
// crash/corrupt/recover cycles: same indices, same point coordinates.
func assertSameCoreset(t *testing.T, id string, want, got *Coreset) {
	t.Helper()
	if len(want.Indices) != len(got.Indices) || len(want.Points) != len(got.Points) {
		t.Fatalf("%s: coreset size changed: %d/%d points, %d/%d indices",
			id, len(got.Points), len(want.Points), len(got.Indices), len(want.Indices))
	}
	for i := range want.Indices {
		if want.Indices[i] != got.Indices[i] {
			t.Fatalf("%s: index %d = %d, want %d", id, i, got.Indices[i], want.Indices[i])
		}
	}
	for i := range want.Points {
		for j := range want.Points[i] {
			if want.Points[i][j] != got.Points[i][j] {
				t.Fatalf("%s: point %d differs: %v vs %v", id, i, got.Points[i], want.Points[i])
			}
		}
	}
}

// drainChaos waits until the service has ingested the n real stream
// points fed this round. Poison batches contribute nothing: the panic
// fires on the leading marker and drops the whole batch.
func drainChaos(t *testing.T, svc *IngestService, n int) {
	t.Helper()
	want := int64(n)
	for i := 0; i < 10000; i++ {
		if svc.Stats().Ingested >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("chaos ingest stalled: %d/%d", svc.Stats().Ingested, n)
}

// directionalLoss measures max over a dense direction sweep of the
// relative regret 1 − ω(Q,u)/ω(P,u) — the loss the streaming guarantee
// bounds for a fat stream.
func directionalLoss(pts []Point, ss *StreamSummary) float64 {
	worst := 0.0
	for k := 0; k < 720; k++ {
		th := 2 * math.Pi * float64(k) / 720
		u := Point{math.Cos(th), math.Sin(th)}
		wp := math.Inf(-1)
		for _, p := range pts {
			if v := p[0]*u[0] + p[1]*u[1]; v > wp {
				wp = v
			}
		}
		wq := ss.Omega(u)
		if wp <= 0 {
			continue // not a fat direction; the bound is relative
		}
		if loss := 1 - wq/wp; loss > worst {
			worst = loss
		}
	}
	return worst
}
