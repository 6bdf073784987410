package mincore

// Chaos tests for the write-ahead log's end-to-end durability contract:
// a seeded crash-point matrix that kills the ingest service mid-append,
// between the WAL append and the ack, right after acks, and immediately
// after a checkpoint's log truncation — then restarts and asserts the
// two halves of the contract. With per-batch sync, no acknowledged
// point is ever lost (restored position >= last acked position, and the
// only permissible overshoot is a batch that was appended but never
// acknowledged), and the recovered summary is byte-identical to an
// uninterrupted run over the same prefix. With group commit or sync
// off, the loss window is bounded by the last fsynced position.
//
// Run a single cell with MINCORE_CHAOS_SEED=n; `make chaos` runs the
// full matrix under the race detector.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"mincore/internal/faultinject"
	"mincore/internal/snapshot"
	"mincore/internal/stream"
	"mincore/internal/wal"
)

// walChaosOptions is chaosOptions with a per-batch-synced WAL that
// rotates often.
func walChaosOptions(dir string) ServeOptions {
	return ServeOptions{
		Dim: 2, Eps: chaosEps, Seed: 7,
		SnapshotPath:       filepath.Join(dir, "stream.snap"),
		CheckpointInterval: -1,
		QueueSize:          64,
		WAL: &WALConfig{
			Sync:         WALSyncEveryBatch,
			SegmentBytes: 4096, // rotate often so kills straddle segment boundaries
		},
	}
}

// walSummaryBytes encodes the service's summary with a fixed meta, so
// two services with identical stream state produce identical bytes.
func walSummaryBytes(t *testing.T, svc *IngestService) []byte {
	t.Helper()
	sum, err := svc.Summary()
	if err != nil {
		t.Fatalf("summary: %v", err)
	}
	var buf bytes.Buffer
	if err := snapshot.Encode(&buf, sum.s.State(), snapshot.Meta{}); err != nil {
		t.Fatalf("encode summary: %v", err)
	}
	return buf.Bytes()
}

// walReferenceBytes feeds pts[:n] through a fresh WAL-less service and
// returns its summary bytes — the uninterrupted-run reference.
func walReferenceBytes(t *testing.T, pts []Point, n int) []byte {
	t.Helper()
	ref, err := NewIngestService(ServeOptions{
		Dim: 2, Eps: chaosEps, Seed: 7,
		CheckpointInterval: -1,
		QueueSize:          64,
	})
	if err != nil {
		t.Fatalf("reference service: %v", err)
	}
	defer ref.Close()
	for lo := 0; lo < n; lo += 97 {
		if err := ref.Feed(pts[lo:min(lo+97, n)]...); err != nil {
			t.Fatalf("reference feed: %v", err)
		}
	}
	drainChaos(t, ref, n)
	return walSummaryBytes(t, ref)
}

func TestChaosWALCrashPoints(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if v := os.Getenv("MINCORE_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad MINCORE_CHAOS_SEED %q: %v", v, err)
		}
		seeds = []int64{n}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { walCrashRun(t, seed) })
	}
}

func walCrashRun(t *testing.T, seed int64) {
	defer faultinject.Disable()
	rng := rand.New(rand.NewSource(seed))
	pts := servePoints(2000, 3000+seed)
	dir := t.TempDir()

	acked := 0     // last position whose Feed returned nil
	attempted := 0 // high-water mark of positions ever offered to the log
	for round := 0; acked < len(pts); round++ {
		svc, err := NewIngestService(walChaosOptions(dir))
		if err != nil {
			t.Fatalf("round %d: restart after crash: %v", round, err)
		}
		// Zero acknowledged-point loss: the restored position never
		// trails an acked batch. It may run ahead by exactly the batches
		// that were appended but refused an ack at the crash point.
		restored := svc.RestoredPoints()
		if restored < acked {
			t.Fatalf("round %d: restored position %d lost acknowledged points (acked %d)",
				round, restored, acked)
		}
		if restored > attempted {
			t.Fatalf("round %d: restored position %d past everything offered (%d)",
				round, restored, attempted)
		}
		// The recovered summary is byte-identical to an uninterrupted
		// run over the recovered prefix — snapshot + WAL replay loses
		// nothing and invents nothing.
		if got, want := walSummaryBytes(t, svc), walReferenceBytes(t, pts, restored); !bytes.Equal(got, want) {
			t.Fatalf("round %d: recovered summary at position %d differs from uninterrupted run",
				round, restored)
		}
		// The producer contract: resume from the restored position.
		acked, attempted = restored, restored

		// Feed toward a random crash point, then die one of four ways.
		stop := acked + 1 + rng.Intn(len(pts)-acked)
		mode := rng.Intn(4)
		for acked < stop {
			n := min(1+rng.Intn(7), len(pts)-acked)
			var ferr error
			for try := 0; try < 5000; try++ { // a shed batch is backpressure, not a crash
				if ferr = svc.Feed(pts[acked : acked+n]...); !errors.Is(ferr, ErrOverloaded) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if ferr != nil {
				t.Fatalf("round %d: feed at %d: %v", round, acked, ferr)
			}
			acked += n
			attempted = acked
			if mode == 3 && rng.Intn(8) == 0 {
				// Mid-truncate leg: checkpoint (which compacts the log
				// through the older generation) and keep feeding, so the
				// eventual kill lands on a freshly compacted log.
				drainChaos(t, svc, acked-restored)
				if err := svc.Checkpoint(); err != nil {
					t.Fatalf("round %d: checkpoint: %v", round, err)
				}
			}
		}
		switch mode {
		case 0: // crash mid-append: a torn frame no one acked
			if acked < len(pts) {
				faultinject.Enable(faultinject.Config{Seed: seed, Rate: 1, Times: 1,
					Sites: []faultinject.Site{faultinject.SiteWALAppend}})
				err := svc.Feed(pts[acked:min(acked+3, len(pts))]...)
				faultinject.Disable()
				if !errors.Is(err, ErrStorageUnavailable) {
					t.Fatalf("round %d: torn append returned %v, want ErrStorageUnavailable", round, err)
				}
				if !svc.StorageDegraded() {
					t.Fatalf("round %d: failed append did not mark storage degraded", round)
				}
			}
		case 1: // crash post-append, pre-ack: durable but never acked
			if acked < len(pts) {
				n := min(1+rng.Intn(3), len(pts)-acked)
				crash := fmt.Errorf("chaos: killed between WAL append and ack")
				svc.walCrashHook = func() error { return crash }
				if err := svc.Feed(pts[acked : acked+n]...); !errors.Is(err, crash) {
					t.Fatalf("round %d: crash hook returned %v", round, err)
				}
				svc.walCrashHook = nil
				attempted = acked + n // in the log; may legitimately be restored
			}
		case 2: // crash after clean acks — nothing in flight
		case 3: // crash right after the last checkpoint's truncation
		}
		svc.Kill()
	}

	// The stream is fully acknowledged: one last restart must recover
	// every point and match the uninterrupted run end to end.
	svc, err := NewIngestService(walChaosOptions(dir))
	if err != nil {
		t.Fatalf("final restart: %v", err)
	}
	defer svc.Close()
	if got := svc.RestoredPoints(); got != len(pts) {
		t.Fatalf("final restored position %d, want %d", got, len(pts))
	}
	if got, want := walSummaryBytes(t, svc), walReferenceBytes(t, pts, len(pts)); !bytes.Equal(got, want) {
		t.Fatalf("final recovered summary differs from uninterrupted run")
	}
	if loss := directionalLoss(pts, mustSummary(t, svc)); loss > 2*chaosEps {
		t.Fatalf("final directional loss %.4f > %.4f", loss, 2*chaosEps)
	}
}

func mustSummary(t *testing.T, svc *IngestService) *StreamSummary {
	t.Helper()
	ss, err := svc.Summary()
	if err != nil {
		t.Fatalf("summary: %v", err)
	}
	return ss
}

// TestChaosWALGroupCommitBound crashes a service running with relaxed
// sync policies and asserts the durability window: everything fsynced
// survives, so the loss is bounded by the group-commit window — and the
// recovered summary still matches an uninterrupted run over whatever
// prefix survived.
func TestChaosWALGroupCommitBound(t *testing.T) {
	for _, mode := range []WALSyncMode{WALSyncInterval, WALSyncOff} {
		t.Run(mode.String(), func(t *testing.T) {
			pts := servePoints(1200, 77)
			dir := t.TempDir()
			opts := walChaosOptions(dir)
			opts.WAL = &WALConfig{
				Sync:         mode,
				SyncInterval: time.Hour, // nothing syncs inside the window
				SegmentBytes: 1 << 20,   // no rotation-driven syncs either
			}
			svc, err := NewIngestService(opts)
			if err != nil {
				t.Fatalf("service: %v", err)
			}
			acked := 0
			for lo := 0; lo < len(pts); lo += 50 {
				if err := svc.Feed(pts[lo:min(lo+50, len(pts))]...); err != nil {
					t.Fatalf("feed: %v", err)
				}
				acked = min(lo+50, len(pts))
			}
			svc.walMu.Lock()
			synced := int(svc.wal.SyncedSeq())
			svc.walMu.Unlock()
			svc.Kill()

			svc2, err := NewIngestService(opts)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer svc2.Close()
			restored := svc2.RestoredPoints()
			// The bound: acked − restored ≤ acked − synced, i.e. the only
			// points at risk are those inside the un-fsynced window.
			if restored < synced {
				t.Fatalf("restored %d < fsynced %d: the durability window leaked", restored, synced)
			}
			if restored > acked {
				t.Fatalf("restored %d > acked %d", restored, acked)
			}
			if got, want := walSummaryBytes(t, svc2), walReferenceBytes(t, pts, restored); !bytes.Equal(got, want) {
				t.Fatalf("recovered summary at %d differs from uninterrupted run", restored)
			}
		})
	}
}

// TestServeWALStorageUnavailable pins the storage-failure semantics: a
// failed append or fsync refuses the batch with ErrStorageUnavailable
// (nothing acked, nothing ingested), marks the service storage-degraded
// for health reporting, and one successful write clears the condition.
func TestServeWALStorageUnavailable(t *testing.T) {
	defer faultinject.Disable()
	svc, err := NewIngestService(walChaosOptions(t.TempDir()))
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	defer svc.Close()
	pts := servePoints(40, 9)

	for _, site := range []faultinject.Site{faultinject.SiteWALAppend, faultinject.SiteWALFsync} {
		faultinject.Enable(faultinject.Config{Rate: 1, Times: 1, Sites: []faultinject.Site{site}})
		err := svc.Feed(pts[:10]...)
		faultinject.Disable()
		if !errors.Is(err, ErrStorageUnavailable) {
			t.Fatalf("%v: Feed returned %v, want ErrStorageUnavailable", site, err)
		}
		if !svc.StorageDegraded() || !svc.Stats().StorageDegraded || !svc.Stats().Degraded {
			t.Fatalf("%v: refused batch did not surface as storage degradation", site)
		}
		// One successful write clears the condition.
		if err := svc.Feed(pts[:10]...); err != nil {
			t.Fatalf("%v: feed after fault: %v", site, err)
		}
		if svc.StorageDegraded() || svc.Stats().StorageDegraded {
			t.Fatalf("%v: successful write did not clear storage degradation", site)
		}
	}
	// The refused batches were never ingested: only the successful feeds
	// (2 × 10 points) count.
	drainChaos(t, svc, 20)
	if n := svc.StreamN(); n != 20 {
		t.Fatalf("stream position %d after 2 refused + 2 acked batches, want 20", n)
	}
}

// TestServeWALUpgradeFromSnapshotOnly pins the upgrade path from a
// snapshot directory without a log, which a build that kept no log for
// a SnapshotPath left behind: with the default WAL settings the service
// restores the generation, starts a fresh log at its position, and from
// then on loses no acknowledged point.
func TestServeWALUpgradeFromSnapshotOnly(t *testing.T) {
	opts := walChaosOptions(t.TempDir())
	opts.WAL = nil // the snapshot-only configuration: nil means the default log
	pts := servePoints(600, 8080)
	const n = 250

	// The old build's checkpoint: a generation at n, and no wal/.
	old := opts
	old.SnapshotPath = ""
	oldSvc, err := NewIngestService(old)
	if err != nil {
		t.Fatalf("snapshot-only service: %v", err)
	}
	if err := oldSvc.Feed(pts[:n]...); err != nil {
		t.Fatalf("feed: %v", err)
	}
	drainChaos(t, oldSvc, n)
	sum, err := oldSvc.Summary()
	oldSvc.Kill()
	if err != nil {
		t.Fatalf("summary: %v", err)
	}
	if _, err := snapshot.NewStore(opts.SnapshotPath).Save(sum.s.State()); err != nil {
		t.Fatalf("save generation: %v", err)
	}
	if _, err := os.Stat(WALDir(opts.SnapshotPath)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("log directory before the upgrade: %v", err)
	}

	svc, err := NewIngestService(opts)
	if err != nil {
		t.Fatalf("upgrade start: %v", err)
	}
	if got := svc.RestoredPoints(); got != n {
		t.Fatalf("restored position %d, want the generation's %d", got, n)
	}
	if got := svc.StreamN(); got != n {
		t.Fatalf("StreamN %d after a snapshot without a log, want %d", got, n)
	}
	if svc.wal == nil {
		t.Fatal("no write-ahead log opened under the snapshot path")
	}
	svc.walMu.Lock()
	oldest, last := svc.wal.OldestSeq(), svc.wal.LastSeq()
	svc.walMu.Unlock()
	if oldest != n || last != n {
		t.Fatalf("fresh log spans [%d, %d), want it aligned at %d", oldest, last, n)
	}
	for lo := n; lo < len(pts); lo += 25 {
		if err := svc.Feed(pts[lo:min(lo+25, len(pts))]...); err != nil {
			t.Fatalf("feed at %d: %v", lo, err)
		}
	}
	acked := len(pts)
	svc.Kill()

	svc2, err := NewIngestService(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer svc2.Close()
	restored := svc2.RestoredPoints()
	if restored < acked {
		t.Fatalf("restored position %d lost acknowledged points (acked %d)", restored, acked)
	}
	if got, want := walSummaryBytes(t, svc2), walReferenceBytes(t, pts, restored); !bytes.Equal(got, want) {
		t.Fatalf("recovered summary at %d differs from an uninterrupted run", restored)
	}
}

// TestServeWALSiblingSnapshotPathsRefused pins the one-log-per-directory
// rule. The log lives in wal/ next to the snapshot, so a second snapshot
// path in the same directory must fail at startup, both while the first
// service runs and after it crashed, instead of replaying or removing
// the first stream's log; the first stream then restores in full.
func TestServeWALSiblingSnapshotPathsRefused(t *testing.T) {
	dir := t.TempDir()
	optsA := walChaosOptions(dir)
	optsA.WAL = nil
	optsA.SnapshotPath = filepath.Join(dir, "a.snap")
	optsB := optsA
	optsB.SnapshotPath = filepath.Join(dir, "b.snap")
	pts := servePoints(300, 8181)

	a, err := NewIngestService(optsA)
	if err != nil {
		t.Fatalf("first service: %v", err)
	}
	for lo := 0; lo < len(pts); lo += 25 {
		if err := a.Feed(pts[lo : lo+25]...); err != nil {
			t.Fatalf("feed at %d: %v", lo, err)
		}
	}
	for _, o := range []ServeOptions{optsB, optsA} {
		if _, err := NewIngestService(o); !errors.Is(err, wal.ErrDirInUse) {
			t.Fatalf("start on %s while the first runs: %v, want wal.ErrDirInUse", o.SnapshotPath, err)
		}
	}
	a.Kill()

	if _, err := NewIngestService(optsB); !errors.Is(err, wal.ErrDirInUse) {
		t.Fatalf("sibling start after the first crashed: %v, want wal.ErrDirInUse", err)
	}
	if err := wal.Remove(WALDir(optsB.SnapshotPath), filepath.Base(optsB.SnapshotPath)); !errors.Is(err, wal.ErrDirInUse) {
		t.Fatalf("sibling removal of the log: %v, want wal.ErrDirInUse", err)
	}
	a2, err := NewIngestService(optsA)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer a2.Close()
	if got := a2.RestoredPoints(); got != len(pts) {
		t.Fatalf("restored position %d, want every acknowledged point (%d)", got, len(pts))
	}
	if got, want := walSummaryBytes(t, a2), walReferenceBytes(t, pts, len(pts)); !bytes.Equal(got, want) {
		t.Fatal("recovered summary differs from an uninterrupted run")
	}
}

// TestTenantWALGenerationGapQuarantined pins the snapshot/log
// contiguity check. Checkpoints compact the log only through the older
// generation, but a build that compacted it through the newer one
// leaves a log that a torn current generation's fallback to ".prev"
// cannot reach: the acknowledged points between the two exist in
// neither half of the durable pair. The tenant must quarantine as
// wal_unusable (never silently replay across the hole and report the
// log's end as the restored position), and recovery must drop the log
// and restore to the snapshot position so the producer replays the gap.
func TestTenantWALGenerationGapQuarantined(t *testing.T) {
	root := t.TempDir()
	opts := RegistryOptions{
		Dim: 2, Eps: chaosEps, Seed: 7,
		SnapshotDir:        root,
		CheckpointInterval: -1,
		WAL:                &WALConfig{Sync: WALSyncEveryBatch, SegmentBytes: 1024},
	}
	reg, err := NewTenantRegistry(opts)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	tnt, err := reg.CreateTenant(TenantConfig{ID: "gap"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	pts := servePoints(500, 5005)
	feed := func(lo, hi int) {
		t.Helper()
		for ; lo < hi; lo += 25 {
			if err := tnt.Feed(pts[lo:min(lo+25, hi)]...); err != nil {
				t.Fatalf("feed at %d: %v", lo, err)
			}
		}
	}
	// Two checkpoints build two generations: prev at 200, current at
	// 400. Then 100 more acked points land only in the log (400..500).
	feed(0, 200)
	drainChaos(t, tnt.Service(), 200)
	if err := tnt.Checkpoint(); err != nil {
		t.Fatalf("checkpoint 1: %v", err)
	}
	feed(200, 400)
	drainChaos(t, tnt.Service(), 400)
	if err := tnt.Checkpoint(); err != nil {
		t.Fatalf("checkpoint 2: %v", err)
	}
	feed(400, 500)
	drainChaos(t, tnt.Service(), 500)
	tnt.Service().Kill()

	// Tear the current generation so Load falls back to prev (200), and
	// drop every log segment at or below 400, as compaction through the
	// current generation would have: points 200..400 are gone.
	if err := os.WriteFile(filepath.Join(root, "gap", snapshotFile), []byte("torn mid-write"), 0o644); err != nil {
		t.Fatalf("tear current generation: %v", err)
	}
	segs, err := filepath.Glob(filepath.Join(WALDir(filepath.Join(root, "gap", snapshotFile)), "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if _, end, _, err := wal.DecodeSegment(raw, 2); err != nil {
			t.Fatalf("decode %s: %v", seg, err)
		} else if end <= 400 {
			if err := os.Remove(seg); err != nil {
				t.Fatal(err)
			}
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("no log segment ends at or below 400; nothing to compact away")
	}

	reg2, err := NewTenantRegistry(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer reg2.Close()
	if h, ok := reg2.QuarantineInfo("gap"); !ok || h.Reason != "wal_unusable" {
		t.Fatalf("gap tenant quarantine = %+v (ok=%v), want reason wal_unusable", h, ok)
	}

	// Recovery drops the disjoint log and restores the prev generation:
	// position 200, so the producer replays everything past it. The old
	// behavior silently reported 500 with points 200..400 missing.
	tnt, step, err := reg2.RecoverTenant("gap")
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if step != "replay_wal" {
		t.Fatalf("recovery step = %q, want replay_wal", step)
	}
	if got := tnt.Service().RestoredPoints(); got != 200 {
		t.Fatalf("restored position %d, want the prev generation's 200", got)
	}
	feed(200, 500)
	drainChaos(t, tnt.Service(), 300)
	if got, want := walSummaryBytes(t, tnt.Service()), walReferenceBytes(t, pts, 500); !bytes.Equal(got, want) {
		t.Fatalf("replayed summary differs from uninterrupted run")
	}
}

// TestTenantWALRecoveryLadder exercises the replay_wal rung and the
// wal_unusable quarantine through the registry: a corrupt log is
// dropped in favor of the snapshot, and a destroyed snapshot is rebuilt
// from a log that covers the stream from its beginning.
func TestTenantWALRecoveryLadder(t *testing.T) {
	root := t.TempDir()
	opts := RegistryOptions{
		Dim: 2, Eps: chaosEps, Seed: 7,
		SnapshotDir:        root,
		CheckpointInterval: -1,
		WAL:                &WALConfig{Sync: WALSyncEveryBatch, SegmentBytes: 1024},
	}
	reg, err := NewTenantRegistry(opts)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	ids := []string{"bad-log", "dead-snapshot"}
	streams := map[string][]Point{}
	for i, id := range ids {
		tnt, err := reg.CreateTenant(TenantConfig{ID: id})
		if err != nil {
			t.Fatalf("create %s: %v", id, err)
		}
		pts := servePoints(600, 4000+int64(i))
		streams[id] = pts
		feed := func(lo, hi int) { // small batches so the log rotates segments
			t.Helper()
			for ; lo < hi; lo += 25 {
				if err := tnt.Feed(pts[lo:min(lo+25, hi)]...); err != nil {
					t.Fatalf("%s feed at %d: %v", id, lo, err)
				}
			}
		}
		feed(0, 300)
		drainChaos(t, tnt.Service(), 300)
		if id == "bad-log" {
			// A checkpoint so the snapshot alone covers the half stream:
			// dropping the corrupt log must not lose it.
			if err := tnt.Checkpoint(); err != nil {
				t.Fatalf("%s checkpoint: %v", id, err)
			}
		}
		feed(300, 600)
		drainChaos(t, tnt.Service(), 600)
		// Crash without a final checkpoint: state lives in WAL + any
		// mid-stream snapshot.
		tnt.Service().Kill()
	}

	// bad-log: punch a hole in the MIDDLE of the log (remove a sealed
	// non-prefix segment) so Open reports ErrBadLog, not a torn tail.
	walDir := WALDir(filepath.Join(root, "bad-log", snapshotFile))
	names, err := filepath.Glob(filepath.Join(walDir, "*.wal"))
	if err != nil || len(names) < 3 {
		t.Fatalf("need >= 3 sealed segments to punch a hole, have %d (%v)", len(names), err)
	}
	if err := os.Remove(names[1]); err != nil {
		t.Fatalf("punch hole: %v", err)
	}
	// dead-snapshot: destroy both snapshot generations; the WAL (never
	// truncated — no checkpoint ran) still covers the stream from 0.
	for _, f := range []string{snapshotFile, snapshotFile + ".prev"} {
		os.WriteFile(filepath.Join(root, "dead-snapshot", f), []byte("garbage, not a snapshot"), 0o644)
	}

	reg2, err := NewTenantRegistry(opts)
	if err != nil {
		t.Fatalf("restart over corrupt fleet: %v", err)
	}
	defer reg2.Close()
	if h, ok := reg2.QuarantineInfo("bad-log"); !ok || h.Reason != "wal_unusable" {
		t.Fatalf("bad-log quarantine = %+v (ok=%v), want reason wal_unusable", h, ok)
	}

	// The corrupt log is unrecoverable; the ladder drops it and restores
	// from the mid-stream snapshot. The tail past the checkpoint is the
	// acknowledged-loss price of destroying the log itself — the rung
	// reports it via the restored position, and the producer replays.
	tnt, step, err := reg2.RecoverTenant("bad-log")
	if err != nil {
		t.Fatalf("recover bad-log: %v", err)
	}
	if step != "replay_wal" {
		t.Fatalf("bad-log recovery step = %q, want replay_wal", step)
	}
	if got := tnt.Service().RestoredPoints(); got != 300 {
		t.Fatalf("bad-log restored %d points, want the checkpoint's 300", got)
	}
	if err := tnt.Feed(streams["bad-log"][300:]...); err != nil {
		t.Fatalf("bad-log replay tail: %v", err)
	}
	drainChaos(t, tnt.Service(), 300)

	// The destroyed snapshot is rebuilt wholesale from the log: the
	// stream survives to the exact acknowledged position.
	tnt, step, err = reg2.RecoverTenant("dead-snapshot")
	if err != nil {
		t.Fatalf("recover dead-snapshot: %v", err)
	}
	if step != "replay_wal" {
		t.Fatalf("dead-snapshot recovery step = %q, want replay_wal", step)
	}
	if got := tnt.Service().RestoredPoints(); got != 600 {
		t.Fatalf("dead-snapshot restored %d points from the log, want 600", got)
	}
	if got := tnt.Service().ReplayedPoints(); got != 600 {
		t.Fatalf("dead-snapshot replayed %d points, want 600", got)
	}
	if got := tnt.Service().StreamN(); got != 600 {
		t.Fatalf("dead-snapshot StreamN %d after the log alone, want 600", got)
	}
}

// TestServeWALCheckpointIsLogPrefix pins the position a checkpoint
// records. The log runs ahead of the summary — a batch is appended
// before the ingest worker applies it — so a generation saved at
// position n is sound only if it holds every point of the log prefix
// [0, n): restoring it and replaying the log from n must reproduce an
// uninterrupted run. n is therefore the end of the last batch the
// worker finished, not of the last one enqueued. Single-point feeds race
// Checkpoint to keep batches in flight; each generation is checked as
// if the service crashed right after saving it, and a final Kill checks
// the real restore path.
func TestServeWALCheckpointIsLogPrefix(t *testing.T) {
	for run := int64(0); run < 20; run++ {
		checkpointPrefixRun(t, run)
	}
}

func checkpointPrefixRun(t *testing.T, run int64) {
	opts := walChaosOptions(t.TempDir())
	opts.WAL = &WALConfig{Sync: WALSyncOff} // a fast feeder races harder
	// Point i lies on direction i mod m of the net, a little farther out
	// than every point before it, so it is that direction's champion
	// until point i+m arrives: a missing point younger than m shows in
	// the summary, and checkpoints trail the log by far less than m.
	const m = 256
	opts.Directions = m
	svc, err := NewIngestService(opts)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	defer svc.Kill()
	pts := make([]Point, 16*m)
	for i := range pts {
		th := 2 * math.Pi * float64(i%m) / m
		r := 1 + 1e-7*float64(i)
		pts[i] = Point{r * math.Cos(th), r * math.Sin(th)}
	}
	acked := make(chan int, 1)
	go func() {
		n := 0
		defer func() { acked <- n }()
		for n < len(pts) {
			err := svc.Feed(pts[n])
			if errors.Is(err, ErrOverloaded) {
				continue
			}
			if err != nil {
				return // the service was killed under a failing test
			}
			n++
		}
	}()

	encode := func(s *stream.Summary) []byte {
		var buf bytes.Buffer
		if err := snapshot.Encode(&buf, s.State(), snapshot.Meta{}); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf.Bytes()
	}
	// ref is the uninterrupted run, advanced as the log grows.
	ref := stream.NewSummary(svc.opts.Directions, opts.Dim, opts.Seed)
	refN := 0
	n := -1
	for c := 0; n < 0; c++ {
		select {
		case n = <-acked: // one last checkpoint after the feeder is done
		default:
		}
		if err := svc.Checkpoint(); err != nil {
			t.Fatalf("run %d checkpoint %d: %v", run, c, err)
		}
		svc.walMu.Lock()
		end := int(svc.wal.LastSeq())
		svc.walMu.Unlock()
		gen, _, err := snapshot.NewStore(opts.SnapshotPath).Load()
		if err != nil {
			t.Fatalf("run %d: load generation %d: %v", run, c, err)
		}
		at := gen.N()
		// Restore as a crash right now would: the generation plus the
		// log's records past its position.
		for _, p := range pts[at:end] {
			gen.Add(p)
		}
		for ; refN < end; refN++ {
			ref.Add(pts[refN])
		}
		if !bytes.Equal(encode(gen), encode(ref)) {
			t.Fatalf("run %d checkpoint %d: generation at position %d plus the log to %d differs from an uninterrupted run",
				run, c, at, end)
		}
	}
	svc.Kill()

	svc2, err := NewIngestService(opts)
	if err != nil {
		t.Fatalf("run %d: restart: %v", run, err)
	}
	defer svc2.Kill()
	if got := svc2.RestoredPoints(); got != n {
		t.Fatalf("run %d: restored position %d, acknowledged %d", run, got, n)
	}
	for ; refN < n; refN++ {
		ref.Add(pts[refN])
	}
	if !bytes.Equal(walSummaryBytes(t, svc2), encode(ref)) {
		t.Fatalf("run %d: restored summary at %d differs from an uninterrupted run", run, n)
	}
}

// TestServeWALCheckpointDoesNotBlockReads holds a checkpoint inside its
// save and asserts that a cache-hit read and Stats still answer: a read
// stamps the last generation's provenance, and that must not wait for
// the encode, fsyncs and renames of the next one.
func TestServeWALCheckpointDoesNotBlockReads(t *testing.T) {
	svc, err := NewIngestService(walChaosOptions(t.TempDir()))
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	defer svc.Kill()
	pts := servePoints(500, 3)
	if err := svc.Feed(pts...); err != nil {
		t.Fatal(err)
	}
	drain(t, svc, int64(len(pts)))
	ctx := context.Background()
	if _, err := svc.Coreset(ctx, 0.1, Auto); err != nil {
		t.Fatal(err)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	svc.saveHook = func() {
		close(entered)
		<-release
	}
	saved := make(chan error, 1)
	go func() { saved <- svc.Checkpoint() }()
	<-entered

	read := make(chan error, 1)
	go func() {
		q, err := svc.Coreset(ctx, 0.1, Auto)
		if err == nil && !q.Report.CacheHit {
			err = errors.New("the read was not a cache hit")
		}
		svc.Stats()
		read <- err
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(2 * time.Second):
		t.Error("a cache-hit read and Stats still wait after 2 s for a checkpoint held in its save")
	}
	close(release)
	if err := <-saved; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
}
