package mincore

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"mincore/internal/data"
	"mincore/internal/obs"
	"mincore/internal/stream"
)

// servePins records the served path's outputs for the ingest scripts of
// servePinScript (dD) and servePinTieScript (d3ties), driven through a
// WAL-backed registry tenant:
//
//   - dD/state@N: the tenant's summary after N points — its slot count,
//     point count and the FNV-64a hash of every slot's index, value bits
//     and champion bits.
//   - dD/w1/updates: the mincore_stream_champion_updates_total delta of
//     the whole script on the tenant's one ingest worker.
//   - dD/replay-updates: the same delta for the log replay after a Kill,
//     from the checkpoint at 10k points to the end of the script.
//   - dD/coreset/ε: Tenant.Coreset at ε after the whole script, as
//     pinRow renders it.
//
// The dD rows were written before the champion floor and the
// version-keyed serve cache went in, and the d3ties rows before each
// tenant kept a single summary (from a tenant running one ingest worker
// then), so a change to what the served path returns fails
// TestServedPathPinned.
var servePins = map[string]string{
	"d3/coreset/0.02":       "n=27 idx=0xdd22ef745e3a072b loss=0x3f8afdc8e2ab9600 algo=auto fb=[]",
	"d3/coreset/0.10":       "n=20 idx=0xeca2c716720f08cf loss=0x3fb7b69001aecc60 algo=auto fb=[]",
	"d3/coreset/0.20":       "n=13 idx=0x02c06592bf936e54 loss=0x3fc7a970dc8206e8 algo=auto fb=[]",
	"d3/replay-updates":     "667",
	"d3/state@1000":         "slots=256 n=1000 hash=0xa7468be910a9c782",
	"d3/state@10000":        "slots=256 n=10000 hash=0xbf83b3c37496a2b8",
	"d3/state@12000":        "slots=256 n=12000 hash=0x53d850efce0bb0f2",
	"d3/w1/updates":         "3208",
	"d3ties/coreset/0.02":   "n=38 idx=0x46c17d8afccffb73 loss=0x3f941cc76c338a00 algo=auto fb=[]",
	"d3ties/coreset/0.10":   "n=26 idx=0x1d3047a9506e31d6 loss=0x3fb7978de972b0f0 algo=auto fb=[]",
	"d3ties/coreset/0.20":   "n=18 idx=0xa44d4550acfdc4db loss=0x3fc77e29004ffeec algo=auto fb=[]",
	"d3ties/replay-updates": "246",
	"d3ties/state@1000":     "slots=256 n=1000 hash=0xa7468be910a9c782",
	"d3ties/state@10000":    "slots=256 n=10000 hash=0xbf83b3c37496a2b8",
	"d3ties/state@12000":    "slots=256 n=12000 hash=0x8877e6b31f775f49",
	"d3ties/w1/updates":     "2787",
	"d4/coreset/0.02":       "n=61 idx=0x3d065f8e51421113 loss=0x3f901ba6c31579e0 algo=auto fb=[]",
	"d4/coreset/0.10":       "n=42 idx=0x62c276f8afc3ec6e loss=0x3fb98daea163ae48 algo=auto fb=[]",
	"d4/coreset/0.20":       "n=28 idx=0x92d9594d693f60c5 loss=0x3fc78084f72f72c0 algo=auto fb=[]",
	"d4/replay-updates":     "2136",
	"d4/state@1000":         "slots=1008 n=1000 hash=0x874b06cc133bfbc1",
	"d4/state@10000":        "slots=1008 n=10000 hash=0x2de72492d9472db6",
	"d4/state@12000":        "slots=1008 n=12000 hash=0x7f2ba572317db82e",
	"d4/w1/updates":         "11801",
	"d5/coreset/0.02":       "n=115 idx=0xeeb3a3a39f1e13d6 loss=0x0000000000000000 algo=auto fb=[]",
	"d5/coreset/0.10":       "n=98 idx=0x717a7b9bde5ddb4d loss=0x3fb974d46ffa03c0 algo=auto fb=[]",
	"d5/coreset/0.20":       "n=56 idx=0xe767bf9306d2cb11 loss=0x3fc938cfc3688a4c algo=auto fb=[]",
	"d5/replay-updates":     "4181",
	"d5/state@1000":         "slots=2010 n=1000 hash=0xa18540ac997368fa",
	"d5/state@10000":        "slots=2010 n=10000 hash=0xd2a4e327b1c55f89",
	"d5/state@12000":        "slots=2010 n=12000 hash=0x07d20b0163fa5a74",
	"d5/w1/updates":         "23068",
}

// servePinDirections sizes each dimension's sketch: the net for sketch
// ε 0.10 at α 0.25 in d 3, smaller ones above so the test stays fast.
var servePinDirections = map[int]int{3: 250, 4: 1000, 5: 2000}

// servePinScript is the ingest script of dimension d, 12,000 points: 10k
// NORMAL points (internal/data, seed d), then 2,000 that mix repeats of
// earlier points, interior points and fresh NORMAL points (seed 100+d)
// scaled by 1.25. The scaling stays because the pins were written on
// it; servePinTieScript is the unscaled script whose fresh points tie.
func servePinScript(d int) []Point {
	pts := toPoints(data.Normal(10000, d, int64(d)).Points)
	fresh := toPoints(data.Normal(700, d, int64(100+d)).Points)
	for _, p := range fresh {
		for j := range p {
			p[j] *= 1.25
		}
	}
	for i := 0; i < 2000; i++ {
		switch i % 3 {
		case 0: // already seen
			pts = append(pts, append(Point(nil), pts[(i*7919)%10000]...))
		case 1: // interior: an earlier point pulled toward the origin
			p := append(Point(nil), pts[(i*104729)%10000]...)
			for j := range p {
				p[j] *= 0.25
			}
			pts = append(pts, p)
		default:
			pts = append(pts, fresh[i/3])
		}
	}
	return pts
}

// servePinTieScript is a d-3 script of exact ties between distinct
// points: the 10k NORMAL points of servePinScript(3), then a second
// NORMAL cloud of 2,000 points (seed 4), unscaled. NORMAL rescales each
// coordinate onto [−1,1], so both clouds hold exact ±1 coordinates and
// tie on the axis directions, where the first cloud's champion stays.
func servePinTieScript() []Point {
	pts := toPoints(data.Normal(10000, 3, 3).Points)
	return append(pts, toPoints(data.Normal(2000, 3, 4).Points)...)
}

// stateRow renders a summary state as its pin string.
func stateRow(st stream.State) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, sl := range st.Slots {
		put(uint64(sl.Index))
		put(math.Float64bits(sl.Value))
		for _, v := range sl.Point {
			put(math.Float64bits(v))
		}
	}
	return fmt.Sprintf("slots=%d n=%d hash=%#016x", len(st.Slots), st.N, h.Sum64())
}

// championUpdates reads the process-wide champion-update counter.
func championUpdates() float64 {
	return obs.Default.Flatten()["mincore_stream_champion_updates_total"]
}

// TestServedPathPinned drives each ingest script through a registry
// tenant with a write-ahead log, checks the summary, the update count
// and the served coresets against servePins, then kills the tenant after
// a checkpoint at 10k points and checks that the restore — the snapshot
// plus the log replayed past it — lands on the same summary and serves
// the same coreset.
func TestServedPathPinned(t *testing.T) {
	if !obs.On() {
		obs.Enable()
		defer obs.Disable()
	}
	got := map[string]string{}
	inputs := []struct {
		name string
		d    int
		pts  []Point
	}{
		{"d3", 3, servePinScript(3)},
		{"d4", 4, servePinScript(4)},
		{"d5", 5, servePinScript(5)},
		{"d3ties", 3, servePinTieScript()},
	}
	for _, in := range inputs {
		t.Run(in.name+"/w1", func(t *testing.T) {
			servedPathRun(t, in.name, in.d, in.pts, got)
		})
	}
	for k, v := range got {
		if want, ok := servePins[k]; !ok {
			t.Errorf("no pin: %q: %q,", k, v)
		} else if v != want {
			t.Errorf("%s: got %s, want %s", k, v, want)
		}
	}
	for k := range servePins {
		if _, ok := got[k]; !ok {
			t.Errorf("pin %s was not produced", k)
		}
	}
}

// servedPathRun is one TestServedPathPinned leg. A row it produces twice,
// before the Kill and after the restore, must agree with itself.
func servedPathRun(t *testing.T, name string, d int, pts []Point, got map[string]string) {
	record := func(key, v string) {
		t.Helper()
		if prev, ok := got[key]; ok && prev != v {
			t.Errorf("%s: %s here, %s before", key, v, prev)
		}
		got[key] = v
	}
	opts := RegistryOptions{
		Dim: d, Seed: 11,
		SnapshotDir:        t.TempDir(),
		CheckpointInterval: -1,
		BuildWorkers:       1,
	}
	cfg := TenantConfig{ID: "pins", Directions: servePinDirections[d]}
	reg, err := NewTenantRegistry(opts)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	defer reg.Close()
	tnt, err := reg.CreateTenant(cfg)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	svc := tnt.Service()
	state := func(s *IngestService) stream.State {
		t.Helper()
		sum, err := s.Summary()
		if err != nil {
			t.Fatalf("summary: %v", err)
		}
		return sum.s.State()
	}
	feed := func(lo, hi int) {
		t.Helper()
		for ; lo < hi; lo += 100 {
			if err := tnt.Feed(pts[lo:min(lo+100, hi)]...); err != nil {
				t.Fatalf("feed at %d: %v", lo, err)
			}
		}
		drain(t, svc, int64(hi))
	}
	coresets := func(tnt *Tenant, epss ...float64) {
		t.Helper()
		for _, eps := range epss {
			q, err := tnt.Coreset(context.Background(), eps, Auto)
			record(fmt.Sprintf("%s/coreset/%.2f", name, eps), pinRow(q, err, false))
		}
	}

	before := championUpdates()
	feed(0, 1000)
	record(fmt.Sprintf("%s/state@1000", name), stateRow(state(svc)))
	feed(1000, 10000)
	record(fmt.Sprintf("%s/state@10000", name), stateRow(state(svc)))
	if err := tnt.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	feed(10000, len(pts))
	all := stateRow(state(svc))
	record(fmt.Sprintf("%s/state@%d", name, len(pts)), all)
	record(fmt.Sprintf("%s/w1/updates", name), fmt.Sprint(championUpdates()-before))
	coresets(tnt, 0.20, 0.10, 0.02)

	svc.Kill()
	before = championUpdates()
	reg2, err := NewTenantRegistry(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer reg2.Close()
	replayed := championUpdates() - before
	tnt2, err := reg2.Tenant(cfg.ID)
	if err != nil {
		t.Fatalf("restored tenant: %v", err)
	}
	if got := tnt2.Service().RestoredPoints(); got != len(pts) {
		t.Fatalf("restored position %d, want %d", got, len(pts))
	}
	if got := stateRow(state(tnt2.Service())); got != all {
		t.Fatalf("restored summary %s, want %s", got, all)
	}
	record(fmt.Sprintf("%s/replay-updates", name), fmt.Sprint(replayed))
	coresets(tnt2, 0.10)
}
