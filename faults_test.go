package mincore_test

// Deterministic fault-injection tests for the verify-and-repair
// pipeline: every escalation edge — re-seeded retry, algorithm
// downgrade, and the final typed ErrUncertified degrade — is driven by
// seeded failpoints rather than hoping a numerical failure shows up.
//
// The failpoint registry is process-global, so none of these tests may
// call t.Parallel, and they all force Workers = 1 so the failure
// schedule is exactly reproducible.

import (
	"errors"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"mincore"
	"mincore/internal/faultinject"
)

func faultPoints(n, d int, seed int64) []mincore.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]mincore.Point, n)
	for i := range pts {
		pts[i] = make(mincore.Point, d)
		for j := range pts[i] {
			pts[i][j] = rng.NormFloat64()
		}
	}
	return pts
}

// newFaultCoreseter builds the Coreseter BEFORE enabling injection, so
// preprocessing (hull extraction, normalization) is never the victim.
func newFaultCoreseter(t *testing.T, n, d int, seed int64) *mincore.Coreseter {
	t.Helper()
	cs, err := mincore.New(faultPoints(n, d, seed), mincore.WithSeed(seed), mincore.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// A dominance-graph build that fails exactly once must be healed by the
// re-seeded retry: same algorithm, one retry, certified result.
func TestFaultRetryRecoversDGBuild(t *testing.T) {
	cs := newFaultCoreseter(t, 150, 2, 31)
	faultinject.Enable(faultinject.Config{Rate: 1, Times: 1, Sites: []faultinject.Site{faultinject.SiteDGBuild}})
	defer faultinject.Disable()

	q, err := cs.Coreset(0.1, mincore.DSMC)
	if err != nil {
		t.Fatalf("retry should have recovered: %v", err)
	}
	rep := q.Report
	if rep == nil || !rep.Certified {
		t.Fatalf("result not certified: %+v", rep)
	}
	if rep.Algorithm != mincore.DSMC {
		t.Fatalf("retry escalated to %s, want dsmc", rep.Algorithm)
	}
	if rep.Retries < 1 {
		t.Fatalf("report shows no retry: %+v", rep)
	}
	if len(rep.Fallbacks) == 0 || rep.Fallbacks[0] != "retry(dsmc)#1" {
		t.Fatalf("fallback trail %v, want leading retry(dsmc)#1", rep.Fallbacks)
	}
	if got := cs.Loss(q.Indices); got > 0.1+1e-6 {
		t.Fatalf("certified coreset has real loss %v", got)
	}
}

// A dominance-graph build that keeps failing must downgrade DSMC to the
// next chain entry (SCMC), still producing a certified coreset.
func TestFaultDowngradeDSMCToSCMC(t *testing.T) {
	cs := newFaultCoreseter(t, 150, 2, 37)
	faultinject.Enable(faultinject.Config{Rate: 1, Sites: []faultinject.Site{faultinject.SiteDGBuild}})
	defer faultinject.Disable()

	q, err := cs.Coreset(0.1, mincore.DSMC)
	if err != nil {
		t.Fatalf("downgrade should have recovered: %v", err)
	}
	rep := q.Report
	if rep == nil || !rep.Certified {
		t.Fatalf("result not certified: %+v", rep)
	}
	if rep.Requested != mincore.DSMC || rep.Algorithm != mincore.SCMC {
		t.Fatalf("requested %s produced %s, want dsmc→scmc", rep.Requested, rep.Algorithm)
	}
	if q.Algorithm != mincore.SCMC {
		t.Fatalf("coreset labeled %s, want scmc", q.Algorithm)
	}
	found := false
	for _, f := range rep.Fallbacks {
		if f == "fallback(scmc)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fallback trail %v missing fallback(scmc)", rep.Fallbacks)
	}
	if got := cs.Loss(q.Indices); got > 0.1+1e-6 {
		t.Fatalf("certified coreset has real loss %v", got)
	}
}

// In d ≥ 4 Auto is SCMC alone, so a failed SCMC escalates to Auto's
// re-seeded retry and never to an in-Auto DSMC: with the loss oracle and
// the dominance-graph build each failing once, the build certifies on
// its first retry without reaching the dominance-graph failpoint. In
// d = 3 Auto's race still builds the graph, so the failpoint is hit.
func TestFaultAutoSCMCRetriesWithoutDSMC(t *testing.T) {
	for _, d := range []int{3, 4, 5} {
		cs := newFaultCoreseter(t, 300, d, 53)
		faultinject.Enable(faultinject.Config{Rate: 1, Times: 1, Sites: []faultinject.Site{
			faultinject.SiteLossLP, faultinject.SiteDGBuild,
		}})
		q, err := cs.Coreset(0.1, mincore.Auto)
		dgHits := faultinject.Hits(faultinject.SiteDGBuild)
		faultinject.Disable()
		if d == 3 {
			if dgHits == 0 {
				t.Fatalf("d=3: dominance-graph failpoint never evaluated")
			}
			continue
		}
		if err != nil {
			t.Fatalf("d=%d: retry should have recovered: %v", d, err)
		}
		rep := q.Report
		if !rep.Certified || rep.Algorithm != mincore.Auto {
			t.Fatalf("d=%d: certified %v by %s, want a certified auto build", d, rep.Certified, rep.Algorithm)
		}
		if got := strings.Join(rep.Fallbacks, " "); got != "retry(auto)#1" {
			t.Fatalf("d=%d: trail [%s], want [retry(auto)#1]", d, got)
		}
		if dgHits != 0 {
			t.Fatalf("d=%d: dominance-graph failpoint evaluated %d times, want 0", d, dgHits)
		}
		if got := cs.Loss(q.Indices); got > 0.1+1e-6 {
			t.Fatalf("d=%d: certified coreset has real loss %v", d, got)
		}
	}
}

// A certification oracle that always reads total loss must exhaust the
// whole chain and degrade to a typed *UncertifiedError whose best-effort
// coreset is nevertheless usable.
func TestFaultUncertifiedDegrade(t *testing.T) {
	cs := newFaultCoreseter(t, 120, 2, 41)
	faultinject.Enable(faultinject.Config{Rate: 1, Sites: []faultinject.Site{faultinject.SiteCertify}})

	_, err := cs.Coreset(0.1, mincore.OptMC)
	faultinject.Disable()
	if err == nil {
		t.Fatal("corrupted certification should not certify")
	}
	if !errors.Is(err, mincore.ErrUncertified) {
		t.Fatalf("err = %v, want errors.Is ErrUncertified", err)
	}
	var ue *mincore.UncertifiedError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %T, want *UncertifiedError", err)
	}
	if ue.Coreset == nil || ue.Coreset.Size() == 0 {
		t.Fatal("no best-effort coreset attached")
	}
	if ue.Report == nil || ue.Report.Certified {
		t.Fatalf("report should record the failure: %+v", ue.Report)
	}
	// Every fallback rung was exercised: optmc + dsmc + scmc + ann +
	// stream, each tried at least twice (first try + one retry).
	if ue.Report.Attempts < 10 {
		t.Fatalf("only %d attempts, want the full chain", ue.Report.Attempts)
	}
	// The best-effort coreset is real: OptMC built it correctly and only
	// the certification read was corrupted.
	if got := cs.Loss(ue.Coreset.Indices); got > 0.1+1e-6 {
		t.Fatalf("best-effort coreset has real loss %v", got)
	}
}

// With every LP in the process failing at the pivot, nothing that needs
// an LP can be measured. A build may still certify, but only with a
// coreset that needs none: one containing every extreme point, whose
// loss is exactly 0 because each owner of the exact loss oracle
// coincides with a point of Q and no LP runs. Any other build must
// surface a typed uncertified error that also unwraps to the
// numerical-instability sentinel. On the small cloud the fallback chain
// reaches ANN, whose result holds the whole extreme set; on the large
// one no fallback does. Both branches must occur, so neither is vacuous.
func TestFaultSimplexPivotTotalFailure(t *testing.T) {
	certified, uncertified := 0, 0
	for _, n := range []int{100, 1000} {
		cs := newFaultCoreseter(t, n, 3, 43)
		faultinject.Enable(faultinject.Config{Rate: 1, Sites: []faultinject.Site{
			faultinject.SiteSimplexPivot, faultinject.SiteLossLP, faultinject.SiteDGBuild,
		}})
		q, err := cs.Coreset(0.1, mincore.DSMC)
		dgHits := faultinject.Hits(faultinject.SiteDGBuild)
		faultinject.Disable()
		if dgHits == 0 {
			t.Fatalf("n=%d: dominance-graph failpoint never evaluated", n)
		}
		if err == nil {
			certified++
			in := make(map[int]bool, len(q.Indices))
			for _, i := range q.Indices {
				in[i] = true
			}
			for _, x := range cs.Instance().X {
				if !in[x] {
					t.Fatalf("n=%d: certified under total LP failure without extreme point %d", n, x)
				}
			}
			if q.Loss != 0 || q.Report == nil || !q.Report.Certified || q.Report.CertifiedLoss != 0 {
				t.Fatalf("n=%d: certified under total LP failure at loss %v: %+v", n, q.Loss, q.Report)
			}
			continue
		}
		uncertified++
		if !errors.Is(err, mincore.ErrUncertified) {
			t.Fatalf("n=%d: err = %v, want errors.Is ErrUncertified", n, err)
		}
		if !errors.Is(err, mincore.ErrNumericalInstability) {
			t.Fatalf("n=%d: err = %v, want errors.Is ErrNumericalInstability", n, err)
		}
	}
	if certified == 0 || uncertified == 0 {
		t.Fatalf("%d certified and %d uncertified builds; both branches must occur", certified, uncertified)
	}
}

// Seeded stochastic matrix: under a moderate failure rate at every site,
// each build either certifies (and its loss really meets ε) or fails
// with a typed error — never a panic, never a silent bad coreset. The
// seed comes from MINCORE_FAULT_SEED so CI can sweep a matrix. The 2D
// cases cover OptMC's chain and DSMC's; auto-d4 covers Auto's d ≥ 4
// chain, SCMC → retry → ANN → stream sketch.
func TestFaultSeededMatrix(t *testing.T) {
	seed := int64(1)
	if v := os.Getenv("MINCORE_FAULT_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("MINCORE_FAULT_SEED=%q: %v", v, err)
		}
		seed = n
	}
	for _, tc := range []struct {
		name string
		algo mincore.Algorithm
		d    int
	}{
		{"auto", mincore.Auto, 2},
		{"dsmc", mincore.DSMC, 2},
		{"scmc", mincore.SCMC, 2},
		{"auto-d4", mincore.Auto, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := newFaultCoreseter(t, 120, tc.d, 47+seed)
			faultinject.Enable(faultinject.Config{Seed: seed, Rate: 0.35})

			q, err := cs.Coreset(0.1, tc.algo)
			faultinject.Disable()
			switch {
			case err == nil:
				if q.Report == nil || !q.Report.Certified {
					t.Fatalf("nil error without certification: %+v", q.Report)
				}
				if got := cs.Loss(q.Indices); got > 0.1+1e-6 {
					t.Fatalf("certified coreset has real loss %v", got)
				}
			case errors.Is(err, mincore.ErrUncertified),
				errors.Is(err, mincore.ErrNumericalInstability),
				errors.Is(err, mincore.ErrInfeasible):
				// typed failure: acceptable outcome under injection
			default:
				t.Fatalf("untyped failure under injection: %v", err)
			}
		})
	}
}
