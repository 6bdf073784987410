package mincore

import (
	"context"
	"fmt"
	"testing"

	"mincore/internal/data"
)

// TestAutoDominanceGraphOnlyInD3 pins where Auto runs its DSMC leg. In
// d ≥ 4 Auto is SCMC alone: neither single builds over the ε ladder nor
// a CoresetSweep on a fresh Coreseter may build the dominance graph, and
// every build's trace holds an scmc span and no dg-build or dsmc-greedy
// span. In d = 3 Auto still races DSMC against SCMC: both legs trace,
// and the sweep builds the graph.
func TestAutoDominanceGraphOnlyInD3(t *testing.T) {
	ladder := []float64{0.20, 0.10, 0.05, 0.02}
	for _, d := range []int{3, 4, 5} {
		pts := toPoints(data.Normal(1000, d, 1).Points)
		race := d == 3
		checkTrace := func(label string, q *Coreset) {
			t.Helper()
			tr := q.Report.Trace
			if tr.Find("scmc") == nil {
				t.Errorf("%s: no scmc span:\n%s", label, tr)
			}
			for _, leg := range []string{"dg-build", "dsmc-greedy"} {
				if got := tr.Find(leg) != nil; got != race {
					t.Errorf("%s: %s span present = %v, want %v:\n%s", label, leg, got, race, tr)
				}
			}
		}

		cs, err := New(pts, WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range ladder {
			q, err := cs.Coreset(eps, Auto)
			if err != nil {
				t.Fatalf("d=%d ε=%.2f: %v", d, eps, err)
			}
			checkTrace(fmt.Sprintf("d=%d Coreset(%.2f)", d, eps), q)
		}
		if built := cs.dg != nil; built != race {
			t.Errorf("d=%d: dominance graph built by Coreset = %v, want %v", d, built, race)
		}

		fresh, err := New(pts, WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		qs, err := fresh.CoresetSweep(context.Background(), ladder, Auto)
		if err != nil {
			t.Fatalf("d=%d sweep: %v", d, err)
		}
		for i, q := range qs {
			checkTrace(fmt.Sprintf("d=%d CoresetSweep(%.2f)", d, ladder[i]), q)
		}
		if built := fresh.dg != nil; built != race {
			t.Errorf("d=%d: dominance graph built by CoresetSweep = %v, want %v", d, built, race)
		}
	}
}
