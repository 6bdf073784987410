//go:build !race

package mincore

import (
	"fmt"
	"slices"
	"testing"

	"mincore/internal/data"
)

// TestAutoSCMCNoLargerThanDSMCHighD extends the premise of the d ≥ 4
// policy past the pinned inputs, which stop at d 5: on small NORMAL,
// UNIFORM and Colors clouds in d 6, 7 and 9, at every ε of the ladder,
// SCMC's coreset is no larger than DSMC's, stays below ξ (SCMC did not
// give up and return X, which would certify without reaching the repair
// chain), and Auto returns SCMC's indices. If it fails, the d ≥ 4 policy
// needs revisiting. It checks sizes, not concurrency, and its DSMC legs
// take about 10x longer under the race detector, so it runs plain only.
func TestAutoSCMCNoLargerThanDSMCHighD(t *testing.T) {
	clouds := []struct {
		name string
		n    int
	}{{"normal-6d", 1000}, {"uniform-7d", 400}, {"colors", 400}}
	for _, cl := range clouds {
		ds, err := data.ByName(cl.name, cl.n, 1)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := New(toPoints(ds.Points), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.20, 0.10, 0.05, 0.02} {
			label := fmt.Sprintf("%s (d %d, ξ %d) ε=%.2f", cl.name, cs.Dim(), cs.NumExtreme(), eps)
			qs, err := cs.Coreset(eps, SCMC)
			if err != nil {
				t.Fatalf("%s: SCMC: %v", label, err)
			}
			qd, err := cs.Coreset(eps, DSMC)
			if err != nil {
				t.Fatalf("%s: DSMC: %v", label, err)
			}
			qa, err := cs.Coreset(eps, Auto)
			if err != nil {
				t.Fatalf("%s: Auto: %v", label, err)
			}
			if qs.Size() > qd.Size() {
				t.Errorf("%s: SCMC |Q| %d exceeds DSMC |Q| %d", label, qs.Size(), qd.Size())
			}
			if qs.Size() >= cs.NumExtreme() {
				t.Errorf("%s: SCMC returned all %d extreme points", label, qs.Size())
			}
			if !slices.Equal(qa.Indices, qs.Indices) {
				t.Errorf("%s: Auto |Q| %d is not SCMC's set (|Q| %d)", label, qa.Size(), qs.Size())
			}
		}
	}
}
