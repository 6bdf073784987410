package mincore

import (
	"fmt"
	"math"
	"testing"
)

// withHooks sets the unexported reference-path hook: coldLP solves
// every dominance-graph edge LP cold.
func withHooks(coldLP bool) Option {
	return optionFunc(func(o *Options) { o.coldLP = coldLP })
}

// coresetsEqualBitwise asserts two coresets are identical: same indices
// in the same order and bitwise-equal measured loss.
func coresetsEqualBitwise(t *testing.T, a, b *Coreset, label string) {
	t.Helper()
	if len(a.Indices) != len(b.Indices) {
		t.Fatalf("%s: |Q| %d vs %d", label, len(a.Indices), len(b.Indices))
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			t.Fatalf("%s: index %d: %d vs %d", label, i, a.Indices[i], b.Indices[i])
		}
	}
	if math.Float64bits(a.Loss) != math.Float64bits(b.Loss) {
		t.Fatalf("%s: loss %v (%x) vs %v (%x)", label,
			a.Loss, math.Float64bits(a.Loss), b.Loss, math.Float64bits(b.Loss))
	}
}

// The determinism matrix: {warm-start on/off} × worker counts must all
// produce the same coreset, index for index and loss bit for bit.
func TestWarmStartWorkerMatrix(t *testing.T) {
	pts := messyPoints(250, 3, 55)
	var ref *Coreset
	for _, noWarm := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			cs, err := New(pts, WithSeed(7), WithWorkers(workers), withHooks(noWarm))
			if err != nil {
				t.Fatal(err)
			}
			q, err := cs.Coreset(0.1, Auto)
			if err != nil {
				t.Fatalf("warm=%v workers=%d: %v", !noWarm, workers, err)
			}
			if ref == nil {
				ref = q
				continue
			}
			coresetsEqualBitwise(t, q, ref, fmt.Sprintf("warm=%v workers=%d", !noWarm, workers))
		}
	}
}
