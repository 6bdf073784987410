package kernel

import (
	"math/rand"
	"testing"

	"mincore/internal/core"
	"mincore/internal/geom"
)

func fatInstance(t testing.TB, n, d int, seed int64) *core.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		pts[i] = geom.NewVector(d)
		for j := range pts[i] {
			pts[i][j] = rng.NormFloat64()
		}
	}
	inst, err := core.NewInstance(pts)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestANNValidCoreset(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		inst := fatInstance(t, 500, d, int64(d)*7)
		for _, eps := range []float64{0.1, 0.2} {
			q, err := ANN(inst.Pts, eps, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(q) == 0 {
				t.Fatal("empty kernel")
			}
			if l := inst.Loss(q); l > eps+1e-9 {
				t.Fatalf("d=%d ε=%v: ANN kernel loss %v exceeds ε (|Q|=%d)", d, eps, l, len(q))
			}
		}
	}
}

func TestANNLargerThanMC(t *testing.T) {
	// The headline of the paper: MC algorithms find much smaller coresets
	// than the kernel baseline.
	inst := fatInstance(t, 2000, 2, 11)
	eps := 0.02
	ann, err := ANN(inst.Pts, eps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := inst.OptMC(eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt) > len(ann) {
		t.Fatalf("OptMC (%d) larger than ANN (%d)?!", len(opt), len(ann))
	}
}

func TestANNSizeShrinksWithEps(t *testing.T) {
	inst := fatInstance(t, 3000, 3, 13)
	small, err := ANN(inst.Pts, 0.05, Options{})
	if err != nil {
		t.Fatal(err)
	}
	large, err := ANN(inst.Pts, 0.3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(large) > len(small) {
		t.Fatalf("kernel grew with ε: %d (ε=0.3) > %d (ε=0.05)", len(large), len(small))
	}
}

func TestGridSize(t *testing.T) {
	if GridSize(0.01, 2, Options{}) <= GridSize(0.25, 2, Options{}) {
		t.Fatal("grid should grow as ε shrinks")
	}
	if GridSize(0.1, 6, Options{}) <= GridSize(0.1, 3, Options{}) {
		t.Fatal("grid should grow with d")
	}
	if GridSize(1e-9, 9, Options{}) > 4<<20 {
		t.Fatal("grid size must be capped")
	}
}

func TestANNRejectsBadInput(t *testing.T) {
	if _, err := ANN(nil, 0.1, Options{}); err == nil {
		t.Fatal("empty input should error")
	}
	pts := []geom.Vector{{1, 0}, {0, 1}}
	if _, err := ANN(pts, 0, Options{}); err == nil {
		t.Fatal("ε=0 should error")
	}
	if _, err := ANN(pts, 1, Options{}); err == nil {
		t.Fatal("ε=1 should error")
	}
}

func TestDirectionGridValid(t *testing.T) {
	inst := fatInstance(t, 500, 2, 17)
	q, err := DirectionGrid(inst.Pts, 720, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 720 directions at 0.5° spacing: loss below ~1−cos(0.25°)/α margin;
	// generous check at 0.05.
	if l := inst.Loss(q); l > 0.05 {
		t.Fatalf("direction-grid loss %v too high", l)
	}
	if _, err := DirectionGrid(nil, 10, 1); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := DirectionGrid(inst.Pts, 0, 1); err == nil {
		t.Fatal("zero directions should error")
	}
}

func TestANNValidOnUniformBox(t *testing.T) {
	// Box-shaped data stresses the kernel's corners.
	rng := rand.New(rand.NewSource(19))
	pts := make([]geom.Vector, 3000)
	for i := range pts {
		pts[i] = geom.Vector{2*rng.Float64() - 1, 2*rng.Float64() - 1, 2*rng.Float64() - 1}
	}
	inst, err := core.NewInstance(pts)
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.1
	q, err := ANN(pts, eps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l := inst.Loss(q); l > eps+1e-9 {
		t.Fatalf("uniform box: ANN loss %v exceeds ε (|Q|=%d)", l, len(q))
	}
}
