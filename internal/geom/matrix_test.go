package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("At/Set broken")
	}
	if !Equal(m.Row(1), Vector{0, 0, 5}) {
		t.Fatalf("Row = %v", m.Row(1))
	}
}

func TestIdentityMulVec(t *testing.T) {
	id := Identity(3)
	v := Vector{1, -2, 3}
	if !Equal(id.MulVec(v), v) {
		t.Fatal("I·v != v")
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 0)
	m.Set(0, 1, -1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	// 90° rotation.
	if !ApproxEqual(m.MulVec(Vector{1, 0}), Vector{0, 1}, 1e-12) {
		t.Fatal("rotation wrong")
	}
}

func TestMatrixMulTranspose(t *testing.T) {
	a := NewMatrix(2, 3)
	for i := 0; i < 6; i++ {
		a.Data[i] = float64(i + 1)
	}
	b := a.Transpose()
	c := a.Mul(b) // 2x2
	// c[0][0] = 1+4+9 = 14, c[0][1] = 4+10+18 = 32
	if c.At(0, 0) != 14 || c.At(0, 1) != 32 || c.At(1, 1) != 77 {
		t.Fatalf("Mul wrong: %+v", c)
	}
}

func TestInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		inv, ok := m.Invert()
		if !ok {
			continue // singular draw; fine
		}
		prod := m.Mul(inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(prod.At(i, j)-want) > 1e-8 {
					t.Fatalf("m·m⁻¹ != I at (%d,%d): %v", i, j, prod.At(i, j))
				}
			}
		}
	}
}

func TestInvertSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, ok := m.Invert(); ok {
		t.Fatal("singular matrix inverted")
	}
}

func TestGramSchmidt(t *testing.T) {
	vs := []Vector{{1, 1, 0}, {1, 0, 0}, {2, 1, 0}} // third is dependent
	b := GramSchmidt(vs)
	if len(b) != 2 {
		t.Fatalf("expected 2 basis vectors, got %d", len(b))
	}
	for i := range b {
		if !almostEq(b[i].Norm(), 1, 1e-10) {
			t.Fatal("not unit")
		}
		for j := i + 1; j < len(b); j++ {
			if math.Abs(Dot(b[i], b[j])) > 1e-10 {
				t.Fatal("not orthogonal")
			}
		}
	}
}

func TestCompleteBasis(t *testing.T) {
	start := GramSchmidt([]Vector{{1, 2, 3, 4}})
	b := CompleteBasis(4, start)
	if len(b) != 4 {
		t.Fatalf("expected full basis, got %d", len(b))
	}
	for i := range b {
		for j := i + 1; j < len(b); j++ {
			if math.Abs(Dot(b[i], b[j])) > 1e-9 {
				t.Fatal("not orthogonal")
			}
		}
		if !almostEq(b[i].Norm(), 1, 1e-9) {
			t.Fatal("not unit")
		}
	}
}

// AppendKey's layout is fixed: each coordinate's Float64bits as 8
// little-endian bytes, in order, appended after whatever b holds. Exact
// identity, not tolerance: −0 and 0 get different keys.
func TestAppendKeyLayout(t *testing.T) {
	v := Vector{1, 0, math.Copysign(0, -1), 3.5e-300, math.Inf(-1)}
	var want []byte
	for _, c := range v {
		u := math.Float64bits(c)
		for i := 0; i < 8; i++ {
			want = append(want, byte(u>>(8*i)))
		}
	}
	if got := AppendKey(nil, v); string(got) != string(want) {
		t.Fatalf("AppendKey = %x, want %x", got, want)
	}
	if got := AppendKey([]byte("p:"), v); string(got) != "p:"+string(want) {
		t.Fatalf("AppendKey with prefix = %x", got)
	}
	if string(AppendKey(nil, Vector{0})) == string(AppendKey(nil, Vector{math.Copysign(0, -1)})) {
		t.Fatal("0 and −0 share a key")
	}
}

func TestPerturbDedup(t *testing.T) {
	pts := []Vector{{1, 1}, {1, 1}, {2, 2}}
	dd := Dedup(pts)
	if len(dd) != 2 {
		t.Fatalf("Dedup len = %d", len(dd))
	}
	pp := Perturb(pts, 1e-9, 1)
	if len(pp) != 3 {
		t.Fatal("Perturb must preserve length")
	}
	if Equal(pp[0], pp[1]) {
		t.Fatal("Perturb should separate duplicates")
	}
	if Dist(pp[0], pts[0]) > 1e-8 {
		t.Fatal("Perturb moved point too far")
	}
	// Determinism.
	pp2 := Perturb(pts, 1e-9, 1)
	for i := range pp {
		if !Equal(pp[i], pp2[i]) {
			t.Fatal("Perturb not deterministic")
		}
	}
}
