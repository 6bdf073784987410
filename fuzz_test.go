package mincore_test

// Native Go fuzz target for the public build pipeline: arbitrary raw
// bytes become points (including NaN, ±Inf, subnormals, and wildly
// anisotropic magnitudes), and the contract under test is the
// robustness one — New and Coreset never panic, and a nil error always
// comes with a certified loss within ε.

import (
	"encoding/binary"
	"math"
	"testing"

	"mincore"
)

// FuzzNewCoreset decodes the fuzzer's bytes into a point set and runs
// the full certified build. Run the stored corpus with `go test`; mine
// new inputs with `make fuzz`.
func FuzzNewCoreset(f *testing.F) {
	// Seed corpus: a tiny square, a degenerate line, a NaN carrier, and
	// an anisotropic set, at assorted ε and d.
	square := make([]byte, 0, 64)
	for _, v := range []float64{0, 0, 0, 1, 1, 0, 1, 1} {
		square = binary.LittleEndian.AppendUint64(square, math.Float64bits(v))
	}
	f.Add(square, uint16(100), uint8(1))
	line := make([]byte, 0, 48)
	for _, v := range []float64{0, 0, 1, 2, 2, 4} {
		line = binary.LittleEndian.AppendUint64(line, math.Float64bits(v))
	}
	f.Add(line, uint16(500), uint8(1))
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	f.Add(append(append([]byte{}, square...), nan...), uint16(42), uint8(0))
	aniso := make([]byte, 0, 64)
	for _, v := range []float64{1e12, 1e-9, -1e12, 2e-9, 5e11, -1e-9, -7e11, 3e-9} {
		aniso = binary.LittleEndian.AppendUint64(aniso, math.Float64bits(v))
	}
	f.Add(aniso, uint16(900), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, epsRaw uint16, dRaw uint8) {
		d := 1 + int(dRaw)%3                        // 1..3
		eps := (float64(epsRaw%999) + 0.5) / 1000.0 // (0,1)
		coords := len(data) / 8
		n := coords / d
		if n < 1 {
			t.Skip("not enough bytes for a point")
		}
		if n > 48 {
			n = 48 // bound the LP work per input
		}
		pts := make([]mincore.Point, n)
		for i := range pts {
			p := make(mincore.Point, d)
			for j := range p {
				off := (i*d + j) * 8
				p[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[off : off+8]))
			}
			pts[i] = p
		}

		cs, err := mincore.New(pts, mincore.WithSeed(1), mincore.WithWorkers(1))
		if err != nil {
			return // typed rejection (NaN/Inf, degenerate shape) is fine
		}
		q, err := cs.Coreset(eps, mincore.Auto)
		if err != nil {
			return // typed failure is fine; a panic would have crashed
		}
		if q.Size() == 0 || q.Size() != len(q.Points) {
			t.Fatalf("malformed coreset: size %d, %d points", q.Size(), len(q.Points))
		}
		if q.Report == nil || !q.Report.Certified {
			t.Fatalf("nil error without certification: %+v", q.Report)
		}
		if got := cs.Loss(q.Indices); got > eps+1e-6 {
			t.Fatalf("certified coreset has loss %v > ε = %v", got, eps)
		}
	})
}
