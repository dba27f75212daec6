package music

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// FuzzFrequencies feeds arbitrary finite samples, orders and signal
// counts through the whole estimator. It must never panic: either it
// returns an error, or exactly NumSignals finite angles in (-pi, pi],
// sorted ascending. Inputs shorter than 2·Order must be rejected.
func FuzzFrequencies(f *testing.F) {
	tone := func(n int, ws ...float64) []byte {
		b := make([]byte, 0, 16*n)
		for i := 0; i < n; i++ {
			var re, im float64
			for _, w := range ws {
				re += math.Cos(w * float64(i))
				im += math.Sin(w * float64(i))
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(re))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(im))
		}
		return b
	}
	f.Add(tone(32, 0.9), uint8(8), uint8(1))
	f.Add(tone(64, -1.2, 0.8), uint8(10), uint8(2))
	f.Add(tone(24, 0.3), uint8(12), uint8(1))
	f.Add(make([]byte, 16*16), uint8(4), uint8(1))
	f.Add(tone(5, 2.5), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, order, signals uint8) {
		m := 2 + int(order)%11 // 2..12, the radar's order included
		k := 1 + int(signals)%(m-1)
		n := len(data) / 16
		if n > 256 {
			n = 256
		}
		x := make([]complex128, n)
		for i := range x {
			re := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
			if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
				return
			}
			x[i] = complex(re, im)
		}
		est, err := New(Config{Order: m, NumSignals: k})
		if err != nil {
			t.Fatalf("New(order %d, signals %d): %v", m, k, err)
		}
		ws, err := est.Frequencies(x)
		if n < 2*m {
			if err == nil {
				t.Fatalf("%d samples at order %d accepted", n, m)
			}
			return
		}
		if err != nil {
			return
		}
		if len(ws) != k {
			t.Fatalf("got %d frequencies, want %d", len(ws), k)
		}
		if !sort.Float64sAreSorted(ws) {
			t.Fatalf("frequencies not sorted: %v", ws)
		}
		for _, w := range ws {
			if math.IsNaN(w) || w <= -math.Pi || w > math.Pi {
				t.Fatalf("frequency %v outside (-pi, pi]: %v", w, ws)
			}
		}
	})
}
