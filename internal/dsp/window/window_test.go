package window

import (
	"math"
	"testing"
)

func TestWindowLengths(t *testing.T) {
	for _, f := range []struct {
		name string
		fn   Func
	}{{"Hann", Hann}, {"Hamming", Hamming}, {"Blackman", Blackman}} {
		for _, n := range []int{1, 2, 7, 64} {
			w := f.fn(n)
			if len(w) != n {
				t.Fatalf("%s(%d) length %d", f.name, n, len(w))
			}
		}
	}
}

func TestWindowSymmetry(t *testing.T) {
	for _, f := range []struct {
		name string
		fn   Func
	}{{"Hann", Hann}, {"Hamming", Hamming}, {"Blackman", Blackman}} {
		w := f.fn(33)
		for i := range w {
			j := len(w) - 1 - i
			if math.Abs(w[i]-w[j]) > 1e-12 {
				t.Fatalf("%s not symmetric at %d", f.name, i)
			}
		}
	}
}

func TestHannEndpointsAndCenter(t *testing.T) {
	w := Hann(65)
	if math.Abs(w[0]) > 1e-12 || math.Abs(w[64]) > 1e-12 {
		t.Fatalf("Hann endpoints = %v, %v", w[0], w[64])
	}
	if math.Abs(w[32]-1) > 1e-12 {
		t.Fatalf("Hann center = %v", w[32])
	}
}

func TestHammingEndpoints(t *testing.T) {
	w := Hamming(11)
	if math.Abs(w[0]-0.08) > 1e-12 {
		t.Fatalf("Hamming endpoint = %v, want 0.08", w[0])
	}
}

func TestWindowsBounded(t *testing.T) {
	for _, f := range []Func{Hann, Hamming, Blackman} {
		for _, v := range f(101) {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("window value out of [0,1]: %v", v)
			}
		}
	}
}

// feq reports exact float64 equality; a one-point window is exactly 1.
//
//safesense:floatcmp-helper
func feq(a, b float64) bool { return a == b }

func TestCoherentGain(t *testing.T) {
	if g := CoherentGain([]float64{1, 1, 1, 1}); math.Abs(g-1) > 1e-12 {
		t.Fatalf("rect gain = %v", g)
	}
	// Hann coherent gain -> 0.5 for large n.
	if g := CoherentGain(Hann(4096)); math.Abs(g-0.5) > 1e-3 {
		t.Fatalf("Hann gain = %v, want ~0.5", g)
	}
	if g := CoherentGain(nil); g != 0 {
		t.Fatalf("empty gain = %v", g)
	}
}

func TestSingleElementWindows(t *testing.T) {
	for _, f := range []Func{Hann, Hamming, Blackman} {
		if w := f(1); !feq(w[0], 1) {
			t.Fatalf("single-point window = %v, want 1", w[0])
		}
	}
}
