package window

import (
	"math"
	"testing"
)

func TestWindowLengths(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64} {
		if w := Hann(n); len(w) != n {
			t.Fatalf("Hann(%d) length %d", n, len(w))
		}
	}
}

func TestWindowSymmetry(t *testing.T) {
	w := Hann(33)
	for i := range w {
		j := len(w) - 1 - i
		if math.Abs(w[i]-w[j]) > 1e-12 {
			t.Fatalf("Hann not symmetric at %d", i)
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

func TestWindowsBounded(t *testing.T) {
	for _, v := range Hann(101) {
		if v < -1e-12 || v > 1+1e-12 {
			t.Fatalf("window value out of [0,1]: %v", v)
		}
	}
}

// feq reports exact float64 equality; a one-point window is exactly 1.
//
//safesense:floatcmp-helper
func feq(a, b float64) bool { return a == b }

func TestSingleElementWindows(t *testing.T) {
	if w := Hann(1); !feq(w[0], 1) {
		t.Fatalf("single-point window = %v, want 1", w[0])
	}
}
