package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// feq reports exact float64 equality, for oracle values that are
// selected or copied verbatim (Min/Max, single-element percentile,
// untouched inputs) and therefore bit-identical. Computed quantities
// (means, errors) use epsilon comparisons instead.
//
//safesense:floatcmp-helper
func feq(a, b float64) bool { return a == b }

func TestRMSE(t *testing.T) {
	got, err := RMSE([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil || got != 0 {
		t.Fatalf("identical series RMSE = %v, %v", got, err)
	}
	got, err = RMSE([]float64{0, 0}, []float64{3, 4})
	if err != nil || math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Fatalf("RMSE = %v", got)
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := RMSE(nil, nil); err == nil {
		t.Fatal("empty should fail")
	}
}

func TestMAEAndMaxAbs(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{2, 0, 3}
	mx, err := MaxAbsErr(a, b)
	if err != nil || math.Abs(mx-2) > 1e-12 {
		t.Fatalf("MaxAbsErr = %v", mx)
	}
	if _, err := MaxAbsErr([]float64{1}, []float64{}); err == nil {
		t.Fatal("mismatch MaxAbsErr should fail")
	}
}

func TestMetricOrderingProperty(t *testing.T) {
	// RMSE <= MaxAbsErr for any data.
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		x, y := a[:n], b[:n]
		for i := 0; i < n; i++ {
			if math.IsNaN(x[i]) || math.IsNaN(y[i]) || math.Abs(x[i]) > 1e100 || math.Abs(y[i]) > 1e100 {
				return true
			}
		}
		rmse, _ := RMSE(x, y)
		mx, _ := MaxAbsErr(x, y)
		return rmse <= mx*(1+1e-12)+1e-300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(x); math.Abs(m-5) > 1e-12 {
		t.Fatalf("Mean = %v", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty Mean should be 0")
	}
}

func TestMinMax(t *testing.T) {
	x := []float64{3, -1, 7}
	if !feq(Max(x), 7) {
		t.Fatalf("Max = %v", Max(x))
	}
	if Max(nil) != 0 {
		t.Fatal("empty Max should be 0")
	}
}

func TestDetectionLatency(t *testing.T) {
	if got := DetectionLatency(182, 182); got != 0 {
		t.Fatalf("latency = %d", got)
	}
	if got := DetectionLatency(182, 190); got != 8 {
		t.Fatalf("latency = %d", got)
	}
	if got := DetectionLatency(182, -1); got != -1 {
		t.Fatalf("missed detection latency = %d", got)
	}
}

func TestPercentile(t *testing.T) {
	x := []float64{5, 1, 3, 2, 4} // unsorted on purpose
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6},
	}
	for _, c := range cases {
		if got := Percentile(x, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !feq(x[0], 5) {
		t.Fatal("Percentile must not modify its input")
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty input should yield NaN")
	}
	if !math.IsNaN(Percentile(x, 101)) || !math.IsNaN(Percentile(x, -1)) {
		t.Fatal("out-of-range p should yield NaN")
	}
	if got := Percentile([]float64{7}, 99); !feq(got, 7) {
		t.Fatalf("single-element percentile = %v", got)
	}
}

func TestPercentiles(t *testing.T) {
	got, err := Percentiles([]float64{1, 2, 3, 4, 5}, 50, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 5, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Percentiles = %v, want %v", got, want)
		}
	}
	if _, err := Percentiles(nil, 50); err == nil {
		t.Fatal("empty input should fail")
	}
	if _, err := Percentiles([]float64{1}, 120); err == nil {
		t.Fatal("out-of-range p should fail")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0, 1.9, 2, 5, 9.9, 10, 25, -3, math.NaN()} {
		h.Observe(v)
	}
	// Bins: [0,2) [2,4) [4,6) [6,8) [8,10); -3 clamps low, 10 and 25 clamp high.
	want := []int{3, 1, 1, 0, 3}
	for i, c := range want {
		if h.Counts[i] != c {
			t.Fatalf("Counts = %v, want %v", h.Counts, want)
		}
	}
	if h.N != 8 {
		t.Fatalf("N = %d, want 8 (NaN ignored)", h.N)
	}
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Fatal("zero bins should fail")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Fatal("empty range should fail")
	}
}
