package noise

import (
	"math"
	"testing"
	"testing/quick"

	"safesense/internal/units"
)

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 100; i++ {
		if a.Gaussian(0, 1) != b.Gaussian(0, 1) {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	s := NewSource(7)
	n := 200000
	mean, m2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Gaussian(2, 3)
		mean += v
		m2 += v * v
	}
	mean /= float64(n)
	variance := m2/float64(n) - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("mean = %v, want ~2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Fatalf("variance = %v, want ~9", variance)
	}
}

func TestUniformRange(t *testing.T) {
	s := NewSource(1)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestComplexGaussianPower(t *testing.T) {
	s := NewSource(9)
	n := 100000
	p := 0.0
	for i := 0; i < n; i++ {
		v := s.ComplexGaussian(4)
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= float64(n)
	if math.Abs(p-4) > 0.15 {
		t.Fatalf("complex Gaussian power = %v, want ~4", p)
	}
}

func TestAveragePower(t *testing.T) {
	if got := AveragePower(nil); got != 0 {
		t.Fatalf("AveragePower(nil) = %v", got)
	}
	sig := []complex128{3, 4i}
	if got := AveragePower(sig); math.Abs(got-12.5) > 1e-12 {
		t.Fatalf("AveragePower = %v, want 12.5", got)
	}
}

func TestAddAWGNSNR(t *testing.T) {
	s := NewSource(5)
	// Constant-magnitude signal.
	n := 50000
	sig := make([]complex128, n)
	for i := range sig {
		sig[i] = complex(math.Cos(0.1*float64(i)), math.Sin(0.1*float64(i)))
	}
	for _, snr := range []float64{0, 10, 20} {
		noisy := s.AddAWGN(sig, snr)
		// Measure realized noise power.
		np := 0.0
		for i := range sig {
			d := noisy[i] - sig[i]
			np += real(d)*real(d) + imag(d)*imag(d)
		}
		np /= float64(n)
		gotSNR := units.LinearToDB(AveragePower(sig) / np)
		if math.Abs(gotSNR-snr) > 0.3 {
			t.Fatalf("realized SNR = %v dB, want %v dB", gotSNR, snr)
		}
	}
}

func TestAddAWGNDoesNotMutate(t *testing.T) {
	s := NewSource(3)
	sig := []complex128{1, 2, 3}
	orig := append([]complex128{}, sig...)
	_ = s.AddAWGN(sig, 10)
	for i := range sig {
		if sig[i] != orig[i] {
			t.Fatal("AddAWGN mutated its input")
		}
	}
}

func TestAddAWGNZeroSignal(t *testing.T) {
	s := NewSource(3)
	sig := make([]complex128, 8)
	out := s.AddAWGN(sig, 10)
	for _, v := range out {
		if v != 0 {
			t.Fatal("zero signal should pass through unchanged")
		}
	}
}

func TestComplexNoiseVecPowerProperty(t *testing.T) {
	f := func(seed int64) bool {
		if seed == 0 {
			seed = 1
		}
		s := NewSource(seed)
		v := s.ComplexNoiseVec(20000, 2.5)
		p := AveragePower(v)
		return math.Abs(p-2.5) < 0.25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestInPlaceNoiseMatchesComplexGaussian: the in-place fill and add draw
// the same samples, bit for bit and in the same order, as per-sample
// ComplexGaussian calls, and allocate nothing.
func TestInPlaceNoiseMatchesComplexGaussian(t *testing.T) {
	const n, sigma2 = 64, 3e-13
	ref := NewSource(9)
	want := make([]complex128, 2*n)
	for i := range want {
		want[i] = ref.ComplexGaussian(sigma2)
	}
	src := NewSource(9)
	filled := make([]complex128, n)
	src.FillComplexNoise(filled, sigma2)
	added := []complex128{1 + 2i}
	added = append(added, make([]complex128, n-1)...)
	src.AddComplexNoise(added, sigma2)
	for i := 0; i < n; i++ {
		if filled[i] != want[i] {
			t.Fatalf("fill sample %d = %v, want %v", i, filled[i], want[i])
		}
		base := complex128(0)
		if i == 0 {
			base = 1 + 2i
		}
		if added[i] != base+want[n+i] {
			t.Fatalf("add sample %d = %v, want %v", i, added[i], base+want[n+i])
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		src.FillComplexNoise(filled, sigma2)
		src.AddComplexNoise(filled, sigma2)
	})
	if allocs != 0 {
		t.Fatalf("in-place noise: %v allocs/op, want 0", allocs)
	}
}
