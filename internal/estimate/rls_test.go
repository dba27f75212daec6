package estimate

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"safesense/internal/mat"
	"safesense/internal/noise"
)

func TestNewRLSValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		name          string
		n             int
		lambda, delta float64
	}{
		{"order 0", 0, 0.9, 1},
		{"lambda 0", 3, 0, 1},
		{"lambda > 1", 3, 1.1, 1},
		{"lambda NaN", 3, nan, 1},
		{"delta 0", 3, 0.9, 0},
		{"delta NaN", 3, 0.9, nan},
		{"delta +Inf", 3, 0.9, inf},
	}
	for _, tc := range bad {
		if _, err := NewRLS(tc.n, tc.lambda, tc.delta); err == nil {
			t.Errorf("%s: NewRLS accepted it", tc.name)
		}
	}
	if _, err := NewRLS(3, 1, 1); err != nil {
		t.Fatalf("lambda = 1 must be allowed: %v", err)
	}
}

// TestRLSUpdateRejectsBadConversionFactor: a gamma that is NaN, infinite
// or non-positive must fail the update and leave w untouched, rather
// than silently poisoning the estimate.
func TestRLSUpdateRejectsBadConversionFactor(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		h    []float64
		edit func(r *RLS)
	}{
		{"NaN regressor", []float64{nan, 0}, nil},
		{"Inf regressor", []float64{inf, 0}, nil},
		{"NaN in P", []float64{1, 0}, func(r *RLS) { r.p[0] = nan }},
		{"Inf in P", []float64{1, 0}, func(r *RLS) { r.p[0] = inf }},
		{"P lost definiteness", []float64{1, 0}, func(r *RLS) { r.p[0] = -5 }},
	}
	for _, tc := range cases {
		r, _ := NewRLS(2, 0.99, 1)
		if _, _, err := r.Update([]float64{1, 0.5}, 3); err != nil {
			t.Fatal(err)
		}
		w := r.Weights()
		if tc.edit != nil {
			tc.edit(r)
		}
		if _, _, err := r.Update(tc.h, 1); !errors.Is(err, ErrConversionFactor) {
			t.Errorf("%s: Update error = %v, want ErrConversionFactor", tc.name, err)
		}
		if got := r.Weights(); got[0] != w[0] || got[1] != w[1] {
			t.Errorf("%s: weights changed to %v on a failed update (were %v)", tc.name, got, w)
		}
	}
}

// TestRLSUpdateRejectsNonFiniteMeasurement: a NaN or infinite y must
// fail the update and leave w and P untouched; gamma alone cannot catch
// it because it does not depend on y.
func TestRLSUpdateRejectsNonFiniteMeasurement(t *testing.T) {
	for _, y := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r, _ := NewRLS(2, 0.99, 1)
		if _, _, err := r.Update([]float64{1, 0.5}, 3); err != nil {
			t.Fatal(err)
		}
		w, p := r.Weights(), append([]float64(nil), r.p...)
		if _, _, err := r.Update([]float64{1, 1}, y); !errors.Is(err, ErrNonFiniteMeasurement) {
			t.Errorf("y=%v: Update error = %v, want ErrNonFiniteMeasurement", y, err)
		}
		if got := r.Weights(); got[0] != w[0] || got[1] != w[1] {
			t.Errorf("y=%v: weights changed to %v on a failed update (were %v)", y, got, w)
		}
		for i := range p {
			if r.p[i] != p[i] {
				t.Errorf("y=%v: P changed on a failed update", y)
				break
			}
		}
	}
}

// denseRLS is the matrix-form Algorithm 1 the in-place RLS replaced, kept
// as the reference its results must match bit for bit.
type denseRLS struct {
	lambda float64
	w      []float64
	p      *mat.Dense
}

func (d *denseRLS) update(h []float64, y float64) (pred, e float64) {
	n := len(h)
	g := d.p.MulVec(h)
	gamma := d.lambda + mat.Dot(h, g)
	kGain := make([]float64, n)
	for i, v := range g {
		kGain[i] = (1 / gamma) * v
	}
	pred = mat.Dot(d.w, h)
	e = y - pred
	mat.Axpy(e, kGain, d.w)
	kg := mat.NewDense(n, n)
	for i := range kGain {
		for j := range g {
			kg.Set(i, j, kGain[i]*g[j])
		}
	}
	p := d.p.Sub(kg).Scale(1 / d.lambda)
	d.p = p.Add(p.T()).Scale(0.5)
	return pred, e
}

func (d *denseRLS) translate(m *mat.Dense) {
	d.w = m.MulVec(d.w)
	d.p = m.Mul(d.p).Mul(m.T())
}

// sameBits reports whether the filter's w and P equal the reference's
// bit for bit, describing the first difference.
func sameBits(r *RLS, ref *denseRLS) (string, bool) {
	n := r.n
	for i := range ref.w {
		if math.Float64bits(r.w[i]) != math.Float64bits(ref.w[i]) {
			return fmt.Sprintf("w[%d] = %v, reference %v", i, r.w[i], ref.w[i]), false
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Float64bits(r.p[i*n+j]) != math.Float64bits(ref.p.At(i, j)) {
				return fmt.Sprintf("P[%d][%d] = %v, reference %v", i, j, r.p[i*n+j], ref.p.At(i, j)), false
			}
		}
	}
	return "", true
}

// TestRLSBitExactWithDenseReference drives the in-place filter and the
// matrix-form reference through the same interleaving of basis shifts
// and updates, at orders 1–4, and requires identical bits in w, P and
// every returned prediction and error.
func TestRLSBitExactWithDenseReference(t *testing.T) {
	for deg := 0; deg < 4; deg++ {
		n := deg + 1
		src := noise.NewSource(int64(40 + deg))
		r, err := NewRLS(n, 0.97, 100)
		if err != nil {
			t.Fatal(err)
		}
		ref := &denseRLS{lambda: 0.97, w: make([]float64, n), p: mat.Identity(n).Scale(100)}
		shift := shiftMatrix(deg, 0.125)
		shiftDense := mat.NewDenseData(n, n, shift)
		for k := 0; k < 400; k++ {
			if err := r.Translate(shift); err != nil {
				t.Fatal(err)
			}
			ref.translate(shiftDense)
			h := src.GaussianVec(n, 0, 1)
			y := src.Gaussian(float64(k)*0.3, 2)
			pred, e, err := r.Update(h, y)
			if err != nil {
				t.Fatal(err)
			}
			rp, re := ref.update(h, y)
			if math.Float64bits(pred) != math.Float64bits(rp) || math.Float64bits(e) != math.Float64bits(re) {
				t.Fatalf("order %d step %d: (pred, e) = (%v, %v), reference (%v, %v)", n, k, pred, e, rp, re)
			}
			if diff, ok := sameBits(r, ref); !ok {
				t.Fatalf("order %d step %d: %s", n, k, diff)
			}
		}
	}
	// mat.Dense.Mul skips zero left-hand entries, which decides whether
	// 0·Inf turns an entry into NaN; Translate must skip the same ones.
	r, _ := NewRLS(2, 0.97, 1)
	r.p[0] = math.Inf(1)
	ref := &denseRLS{lambda: 0.97, w: make([]float64, 2), p: mat.NewDenseData(2, 2, []float64{math.Inf(1), 0, 0, 1})}
	if err := r.Translate(shiftMatrix(1, 0.125)); err != nil {
		t.Fatal(err)
	}
	ref.translate(mat.NewDenseData(2, 2, shiftMatrix(1, 0.125)))
	if diff, ok := sameBits(r, ref); !ok {
		t.Fatalf("translate with an infinite P entry: %s", diff)
	}
}

func TestRLSConvergesToTrueWeights(t *testing.T) {
	// y = w* . h with a static linear model: RLS must identify w*.
	// Large delta keeps the P0 regularization bias (which decays like
	// 1/(delta*N)) below the assertion tolerance.
	want := []float64{2, -1, 0.5}
	r, err := NewRLS(3, 1.0, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	src := noise.NewSource(1)
	for k := 0; k < 400; k++ {
		h := src.GaussianVec(3, 0, 1)
		y := 0.0
		for i := range h {
			y += want[i] * h[i]
		}
		if _, _, err := r.Update(h, y); err != nil {
			t.Fatal(err)
		}
	}
	got := r.Weights()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("weights = %v, want %v", got, want)
		}
	}
}

func TestRLSConvergesInNoise(t *testing.T) {
	want := []float64{1.5, -0.7}
	r, _ := NewRLS(2, 0.995, 10)
	src := noise.NewSource(2)
	for k := 0; k < 3000; k++ {
		h := src.GaussianVec(2, 0, 1)
		y := want[0]*h[0] + want[1]*h[1] + src.Gaussian(0, 0.1)
		r.Update(h, y)
	}
	got := r.Weights()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.05 {
			t.Fatalf("weights = %v, want %v", got, want)
		}
	}
}

func TestRLSTracksDriftingWeights(t *testing.T) {
	// With forgetting, RLS follows a slowly changing parameter; with
	// lambda = 1 it averages and lags. Compare tracking error.
	src := noise.NewSource(3)
	run := func(lambda float64) float64 {
		r, _ := NewRLS(1, lambda, 10)
		src := noise.NewSource(3)
		errSum := 0.0
		wTrue := 1.0
		for k := 0; k < 2000; k++ {
			wTrue += 0.002 // drift
			h := []float64{src.Gaussian(0, 1)}
			y := wTrue * h[0]
			r.Update(h, y)
			errSum += math.Abs(r.Weights()[0] - wTrue)
		}
		return errSum
	}
	_ = src
	forgetting := run(0.95)
	growing := run(1.0)
	if forgetting >= growing {
		t.Fatalf("forgetting factor should track drift better: %v vs %v", forgetting, growing)
	}
}

func TestRLSUpdateReturnsAPrioriError(t *testing.T) {
	r, _ := NewRLS(2, 0.99, 1)
	h := []float64{1, 2}
	pred, e, err := r.Update(h, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Initial weights are zero, so prediction 0 and error 5.
	if pred != 0 || e != 5 {
		t.Fatalf("pred=%v e=%v, want 0, 5", pred, e)
	}
}

func TestRLSRejectsWrongRegressorLength(t *testing.T) {
	r, _ := NewRLS(3, 0.99, 1)
	if _, _, err := r.Update([]float64{1, 2}, 0); !errors.Is(err, ErrRegressorLength) {
		t.Fatalf("short regressor: error %v, want ErrRegressorLength", err)
	}
}

func TestRLSPSymmetricPositive(t *testing.T) {
	// P must remain symmetric and have positive diagonal through updates.
	r, _ := NewRLS(3, 0.97, 1)
	src := noise.NewSource(5)
	for k := 0; k < 500; k++ {
		h := src.GaussianVec(3, 0, 1)
		r.Update(h, src.Gaussian(0, 1))
		p := r.P()
		if !p.IsSymmetric(1e-8 * (1 + p.MaxAbs())) {
			t.Fatalf("P lost symmetry at step %d", k)
		}
		for i := 0; i < 3; i++ {
			if p.At(i, i) <= 0 {
				t.Fatalf("P diagonal %d non-positive at step %d", i, k)
			}
		}
	}
}

func TestRLSMatchesBatchLeastSquaresProperty(t *testing.T) {
	// With lambda = 1 and large delta, RLS after N samples approaches the
	// batch least-squares solution on the same data.
	f := func(seed int64) bool {
		src := noise.NewSource(seed)
		n := 3
		r, _ := NewRLS(n, 1.0, 1e6)
		want := []float64{src.Gaussian(0, 2), src.Gaussian(0, 2), src.Gaussian(0, 2)}
		for k := 0; k < 120; k++ {
			h := src.GaussianVec(n, 0, 1)
			y := 0.0
			for i := range h {
				y += want[i] * h[i]
			}
			r.Update(h, y)
		}
		got := r.Weights()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-3*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRLSReset(t *testing.T) {
	r, _ := NewRLS(2, 0.99, 1)
	src := noise.NewSource(6)
	for k := 0; k < 50; k++ {
		r.Update(src.GaussianVec(2, 0, 1), src.Gaussian(0, 1))
	}
	if err := r.Reset(2); err != nil {
		t.Fatal(err)
	}
	w := r.Weights()
	if w[0] != 0 || w[1] != 0 {
		t.Fatalf("weights after reset = %v", w)
	}
	p := r.P()
	if p.At(0, 0) != 2 || p.At(0, 1) != 0 {
		t.Fatalf("P after reset = %v", p)
	}
	if err := r.Reset(0); err == nil {
		t.Fatal("Reset(0) should fail")
	}
}

func TestRLSComplexityIsQuadratic(t *testing.T) {
	// Not a wall-clock test: verify Update touches only O(n^2) memory by
	// construction — here we simply sanity-check behavior at a larger
	// order to guard against accidental O(n^3) (matrix-matrix) paths
	// blowing up numerically.
	r, _ := NewRLS(32, 0.99, 1)
	src := noise.NewSource(7)
	for k := 0; k < 200; k++ {
		if _, _, err := r.Update(src.GaussianVec(32, 0, 1), src.Gaussian(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if r.LastGamma <= 0 {
		t.Fatal("gamma must stay positive")
	}
}
