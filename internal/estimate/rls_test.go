package estimate

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"safesense/internal/noise"
)

func TestNewRLSValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		name          string
		lambda, delta float64
	}{
		{"lambda 0", 0, 1},
		{"lambda > 1", 1.1, 1},
		{"lambda NaN", nan, 1},
		{"delta 0", 0.9, 0},
		{"delta NaN", 0.9, nan},
		{"delta +Inf", 0.9, inf},
	}
	for _, tc := range bad {
		if _, err := NewRLS(tc.lambda, tc.delta); err == nil {
			t.Errorf("%s: NewRLS accepted it", tc.name)
		}
	}
	if _, err := NewRLS(1, 1); err != nil {
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
		h    [2]float64
		edit func(r *RLS)
	}{
		{"NaN regressor", [2]float64{nan, 0}, nil},
		{"Inf regressor", [2]float64{inf, 0}, nil},
		{"NaN in P", [2]float64{1, 0}, func(r *RLS) { r.p[0][0] = nan }},
		{"Inf in P", [2]float64{1, 0}, func(r *RLS) { r.p[0][0] = inf }},
		{"P lost definiteness", [2]float64{1, 0}, func(r *RLS) { r.p[0][0] = -5 }},
	}
	for _, tc := range cases {
		r, _ := NewRLS(0.99, 1)
		if _, _, err := r.Update([2]float64{1, 0.5}, 3); err != nil {
			t.Fatal(err)
		}
		w := r.Weights()
		if tc.edit != nil {
			tc.edit(r)
		}
		if _, _, err := r.Update(tc.h, 1); !errors.Is(err, ErrConversionFactor) {
			t.Errorf("%s: Update error = %v, want ErrConversionFactor", tc.name, err)
		}
		if got := r.Weights(); got != w {
			t.Errorf("%s: weights changed to %v on a failed update (were %v)", tc.name, got, w)
		}
	}
}

// TestRLSUpdateRejectsNonFiniteMeasurement: a NaN or infinite y must
// fail the update and leave w and P untouched; gamma alone cannot catch
// it because it does not depend on y.
func TestRLSUpdateRejectsNonFiniteMeasurement(t *testing.T) {
	for _, y := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r, _ := NewRLS(0.99, 1)
		if _, _, err := r.Update([2]float64{1, 0.5}, 3); err != nil {
			t.Fatal(err)
		}
		w, p := r.Weights(), r.P()
		if _, _, err := r.Update([2]float64{1, 1}, y); !errors.Is(err, ErrNonFiniteMeasurement) {
			t.Errorf("y=%v: Update error = %v, want ErrNonFiniteMeasurement", y, err)
		}
		if got := r.Weights(); got != w {
			t.Errorf("y=%v: weights changed to %v on a failed update (were %v)", y, got, w)
		}
		if r.P() != p {
			t.Errorf("y=%v: P changed on a failed update", y)
		}
	}
}

// denseRLS is the matrix-form Algorithm 1 the in-place RLS replaced, kept
// as the reference its results must match bit for bit. Its 2x2 products
// are the general dense kernel's, written out below.
type denseRLS struct {
	lambda float64
	w      [2]float64
	p      [2][2]float64
}

// denseDot is x^T y summed left to right from 0.
func denseDot(x, y [2]float64) float64 {
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// denseMulVec is m x, one denseDot per row.
func denseMulVec(m [2][2]float64, x [2]float64) [2]float64 {
	return [2]float64{denseDot(m[0], x), denseDot(m[1], x)}
}

// denseMul is a b accumulated into a zero matrix row by row, skipping the
// terms whose left factor is 0, as the dense kernel did.
func denseMul(a, b [2][2]float64) (out [2][2]float64) {
	for i := range a {
		for k, v := range a[i] {
			if v == 0 {
				continue
			}
			for j := range b[k] {
				out[i][j] += v * b[k][j]
			}
		}
	}
	return out
}

func (d *denseRLS) update(h [2]float64, y float64) (pred, e float64) {
	g := denseMulVec(d.p, h)
	gamma := d.lambda + denseDot(h, g)
	var kGain [2]float64
	for i, v := range g {
		kGain[i] = (1 / gamma) * v
	}
	pred = denseDot(d.w, h)
	e = y - pred
	for i, v := range kGain {
		d.w[i] += e * v
	}
	// P <- (P - kGain g^T) * (1/lambda), then (P + P^T) * 0.5.
	var p [2][2]float64
	invLambda := 1 / d.lambda
	for i := range p {
		for j := range p[i] {
			p[i][j] = (d.p[i][j] - float64(kGain[i]*g[j])) * invLambda
		}
	}
	for i := range p {
		for j := range p[i] {
			d.p[i][j] = (p[i][j] + p[j][i]) * 0.5
		}
	}
	return pred, e
}

func (d *denseRLS) translate(m [2][2]float64) {
	d.w = denseMulVec(m, d.w)
	mt := [2][2]float64{{m[0][0], m[1][0]}, {m[0][1], m[1][1]}}
	d.p = denseMul(denseMul(m, d.p), mt)
}

// sameBits reports whether the filter's w and P equal the reference's
// bit for bit, describing the first difference.
func sameBits(r *RLS, ref *denseRLS) (string, bool) {
	for i := range ref.w {
		if math.Float64bits(r.w[i]) != math.Float64bits(ref.w[i]) {
			return fmt.Sprintf("w[%d] = %v, reference %v", i, r.w[i], ref.w[i]), false
		}
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Float64bits(r.p[i][j]) != math.Float64bits(ref.p[i][j]) {
				return fmt.Sprintf("P[%d][%d] = %v, reference %v", i, j, r.p[i][j], ref.p[i][j]), false
			}
		}
	}
	return "", true
}

// gauss2 draws a regressor of two standard normal entries.
func gauss2(src *noise.Source) [2]float64 {
	return [2]float64(src.GaussianVec(2, 0, 1))
}

// TestRLSBitExactWithDenseReference drives the in-place filter and the
// matrix-form reference through the same interleaving of basis shifts
// and updates, and requires identical bits in w, P and every returned
// prediction and error.
func TestRLSBitExactWithDenseReference(t *testing.T) {
	const s = 0.125
	src := noise.NewSource(41)
	r, err := NewRLS(0.97, 100)
	if err != nil {
		t.Fatal(err)
	}
	ref := &denseRLS{lambda: 0.97, p: [2][2]float64{{100, 0}, {0, 100}}}
	shift := [2][2]float64{{1, s}, {0, 1}}
	for k := 0; k < 400; k++ {
		r.Translate(s)
		ref.translate(shift)
		h := gauss2(src)
		y := src.Gaussian(float64(k)*0.3, 2)
		pred, e, err := r.Update(h, y)
		if err != nil {
			t.Fatal(err)
		}
		rp, re := ref.update(h, y)
		if math.Float64bits(pred) != math.Float64bits(rp) || math.Float64bits(e) != math.Float64bits(re) {
			t.Fatalf("step %d: (pred, e) = (%v, %v), reference (%v, %v)", k, pred, e, rp, re)
		}
		if diff, ok := sameBits(r, ref); !ok {
			t.Fatalf("step %d: %s", k, diff)
		}
	}
}

// TestPredictorRejectsNonFiniteP: a non-finite P entry carried through
// Translate must make the next Observe fail with ErrConversionFactor and
// leave w as Translate left it, instead of updating it with NaN gains.
func TestPredictorRejectsNonFiniteP(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(p *[2][2]float64)
	}{
		{"+Inf P00", func(p *[2][2]float64) { p[0][0] = inf }},
		{"-Inf P00", func(p *[2][2]float64) { p[0][0] = -inf }},
		{"+Inf P11", func(p *[2][2]float64) { p[1][1] = inf }},
		{"NaN P01", func(p *[2][2]float64) { p[0][1], p[1][0] = nan, nan }},
		{"+Inf P01", func(p *[2][2]float64) { p[0][1], p[1][0] = inf, inf }},
	}
	for _, tc := range cases {
		p := trainedPredictor(t)
		tc.edit(&p.rls.p)
		ref := p.rls
		ref.Translate(1 / timeScale)
		if _, err := p.Observe(1); !errors.Is(err, ErrConversionFactor) {
			t.Errorf("%s: Observe error = %v, want ErrConversionFactor", tc.name, err)
		}
		if got := p.Weights(); got != ref.w {
			t.Errorf("%s: weights %v after a failed Observe, want the translated %v", tc.name, got, ref.w)
		}
	}
}

func TestRLSConvergesToTrueWeights(t *testing.T) {
	// y = w* . h with a static linear model: RLS must identify w*.
	// Large delta keeps the P0 regularization bias (which decays like
	// 1/(delta*N)) below the assertion tolerance.
	want := [2]float64{2, -1}
	r, err := NewRLS(1.0, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	src := noise.NewSource(1)
	for k := 0; k < 400; k++ {
		h := gauss2(src)
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
	want := [2]float64{1.5, -0.7}
	r, _ := NewRLS(0.995, 10)
	src := noise.NewSource(2)
	for k := 0; k < 3000; k++ {
		h := gauss2(src)
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
	// lambda = 1 it averages and lags. Compare tracking error on a scalar
	// model: the second regressor entry is always zero.
	run := func(lambda float64) float64 {
		r, _ := NewRLS(lambda, 10)
		src := noise.NewSource(3)
		errSum := 0.0
		wTrue := 1.0
		for k := 0; k < 2000; k++ {
			wTrue += 0.002 // drift
			h := [2]float64{src.Gaussian(0, 1), 0}
			y := wTrue * h[0]
			r.Update(h, y)
			errSum += math.Abs(r.Weights()[0] - wTrue)
		}
		return errSum
	}
	forgetting := run(0.95)
	growing := run(1.0)
	if forgetting >= growing {
		t.Fatalf("forgetting factor should track drift better: %v vs %v", forgetting, growing)
	}
}

func TestRLSUpdateReturnsAPrioriError(t *testing.T) {
	r, _ := NewRLS(0.99, 1)
	pred, e, err := r.Update([2]float64{1, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Initial weights are zero, so prediction 0 and error 5.
	if pred != 0 || e != 5 {
		t.Fatalf("pred=%v e=%v, want 0, 5", pred, e)
	}
}

func TestRLSPSymmetricPositive(t *testing.T) {
	// P must remain symmetric and have positive diagonal through updates.
	r, _ := NewRLS(0.97, 1)
	src := noise.NewSource(5)
	for k := 0; k < 500; k++ {
		r.Update(gauss2(src), src.Gaussian(0, 1))
		p := r.P()
		if p[0][1] != p[1][0] {
			t.Fatalf("P lost symmetry at step %d", k)
		}
		for i := 0; i < 2; i++ {
			if p[i][i] <= 0 {
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
		r, _ := NewRLS(1.0, 1e6)
		want := [2]float64{src.Gaussian(0, 2), src.Gaussian(0, 2)}
		for k := 0; k < 120; k++ {
			h := gauss2(src)
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
	r, _ := NewRLS(0.99, 1)
	src := noise.NewSource(6)
	for k := 0; k < 50; k++ {
		r.Update(gauss2(src), src.Gaussian(0, 1))
	}
	if err := r.Reset(2); err != nil {
		t.Fatal(err)
	}
	if w := r.Weights(); w != [2]float64{} {
		t.Fatalf("weights after reset = %v", w)
	}
	if p := r.P(); p != [2][2]float64{{2, 0}, {0, 2}} {
		t.Fatalf("P after reset = %v", p)
	}
	if err := r.Reset(0); err == nil {
		t.Fatal("Reset(0) should fail")
	}
}
