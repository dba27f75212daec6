package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// bigSum is the reference: the exact sum in a 2200-bit float (wide
// enough for every float64 bit position plus carries), rounded once to
// the nearest float64, ties to even.
func bigSum(xs []float64) float64 {
	acc := new(big.Float).SetPrec(2200)
	for _, x := range xs {
		acc.Add(acc, new(big.Float).SetPrec(2200).SetFloat64(x))
	}
	f, _ := acc.Float64()
	return f
}

func exactSumOf(xs []float64) ExactSum {
	var s ExactSum
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// sameBits reports whether two term lists are bit for bit equal.
func sameBits(a, b ExactSum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// wideValues draws n values whose exponents span the float64 range,
// with random signs when signed is set.
func wideValues(rng *rand.Rand, n int, signed bool) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		x := math.Ldexp(1+rng.Float64(), rng.Intn(2000)-1060)
		if signed && rng.Intn(2) == 0 {
			x = -x
		}
		xs[i] = x
	}
	return xs
}

// TestExactSumOrderFree: permuting the inputs, or splitting them into
// random parts summed apart and merged in random order, gives the same
// terms bit for bit, a Value equal to the reference, and a sum that
// validates.
func TestExactSumOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var rmse []float64
	for i := 0; i < 500; i++ {
		rmse = append(rmse, rng.Float64()*5)
	}
	for _, c := range []struct {
		name string
		xs   []float64
	}{
		{"rmse-like", rmse},
		{"wide", wideValues(rng, 300, false)},
		{"signed", wideValues(rng, 300, true)},
	} {
		name, xs := c.name, c.xs
		want := exactSumOf(xs)
		if err := want.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, ref := want.Value(), bigSum(xs); math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("%s: Value = %v, reference %v", name, got, ref)
		}
		for trial := 0; trial < 50; trial++ {
			perm := append([]float64(nil), xs...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			if got := exactSumOf(perm); !sameBits(got, want) {
				t.Fatalf("%s trial %d: permuted terms %v, want %v", name, trial, got, want)
			}
			var parts []ExactSum
			for len(perm) > 0 {
				n := rng.Intn(len(perm) + 1)
				parts = append(parts, exactSumOf(perm[:n]))
				perm = perm[n:]
			}
			rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
			var merged ExactSum
			for _, p := range parts {
				merged = merged.Merge(p)
			}
			if !sameBits(merged, want) {
				t.Fatalf("%s trial %d: merged terms %v, want %v", name, trial, merged, want)
			}
		}
	}
}

// TestExactSumMatchesBigFloat pins Value against the math/big reference
// on inputs built to break naive and compensated summation.
func TestExactSumMatchesBigFloat(t *testing.T) {
	maxf, tiny := math.MaxFloat64, math.SmallestNonzeroFloat64
	ulp1 := math.Nextafter(1, 2) - 1
	cases := map[string][]float64{
		"cancellation":       {1e100, 1, -1e100},
		"cancel to tiny":     {1, 1e-300, -1, 1e-310},
		"cancel to zero":     {3.5, -1.25, -2.25},
		"python example":     {1e-16, 1, 1e16},
		"tie to even down":   {1, ulp1 / 2},
		"tie to even up":     {1 + ulp1, ulp1 / 2},
		"tie pushed up":      {1, ulp1 / 2, ulp1 / 1024},
		"tie pushed down":    {1 + ulp1, -ulp1 / 2, -ulp1 / 1024},
		"negative tie":       {-1, -ulp1 / 2, -ulp1 / 4096},
		"subnormals":         {tiny, tiny, 3 * tiny, -tiny},
		"subnormal and one":  {1, tiny, -1},
		"normal boundary":    {0x1p-1022, -tiny, tiny / 2},
		"near max":           {maxf, -maxf / 2, maxf / 4, -1},
		"near max halves":    {maxf / 2, maxf / 2, -maxf / 4},
		"max and tiny":       {maxf, tiny, -maxf},
		"empty":              {},
		"zeros":              {0, 0},
		"many small one big": append(make([]float64, 0, 1001), 1e16),
	}
	for i := 0; i < 1000; i++ {
		cases["many small one big"] = append(cases["many small one big"], 0.1)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		xs := wideValues(rng, 1+rng.Intn(40), true)
		// Cancel the largest value exactly half the time.
		if rng.Intn(2) == 0 {
			xs = append(xs, -xs[0])
		}
		cases[fmt.Sprintf("random %d", i)] = xs
	}
	for name, xs := range cases {
		s := exactSumOf(xs)
		if got, want := s.Value(), bigSum(xs); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Value = %v (%x), reference %v (%x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(xs) > 0 && len(s) == 0 {
			t.Errorf("%s: a sum that has seen values has no terms", name)
		}
	}
}

// TestExactSumTermBound: the longest possible sum, powers of two 54
// exponents apart from 2^1023 down, has exactly MaxTerms terms and
// validates; one more term, or a list that is not canonical, does not.
// A running sum that overflows does not validate either.
func TestExactSumTermBound(t *testing.T) {
	var xs []float64
	for e := 1023; e >= -1074; e -= 54 {
		xs = append(xs, math.Ldexp(1, e))
	}
	s := exactSumOf(xs)
	if len(s) != MaxTerms || len(xs) != MaxTerms {
		t.Fatalf("54-apart powers of two give %d terms from %d values, want %d", len(s), len(xs), MaxTerms)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("longest sum rejected: %v", err)
	}
	if math.Float64bits(s.Value()) != math.Float64bits(0x1p1023) {
		t.Fatalf("longest sum Value = %v", s.Value())
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		if s := exactSumOf(wideValues(rng, 200, true)); len(s) > MaxTerms {
			t.Fatalf("random sum has %d terms", len(s))
		}
	}

	long := append(ExactSum{0x1p-1074}, s...)
	for name, bad := range map[string]ExactSum{
		"too many terms": long,
		"overlapping":    {1, 1},
		"descending":     {1, 0x1p-60},
		"mergeable":      {0x1p-52, 1},
		"tie not even":   {0x1p-53, 1 + 0x1p-52},
		"negative zero":  {math.Copysign(0, -1)},
		"overflow":       {math.MaxFloat64, math.MaxFloat64},
		"infinite":       {math.Inf(1)},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: %v accepted", name, bad)
		}
	}
	var over ExactSum
	over.Add(math.MaxFloat64)
	over.Add(math.MaxFloat64)
	if v := over.Value(); !math.IsInf(v, 0) && !math.IsNaN(v) {
		t.Fatalf("overflowing sum Value = %v, want non-finite", v)
	}
}

// TestExactSumJSON: the JSON form is the list of terms, the empty sum
// is omitted, and a decoded sum keeps its bits.
func TestExactSumJSON(t *testing.T) {
	s := exactSumOf([]float64{0.1, 0.2, 0.3})
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back ExactSum
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !sameBits(back, s) || len(s) != 2 {
		t.Fatalf("round trip %s -> %v, want the 2 terms %v", b, back, s)
	}
	var wrapped struct {
		S ExactSum `json:"s,omitempty"`
	}
	if b, _ := json.Marshal(wrapped); string(b) != `{}` {
		t.Fatalf("empty sum marshals as %s", b)
	}
}
