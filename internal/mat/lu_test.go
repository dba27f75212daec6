package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	a := NewDenseData(2, 2, []float64{2, 1, 1, 3})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("Solve = %v, want [1 3]", x)
	}
}

func TestSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randDense(rng, n, n)
		// Diagonal dominance keeps the system comfortably nonsingular.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInverse(t *testing.T) {
	a := NewDenseData(3, 3, []float64{4, 2, 0, 2, 5, 1, 0, 1, 3})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mul(inv).EqualApprox(Identity(3), 1e-10) {
		t.Fatal("A*inv(A) != I")
	}
	if !inv.Mul(a).EqualApprox(Identity(3), 1e-10) {
		t.Fatal("inv(A)*A != I")
	}
}

func TestSingularDetection(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 4})
	if _, err := Inverse(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
	if d := Det(a); d != 0 {
		t.Fatalf("Det of singular = %v", d)
	}
}

func TestDet(t *testing.T) {
	a := NewDenseData(2, 2, []float64{3, 1, 4, 2})
	if d := Det(a); math.Abs(d-2) > 1e-12 {
		t.Fatalf("Det = %v, want 2", d)
	}
	// Determinant changes sign under a row swap; LU pivoting must track it.
	b := NewDenseData(2, 2, []float64{4, 2, 3, 1})
	if d := Det(b); math.Abs(d+2) > 1e-12 {
		t.Fatalf("Det = %v, want -2", d)
	}
}

func TestDetProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := randDense(rng, n, n)
		b := randDense(rng, n, n)
		dab := Det(a.Mul(b))
		da, db := Det(a), Det(b)
		return math.Abs(dab-da*db) <= 1e-8*(1+math.Abs(da*db))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRank(t *testing.T) {
	if r := Rank(Identity(4), 1e-10); r != 4 {
		t.Fatalf("Rank(I4) = %d", r)
	}
	// Rank-1 matrix.
	a := NewDenseData(3, 1, []float64{1, 2, 3}).Mul(NewDenseData(1, 3, []float64{4, 5, 6}))
	if r := Rank(a, 1e-10); r != 1 {
		t.Fatalf("Rank(outer) = %d", r)
	}
	if r := Rank(NewDense(3, 3), 1e-10); r != 0 {
		t.Fatalf("Rank(0) = %d", r)
	}
	// Wide matrix with two independent rows.
	w := NewDenseData(2, 4, []float64{1, 0, 1, 0, 0, 1, 0, 1})
	if r := Rank(w, 1e-10); r != 2 {
		t.Fatalf("Rank(wide) = %d", r)
	}
}

func TestLUSolveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randDense(rng, 4, 4)
	for i := 0; i < 4; i++ {
		a.Set(i, i, a.At(i, i)+5)
	}
	b := randDense(rng, 4, 3)
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mul(x).EqualApprox(b, 1e-9) {
		t.Fatal("A*X != B")
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := NewLU(NewDense(2, 3)); err == nil {
		t.Fatal("LU of non-square should fail")
	}
}
