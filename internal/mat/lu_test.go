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
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveVec([]float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("SolveVec = %v, want [1 3]", x)
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
		f, err := NewLU(a)
		if err != nil {
			return false
		}
		got, err := f.SolveVec(a.MulVec(want))
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
