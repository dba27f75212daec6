package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// feq reports exact float64 equality, for oracle values that are
// stored and read back verbatim (At/Row/Col copies) or produced by
// small-integer arithmetic — both exact in IEEE-754. Computed
// quantities (norms, dot products) use epsilon comparisons instead.
//
//safesense:floatcmp-helper
func feq(a, b float64) bool { return a == b }

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestNewDensePanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDense(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewDense(dims[0], dims[1])
		}()
	}
}

func TestAtSet(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); !feq(got, 7.5) {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, 4, 4)
	if !a.Mul(Identity(4)).EqualApprox(a, 1e-12) {
		t.Fatal("A*I != A")
	}
	if !Identity(4).Mul(a).EqualApprox(a, 1e-12) {
		t.Fatal("I*A != A")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		a := randDense(rng, r, c)
		return a.T().T().EqualApprox(a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMulAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randDense(rng, 3, 4)
		b := randDense(rng, 4, 2)
		c := randDense(rng, 2, 5)
		left := a.Mul(b).Mul(c)
		right := a.Mul(b.Mul(c))
		return left.EqualApprox(right, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMulTransposeIdentity(t *testing.T) {
	// (A*B)^T == B^T * A^T
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randDense(rng, 3, 4)
		b := randDense(rng, 4, 2)
		return a.Mul(b).T().EqualApprox(b.T().Mul(a.T()), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{5, 6, 7, 8})
	if got := a.Add(b); !got.EqualApprox(NewDenseData(2, 2, []float64{6, 8, 10, 12}), 0) {
		t.Fatalf("Add: %v", got)
	}
	if got := b.Sub(a); !got.EqualApprox(NewDenseData(2, 2, []float64{4, 4, 4, 4}), 0) {
		t.Fatalf("Sub: %v", got)
	}
	if got := a.Scale(2); !got.EqualApprox(NewDenseData(2, 2, []float64{2, 4, 6, 8}), 0) {
		t.Fatalf("Scale: %v", got)
	}
	// a must be unchanged (operations return copies).
	if !a.EqualApprox(NewDenseData(2, 2, []float64{1, 2, 3, 4}), 0) {
		t.Fatal("Add/Sub/Scale mutated receiver")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 5, 3)
	x := []float64{1.5, -2, 0.25}
	xm := NewDenseData(3, 1, x)
	want := a.Mul(xm)
	got := a.MulVec(x)
	for i := range got {
		if math.Abs(got[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestRowColSetRow(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if r := a.Row(1); !feq(r[0], 4) || !feq(r[1], 5) || !feq(r[2], 6) {
		t.Fatalf("Row(1) = %v", r)
	}
	if c := a.Col(2); !feq(c[0], 3) || !feq(c[1], 6) {
		t.Fatalf("Col(2) = %v", c)
	}
	a.SetRow(0, []float64{9, 8, 7})
	if !feq(a.At(0, 0), 9) || !feq(a.At(0, 2), 7) {
		t.Fatal("SetRow failed")
	}
	// Row returns a copy: mutating it must not affect the matrix.
	r := a.Row(0)
	r[0] = -1
	if !feq(a.At(0, 0), 9) {
		t.Fatal("Row did not return a copy")
	}
}

func TestTraceDiagOuter(t *testing.T) {
	d := Diag([]float64{1, 2, 3})
	if math.Abs(d.Trace()-6) > 1e-12 {
		t.Fatalf("Trace = %v", d.Trace())
	}
	// The outer product x y^T as a column times a row.
	o := NewDenseData(2, 1, []float64{1, 2}).Mul(NewDenseData(1, 3, []float64{3, 4, 5}))
	want := NewDenseData(2, 3, []float64{3, 4, 5, 6, 8, 10})
	if !o.EqualApprox(want, 0) {
		t.Fatalf("Outer = %v", o)
	}
}

func TestIsSymmetric(t *testing.T) {
	s := NewDenseData(2, 2, []float64{1, 2, 2, 5})
	if !s.IsSymmetric(0) {
		t.Fatal("symmetric matrix not detected")
	}
	ns := NewDenseData(2, 2, []float64{1, 2, 3, 5})
	if ns.IsSymmetric(1e-12) {
		t.Fatal("non-symmetric matrix passed")
	}
	if NewDense(2, 3).IsSymmetric(0) {
		t.Fatal("non-square matrix passed")
	}
}

func TestFrobeniusAndMaxAbs(t *testing.T) {
	a := NewDenseData(2, 2, []float64{3, 0, 4, 0})
	if got := a.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("FrobeniusNorm = %v", got)
	}
	if got := a.MaxAbs(); !feq(got, 4) {
		t.Fatalf("MaxAbs = %v", got)
	}
}
