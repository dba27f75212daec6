package lti

import (
	"math"
	"testing"

	"safesense/internal/mat"
	"safesense/internal/noise"
)

// doubleIntegrator returns the standard position/velocity system sampled at
// dt, observing position only.
func doubleIntegrator(dt float64) *System {
	a := mat.NewDenseData(2, 2, []float64{1, dt, 0, 1})
	b := mat.NewDenseData(2, 1, []float64{dt * dt / 2, dt})
	c := mat.NewDenseData(1, 2, []float64{1, 0})
	s, err := NewSystem(a, b, c, nil)
	if err != nil {
		panic(err)
	}
	return s
}

func TestNewSystemValidation(t *testing.T) {
	a := mat.Identity(2)
	b := mat.NewDense(2, 1)
	c := mat.NewDense(1, 2)
	if _, err := NewSystem(mat.NewDense(2, 3), b, c, nil); err == nil {
		t.Fatal("non-square A should fail")
	}
	if _, err := NewSystem(a, mat.NewDense(3, 1), c, nil); err == nil {
		t.Fatal("mismatched B should fail")
	}
	if _, err := NewSystem(a, b, mat.NewDense(1, 3), nil); err == nil {
		t.Fatal("mismatched C should fail")
	}
	if _, err := NewSystem(a, b, c, []float64{1, 2}); err == nil {
		t.Fatal("wrong noise length should fail")
	}
	if _, err := NewSystem(a, b, c, []float64{0.1}); err != nil {
		t.Fatal(err)
	}
}

func TestStepDoubleIntegrator(t *testing.T) {
	s := doubleIntegrator(1)
	x := s.Step([]float64{0, 1}, []float64{2}) // pos 0, vel 1, accel 2
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("Step = %v, want [2 3]", x)
	}
}

func TestOutputNoiseless(t *testing.T) {
	s := doubleIntegrator(1)
	y := s.Output([]float64{5, -1}, noise.NewSource(1))
	if y[0] != 5 {
		t.Fatalf("Output = %v, want [5]", y)
	}
}

func TestOutputNoiseStatistics(t *testing.T) {
	a := mat.Identity(1)
	b := mat.NewDense(1, 1)
	c := mat.Identity(1)
	s, _ := NewSystem(a, b, c, []float64{2})
	src := noise.NewSource(4)
	n := 50000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		y := s.Output([]float64{10}, src)[0]
		sum += y
		sum2 += y * y
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(variance-4) > 0.2 {
		t.Fatalf("variance = %v, want ~4", variance)
	}
}

func TestSimulateFreeFall(t *testing.T) {
	// Constant input u = -g; position follows the kinematic parabola at
	// the discrete sample points.
	dt := 0.1
	s := doubleIntegrator(dt)
	g := 9.81
	states, outputs := s.Simulate([]float64{100, 0}, 50, func(int, []float64) []float64 {
		return []float64{-g}
	}, nil)
	if len(states) != 50 || len(outputs) != 50 {
		t.Fatal("wrong trajectory length")
	}
	// Exact discrete solution: x_k = 100 - g*(k*dt)^2/2 for ZOH double
	// integrator with the dt^2/2 input column.
	for k := 0; k < 50; k++ {
		tk := float64(k) * dt
		want := 100 - g*tk*tk/2
		if math.Abs(states[k][0]-want) > 1e-9 {
			t.Fatalf("k=%d: pos %v, want %v", k, states[k][0], want)
		}
	}
}

func TestObservability(t *testing.T) {
	// Double integrator observing position: observable.
	s := doubleIntegrator(1)
	if !s.Observable() {
		t.Fatal("position-observed double integrator must be observable")
	}
	// Observing velocity only: position unobservable.
	a := mat.NewDenseData(2, 2, []float64{1, 1, 0, 1})
	b := mat.NewDense(2, 1)
	c := mat.NewDenseData(1, 2, []float64{0, 1})
	s2, _ := NewSystem(a, b, c, nil)
	if s2.Observable() {
		t.Fatal("velocity-only observation must not be observable")
	}
}

func TestControllability(t *testing.T) {
	s := doubleIntegrator(1)
	if !s.Controllable() {
		t.Fatal("double integrator with accel input must be controllable")
	}
	// Input only into an isolated state.
	a := mat.Diag([]float64{0.5, 0.7})
	b := mat.NewDenseData(2, 1, []float64{1, 0})
	c := mat.Identity(2)
	s2, _ := NewSystem(a, b, c, nil)
	if s2.Controllable() {
		t.Fatal("decoupled second state must not be controllable")
	}
}

func TestStable(t *testing.T) {
	b := mat.NewDense(2, 1)
	c := mat.Identity(2)
	stable, _ := NewSystem(mat.Diag([]float64{0.9, -0.5}), b, c, nil)
	if !stable.Stable() {
		t.Fatal("contractive diagonal must be stable")
	}
	marginal, _ := NewSystem(mat.NewDenseData(2, 2, []float64{1, 1, 0, 1}), b, c, nil)
	if marginal.Stable() {
		t.Fatal("double integrator must not be strictly stable")
	}
	unstable, _ := NewSystem(mat.Diag([]float64{1.1, 0.2}), b, c, nil)
	if unstable.Stable() {
		t.Fatal("expanding mode must be unstable")
	}
}
