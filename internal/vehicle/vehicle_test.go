package vehicle

import (
	"math"
	"testing"
	"testing/quick"

	"safesense/internal/units"
)

func TestStepKinematics(t *testing.T) {
	s := State{Position: 10, Velocity: 5}
	next := s.Step(2, 1)
	if math.Abs(next.Velocity-7) > 1e-12 {
		t.Fatalf("velocity = %v, want 7", next.Velocity)
	}
	if math.Abs(next.Position-16) > 1e-12 { // 10 + 5 + 2/2
		t.Fatalf("position = %v, want 16", next.Position)
	}
	if next.Accel != 2 {
		t.Fatalf("accel = %v", next.Accel)
	}
}

func TestStepNoReverse(t *testing.T) {
	// Braking harder than needed to stop: the vehicle halts, never backs.
	s := State{Position: 0, Velocity: 1}
	next := s.Step(-2, 1)
	if next.Velocity != 0 {
		t.Fatalf("velocity = %v, want 0", next.Velocity)
	}
	// Stop occurs at t = 0.5 s, having covered 0.25 m.
	if math.Abs(next.Position-0.25) > 1e-12 {
		t.Fatalf("position = %v, want 0.25", next.Position)
	}
	// Position must never decrease under any braking input.
	f := func(v, a float64) bool {
		if math.IsNaN(v) || math.IsNaN(a) || math.Abs(v) > 1e6 || math.Abs(a) > 1e6 {
			return true
		}
		if v < 0 {
			v = -v
		}
		st := State{Position: 0, Velocity: v}
		return st.Step(a, 1).Position >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGapAndRelVelocity(t *testing.T) {
	l := State{Position: 100, Velocity: 29}
	f := State{Position: 0, Velocity: 30}
	if Gap(l, f) != 100 {
		t.Fatalf("Gap = %v", Gap(l, f))
	}
	if RelVelocity(l, f) != -1 {
		t.Fatalf("RelVelocity = %v", RelVelocity(l, f))
	}
}

func TestConstantAccelProfile(t *testing.T) {
	p := ConstantAccel{A: -0.1082}
	for _, k := range []int{0, 100, 299} {
		if p.Accel(k) != -0.1082 {
			t.Fatalf("Accel(%d) = %v", k, p.Accel(k))
		}
	}
	if p.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestPhasedProfile(t *testing.T) {
	p, err := NewPhasedProfile("fig3", Phase{Until: 150, A: -0.1082}, Phase{Until: 300, A: 0.012})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Accel(0); got != -0.1082 {
		t.Fatalf("Accel(0) = %v", got)
	}
	if got := p.Accel(150); got != -0.1082 {
		t.Fatalf("Accel(150) = %v", got)
	}
	if got := p.Accel(151); got != 0.012 {
		t.Fatalf("Accel(151) = %v", got)
	}
	if got := p.Accel(10_000); got != 0.012 {
		t.Fatalf("Accel beyond last phase = %v", got)
	}
	if p.Name() != "fig3" {
		t.Fatal("name")
	}
}

func TestPhasedProfileValidation(t *testing.T) {
	if _, err := NewPhasedProfile("empty"); err == nil {
		t.Fatal("empty profile should fail")
	}
	if _, err := NewPhasedProfile("bad", Phase{Until: 10, A: 1}, Phase{Until: 10, A: 2}); err == nil {
		t.Fatal("non-increasing phases should fail")
	}
}

func TestLeaderStopsUnderConstantDecel(t *testing.T) {
	// The Figure 2 leader: 65 mph, -0.1082 m/s^2 — standstill near
	// t = 29.06/0.1082 ≈ 268.5 s, and it must stay stopped.
	s := State{Position: 100, Velocity: units.MphToMps(65)}
	p := ConstantAccel{A: -0.1082}
	for k := 0; k < 300; k++ {
		s = s.Step(p.Accel(k), 1)
		if s.Velocity < 0 {
			t.Fatalf("negative velocity at %d", k)
		}
	}
	if s.Velocity != 0 {
		t.Fatalf("leader still moving at 300 s: %v m/s", s.Velocity)
	}
}
