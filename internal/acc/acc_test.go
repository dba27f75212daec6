package acc

import (
	"math"
	"testing"

	"safesense/internal/units"
	"safesense/internal/vehicle"
)

func cfg() Config { return DefaultConfig(units.MphToMps(67)) }

func TestConfigValidate(t *testing.T) {
	if err := cfg().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.SetSpeed = 0 },
		func(c *Config) { c.HeadwayTime = 0 },
		func(c *Config) { c.StopDistance = -1 },
		func(c *Config) { c.Gain = 0 },
		func(c *Config) { c.TimeConstant = 0 },
		func(c *Config) { c.SamplePeriod = 0 },
		func(c *Config) { c.AccelMax = 0 },
		func(c *Config) { c.BrakeMax = 0 },
	}
	for i, m := range mutations {
		c := cfg()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("mutation %d should fail validation", i)
		}
	}
}

func TestDesiredDistanceEqn12(t *testing.T) {
	c := cfg()
	// d_des = d0 + tau_h * vF = 5 + 3 * 29.9517 at the paper's set speed.
	v := units.MphToMps(67)
	want := 5 + 3*v
	if got := c.DesiredDistance(v); math.Abs(got-want) > 1e-9 {
		t.Fatalf("DesiredDistance = %v, want %v", got, want)
	}
}

func TestSpeedModeWhenFarOrNoTarget(t *testing.T) {
	u, err := NewUpperController(cfg())
	if err != nil {
		t.Fatal(err)
	}
	// No target at all.
	cmd := u.Step(0, 0, 20, false)
	if cmd.Mode != SpeedControl {
		t.Fatalf("mode = %v, want speed", cmd.Mode)
	}
	if cmd.VDes != cfg().SetSpeed {
		t.Fatalf("VDes = %v, want set speed", cmd.VDes)
	}
	// Target far beyond the desired distance.
	cmd = u.Step(500, 0, 20, true)
	if cmd.Mode != SpeedControl {
		t.Fatalf("mode = %v, want speed for far target", cmd.Mode)
	}
}

func TestSpacingModeWhenClose(t *testing.T) {
	u, _ := NewUpperController(cfg())
	v := 29.0
	d := cfg().DesiredDistance(v) - 10 // inside the desired gap
	cmd := u.Step(d, -1, v, true)
	if cmd.Mode != SpacingControl {
		t.Fatalf("mode = %v, want spacing", cmd.Mode)
	}
	if cmd.ClearanceError >= 0 {
		t.Fatalf("clearance error = %v, want negative", cmd.ClearanceError)
	}
	// Too close and closing: the controller must demand deceleration.
	if cmd.VDes >= v {
		t.Fatalf("VDes = %v, want below current speed %v", cmd.VDes, v)
	}
}

func TestSpacingEquilibrium(t *testing.T) {
	// At exactly d = d_des and matched speeds, VDes equals vF (Eqn 13
	// equilibrium).
	u, _ := NewUpperController(cfg())
	v := 25.0
	cmd := u.Step(cfg().DesiredDistance(v), 0, v, true)
	if cmd.Mode != SpacingControl {
		t.Fatalf("mode = %v", cmd.Mode)
	}
	if math.Abs(cmd.VDes-v) > 1e-9 {
		t.Fatalf("VDes = %v, want %v", cmd.VDes, v)
	}
}

func TestADesSaturation(t *testing.T) {
	c := cfg()
	u, _ := NewUpperController(c)
	// Massive spoofed closing rate: demanded acceleration must clip at
	// AccelMax.
	cmd := u.Step(c.DesiredDistance(25)-1, 500, 25, true)
	if cmd.ADes > c.AccelMax+1e-12 {
		t.Fatalf("ADes = %v exceeds AccelMax", cmd.ADes)
	}
	// Emergency closing: clipped at -BrakeMax.
	cmd = u.Step(5, -50, 25, true)
	if cmd.ADes < -c.BrakeMax-1e-12 {
		t.Fatalf("ADes = %v exceeds brake limit", cmd.ADes)
	}
}

func TestSpeedModeAcceleratesTowardSetSpeed(t *testing.T) {
	// A speed-mode vehicle below v_set must be commanded to accelerate —
	// the regression that motivated anchoring Eqn 16 at vF.
	u, _ := NewUpperController(cfg())
	cmd := u.Step(0, 0, 20, false)
	if cmd.ADes <= 0 {
		t.Fatalf("ADes = %v, want positive below set speed", cmd.ADes)
	}
	// At the set speed the command settles to zero.
	cmd = u.Step(0, 0, cfg().SetSpeed, false)
	if math.Abs(cmd.ADes) > 1e-9 {
		t.Fatalf("ADes at set speed = %v, want 0", cmd.ADes)
	}
}

func TestVDesNeverNegative(t *testing.T) {
	u, _ := NewUpperController(cfg())
	cmd := u.Step(1, -100, 2, true)
	if cmd.VDes < 0 {
		t.Fatalf("VDes = %v, want >= 0", cmd.VDes)
	}
}

func TestLowerControllerTracksStep(t *testing.T) {
	l, err := NewLowerController(cfg())
	if err != nil {
		t.Fatal(err)
	}
	// Constant demand: converges to K1 * aDes = aDes.
	var a float64
	for i := 0; i < 50; i++ {
		a = l.Step(-1.5)
	}
	if math.Abs(a-(-1.5)) > 1e-6 {
		t.Fatalf("lower loop settled at %v, want -1.5", a)
	}
	if math.Abs(l.Accel()-a) > 1e-12 {
		t.Fatal("Accel() inconsistent")
	}
}

func TestLowerControllerFirstStepFraction(t *testing.T) {
	// One sample of the ZOH first-order lag moves (1 - exp(-T/Ti)) of the
	// way: ~0.6293 for T = 1, Ti = 1.008.
	l, _ := NewLowerController(cfg())
	a := l.Step(1.0)
	want := 1 - math.Exp(-1/1.008)
	if math.Abs(a-want) > 1e-9 {
		t.Fatalf("first-step response = %v, want %v", a, want)
	}
}

func TestControllerClosedLoopFollowsDeceleratingLeader(t *testing.T) {
	// Full hierarchical controller against the Figure 2 scenario without
	// attacks: the follower must slow down, never collide, and keep a gap
	// close to d_des once settled.
	c := cfg()
	ctl, err := NewController(c)
	if err != nil {
		t.Fatal(err)
	}
	leader := vehicle.State{Position: 100, Velocity: units.MphToMps(65)}
	follower := vehicle.State{Position: 0, Velocity: units.MphToMps(67)}
	minGap := math.Inf(1)
	for k := 0; k < 300; k++ {
		la := -0.1082
		if leader.Velocity <= 0 {
			la = 0
		}
		leader = leader.Step(la, 1)
		d := vehicle.Gap(leader, follower)
		dv := vehicle.RelVelocity(leader, follower)
		_, aF := ctl.Step(d, dv, follower.Velocity, true)
		follower = follower.Step(aF, 1)
		if g := vehicle.Gap(leader, follower); g < minGap {
			minGap = g
		}
	}
	if minGap <= 0 {
		t.Fatalf("collision: min gap %v", minGap)
	}
	// Both should be nearly stopped; gap near the standstill distance d0.
	if follower.Velocity > 1.0 {
		t.Fatalf("follower still at %v m/s", follower.Velocity)
	}
	gap := vehicle.Gap(leader, follower)
	if gap < 1 || gap > 30 {
		t.Fatalf("settled gap %v m implausible", gap)
	}
}

func TestModeString(t *testing.T) {
	if SpeedControl.String() != "speed" || SpacingControl.String() != "spacing" {
		t.Fatal("mode strings")
	}
}

func TestSpacingEquilibriumZeroAccel(t *testing.T) {
	// At d = d_des with matched speeds the commanded acceleration is zero.
	u, _ := NewUpperController(cfg())
	cmd := u.Step(cfg().DesiredDistance(20), 0, 20, true)
	if math.Abs(cmd.ADes) > 1e-9 {
		t.Fatalf("equilibrium ADes = %v, want 0", cmd.ADes)
	}
}

func TestControllerStepZeroAlloc(t *testing.T) {
	ctl, err := NewController(cfg())
	if err != nil {
		t.Fatal(err)
	}
	d := 60.0
	if avg := testing.AllocsPerRun(200, func() {
		d -= 0.1
		ctl.Step(d, -0.4, 29, true)
	}); avg != 0 {
		t.Fatalf("Controller.Step: %v allocs/op, want 0", avg)
	}
}
