package attack

import (
	"math"
	"math/cmplx"
	"testing"

	"safesense/internal/noise"
	"safesense/internal/prbs"
	"safesense/internal/radar"
	"safesense/internal/units"
)

func TestDoSCorruptSweepFloodsChannel(t *testing.T) {
	p := radar.BoschLRR2()
	src := noise.NewSource(1)
	a, err := NewDoS(Window{Start: 100, End: 200}, PaperJammer(), p, src)
	if err != nil {
		t.Fatal(err)
	}
	quiet := p.SynthesizeSilence(128, src)
	before := quiet.Power()
	// Outside the window: untouched.
	if out := a.CorruptSweep(50, quiet, true); out.Power() != before {
		t.Fatal("DoS sweep corruption outside window")
	}
	// Inside: jammed in place.
	jammed := a.CorruptSweep(150, quiet, true)
	if jammed.Power() < 100*before {
		t.Fatalf("jammed power %v not far above quiet %v", jammed.Power(), before)
	}
}

func TestDelayCorruptSweepShiftsDistance(t *testing.T) {
	p := radar.BoschLRR2()
	a, err := NewDelayInjection(Window{Start: 100, End: 300}, 6, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.SynthesizeSweep(100, -1.0, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	spoofed := a.CorruptSweep(150, s, false)
	fbUp, fbDown, err := (radar.FFTExtractor{}).Extract(spoofed)
	if err != nil {
		t.Fatal(err)
	}
	d, v := p.FromBeats(fbUp, fbDown)
	if math.Abs(d-106) > 1.0 {
		t.Fatalf("spoofed distance = %v, want ~106", d)
	}
	// Doppler preserved: both slopes shift identically.
	if math.Abs(v-(-1.0)) > 0.5 {
		t.Fatalf("spoofed velocity = %v, want ~-1.0", v)
	}
}

func TestDelayCorruptSweepLeaksDuringChallenge(t *testing.T) {
	p := radar.BoschLRR2()
	src := noise.NewSource(2)
	a, _ := NewDelayInjection(Window{Start: 100, End: 300}, 6, p)
	quiet := p.SynthesizeSilence(128, src)
	leaked := a.CorruptSweep(150, quiet, true)
	threshold := 10 * p.NoiseFloor()
	if leaked.Power() <= threshold {
		t.Fatalf("challenge leak power %v below threshold %v", leaked.Power(), threshold)
	}
}

func TestFastAdversaryValidation(t *testing.T) {
	if _, err := NewFastAdversary(Window{Start: 5, End: 1}, 6); err == nil {
		t.Fatal("bad window should fail")
	}
	if _, err := NewFastAdversary(Window{Start: 1, End: 5}, 0); err == nil {
		t.Fatal("zero offset should fail")
	}
}

func TestFastAdversaryEvadesChallenges(t *testing.T) {
	a, err := NewFastAdversary(Window{Start: 100, End: 300}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "fast-adversary" {
		t.Fatal("name")
	}
	// Normal instant: spoofed.
	clean := radar.Measurement{K: 150, Distance: 90, Power: 1e-12}
	got := a.Corrupt(150, clean)
	if got.Distance != 96 {
		t.Fatalf("spoofed distance = %v, want 96", got.Distance)
	}
	// Challenge instant: perfectly silent — the CRA-evading property.
	challenge := radar.Measurement{K: 182, Challenge: true, Power: 1e-14}
	if out := a.Corrupt(182, challenge); out != challenge {
		t.Fatal("fast adversary must be invisible at challenge instants")
	}
	// Outside window: identity.
	if out := a.Corrupt(50, clean); out != clean {
		t.Fatal("outside window must be identity")
	}
}

// TestCorruptSweepZeroAlloc guards the //safesense:hotpath sweep-level
// attacks on a front-end-owned sweep: DoS jamming, the delay spoofer's
// shift, and its challenge-leak tone. One warm-up call builds the
// spoofer's table for the sweep length; after it nothing allocates,
// including alternating shift and leak steps, which keep separate
// tables.
func TestCorruptSweepZeroAlloc(t *testing.T) {
	p := radar.BoschLRR2()
	src := noise.NewSource(3)
	sfe, err := radar.NewSignalFrontEnd(p, prbs.NewFixedSchedule(), radar.FFTExtractor{}, 128, src)
	if err != nil {
		t.Fatal(err)
	}
	dos, err := NewDoS(Window{Start: 100, End: 200}, PaperJammer(), p, src)
	if err != nil {
		t.Fatal(err)
	}
	delay, err := NewDelayInjection(Window{Start: 100, End: 200}, 6, p)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sfe.ObserveSweep(150, 100, -1.5)
	for _, c := range []struct {
		name      string
		atk       radar.SweepCorruptor
		challenge bool
	}{
		{"DoS", dos, false},
		{"DoS challenge", dos, true},
		{"delay shift", delay, false},
		{"delay challenge leak", delay, true},
	} {
		f := func() { c.atk.CorruptSweep(150, s, c.challenge) }
		f() // the one-time table build
		if avg := testing.AllocsPerRun(200, f); avg != 0 {
			t.Errorf("%s CorruptSweep: %v allocs/op, want 0", c.name, avg)
		}
	}
	alternate := func() {
		delay.CorruptSweep(150, s, false)
		delay.CorruptSweep(151, s, true)
	}
	if avg := testing.AllocsPerRun(200, alternate); avg != 0 {
		t.Errorf("alternating delay shift and leak: %v allocs/op, want 0", avg)
	}
}

// TestDelayCorruptSweepMatchesPerSample: the spoofer's hoisted constants
// and tables reproduce the per-step computation they replace — the beat
// shift df = tau*Bs/Ts and the challenge leak at the mid-range
// counterfeit power, each tone built fresh by radar.NewTone — bit for
// bit, at several sweep lengths and offsets, for both the plain and the
// schedule-aware spoofer. The result also stays within 1e-12 of the
// per-sample synthesis (one math.Sincos or cmplx.Rect per sample) that
// the radar's phasor tone generator stands in for.
func TestDelayCorruptSweepMatchesPerSample(t *testing.T) {
	p := radar.BoschLRR2()
	src := noise.NewSource(4)
	for _, n := range []int{64, 128, 256} {
		for _, offset := range []float64{3, 6, 12.5} {
			for _, smart := range []bool{false, true} {
				a, err := NewDelayInjection(Window{Start: 0, End: 10}, offset, p)
				if err != nil {
					t.Fatal(err)
				}
				a.KnowsSchedule = smart
				tau := units.RoundTripDelay(offset)
				df := tau * p.SweepBandwidthHz / p.SweepTimeSec
				mid := (p.MinRangeM + p.MaxRangeM) / 2
				fb, _ := p.BeatFrequencies(mid, 0)
				g := units.DBToLinear(p.AntennaGainDBi)
				leak := p.TransmitPowerW * g * g * p.WavelengthM * p.WavelengthM /
					(math.Pow(4*math.Pi, 2) * mid * mid)
				if smart {
					leak /= 10
				}
				for step, challenge := range []bool{false, true, false, true} {
					s, err := p.SynthesizeSweep(100, -1, n, src)
					if err != nil {
						t.Fatal(err)
					}
					clone := func() radar.Sweep {
						return radar.Sweep{Up: append([]complex128{}, s.Up...), Down: append([]complex128{}, s.Down...), Fs: s.Fs}
					}
					var want radar.Sweep
					if challenge {
						tone := radar.NewTone(fb + df)
						want = tone.Add(clone(), leak)
					} else {
						tone := radar.NewTone(df)
						want = tone.Mix(clone())
					}
					perSample := clone()
					for _, x := range [][]complex128{perSample.Up, perSample.Down} {
						for i, v := range x {
							if challenge {
								x[i] = v + cmplx.Rect(math.Sqrt(leak), 2*math.Pi*(fb+df)/s.Fs*float64(i))
							} else {
								sin, cos := math.Sincos(2 * math.Pi * df / s.Fs * float64(i))
								x[i] = v * complex(cos, sin)
							}
						}
					}
					got := a.CorruptSweep(step, clone(), challenge)
					if !sameSweep(got, want) {
						t.Fatalf("n=%d offset=%v smart=%v challenge=%v: sweep differs from a freshly built tone",
							n, offset, smart, challenge)
					}
					for i := range s.Up {
						for _, pair := range [][2]complex128{{got.Up[i], perSample.Up[i]}, {got.Down[i], perSample.Down[i]}} {
							if e := cmplx.Abs(pair[0] - pair[1]); e > 1e-12*(cmplx.Abs(pair[1])+math.Sqrt(leak)) {
								t.Fatalf("n=%d offset=%v smart=%v challenge=%v: sample %d is %g from per-sample synthesis",
									n, offset, smart, challenge, i, e)
							}
						}
					}
				}
			}
		}
	}
}

func sameSweep(a, b radar.Sweep) bool {
	for i := range b.Up {
		if a.Up[i] != b.Up[i] || a.Down[i] != b.Down[i] {
			return false
		}
	}
	return len(a.Up) == len(b.Up) && len(a.Down) == len(b.Down)
}

// TestDoSHoistedBudgetBitExact: the jamming power the DoS attack fixes
// at construction equals Jammer.ReceivedPower evaluated per step — at
// the measured distance, at the mid-range fallback, and in the sweep
// jammer's noise.
func TestDoSHoistedBudgetBitExact(t *testing.T) {
	p := radar.BoschLRR2()
	j := PaperJammer()
	mid := (p.MinRangeM + p.MaxRangeM) / 2
	a, err := NewDoS(Window{Start: 0, End: 10}, j, p, noise.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{0, 12.5, 95, 199} {
		clean := radar.Measurement{K: 1, Distance: d, Power: 1e-13}
		dist := d
		if d <= 0 {
			dist = mid
		}
		if got, want := a.Corrupt(1, clean).Power, clean.Power+j.ReceivedPower(p, dist); got != want {
			t.Fatalf("d=%v: received power %v, want %v", d, got, want)
		}
	}
	s := p.SynthesizeSilence(128, noise.NewSource(6))
	want := radar.Sweep{Up: append([]complex128{}, s.Up...), Down: append([]complex128{}, s.Down...), Fs: s.Fs}
	radar.AddNoiseSweep(want, j.ReceivedPower(p, mid), noise.NewSource(7))
	a, _ = NewDoS(Window{Start: 0, End: 10}, j, p, noise.NewSource(7))
	if !sameSweep(a.CorruptSweep(1, s, false), want) {
		t.Fatal("sweep jamming differs from noise at Jammer.ReceivedPower(mid)")
	}
}
