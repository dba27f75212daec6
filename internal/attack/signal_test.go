package attack

import (
	"math"
	"testing"

	"safesense/internal/noise"
	"safesense/internal/prbs"
	"safesense/internal/radar"
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
// attacks on a front-end-owned sweep, after one warm-up call: DoS
// jamming, the delay spoofer's shift, and its challenge-leak tone.
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
		f()
		if avg := testing.AllocsPerRun(200, f); avg != 0 {
			t.Errorf("%s CorruptSweep: %v allocs/op, want 0", c.name, avg)
		}
	}
}
