package radar

import (
	"errors"
	"math"

	"safesense/internal/noise"
	"safesense/internal/prbs"
)

// SweepCorruptor is implemented by attacks that operate on the physical
// channel: they transform the dechirped sweep the receiver digitizes, the
// way a jammer's energy or a spoofer's counterfeit reflection would.
type SweepCorruptor interface {
	// CorruptSweep transforms the receiver's sweep at step k. challenge
	// reports whether the radar suppressed its own transmission. The
	// sweep from SignalFrontEnd.ObserveSweep aliases the front end's
	// buffers: implementations transform it in place and return it, and
	// the result is valid until the next ObserveSweep.
	CorruptSweep(k int, s Sweep, challenge bool) Sweep
}

// SignalFrontEnd is the high-fidelity measurement pipeline: it synthesizes
// the dechirped baseband sweep for the true target (or thermal noise at a
// challenge instant), lets a SweepCorruptor transform it, and extracts the
// measurement with a configurable beat estimator — the chain the paper
// implements with the MATLAB Phased Array Toolbox plus root MUSIC.
//
// The front end owns the two segment buffers every sweep is synthesized
// into, and caches the target's link budget, the noise floor and the
// quiet-channel threshold, so the per-step chain ObserveSweep →
// CorruptSweep → Measure allocates nothing with the FFT extractor.
type SignalFrontEnd struct {
	Schedule prbs.Schedule
	// Extractor recovers the beat frequencies (FFTExtractor or
	// MUSICExtractor).
	Extractor BeatExtractor

	params     Params
	src        *noise.Source
	sweep      Sweep      // segment buffers ObserveSweep overwrites
	budget     linkBudget // params.linkBudget(params.TargetRCS)
	noiseFloor float64    // params.NoiseFloor()
	zeroThresh float64    // 10 × the noise floor
}

// NewSignalFrontEnd validates and builds the signal-level front end with
// samples per sweep segment. A zero-value FFTExtractor gets a workspace
// sized to the segments, so its extraction reuses one window and scratch.
func NewSignalFrontEnd(p Params, sched prbs.Schedule, ext BeatExtractor, samples int, src *noise.Source) (*SignalFrontEnd, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if sched == nil {
		return nil, errors.New("radar: nil challenge schedule")
	}
	if ext == nil {
		return nil, errors.New("radar: nil beat extractor")
	}
	if samples < 32 {
		return nil, errors.New("radar: need at least 32 samples per segment")
	}
	if src == nil {
		return nil, errors.New("radar: nil noise source")
	}
	if fe, ok := ext.(FFTExtractor); ok && fe.ws == nil {
		ext = FFTExtractor{ws: newFFTWorkspace(samples)}
	}
	nf := p.NoiseFloor()
	return &SignalFrontEnd{
		Schedule:   sched,
		Extractor:  ext,
		params:     p,
		src:        src,
		sweep:      p.newSweep(samples),
		budget:     p.linkBudget(p.TargetRCS),
		noiseFloor: nf,
		zeroThresh: 10 * nf,
	}, nil
}

// ObserveSweep produces the receiver's raw sweep at step k for the true
// target, before any attack: thermal noise only at challenge instants or
// out of range, the dechirped target return otherwise. The returned sweep
// aliases the front end's segment buffers and is valid until the next
// ObserveSweep, which overwrites it.
//
//safesense:hotpath
func (f *SignalFrontEnd) ObserveSweep(k int, dTrue, vRelTrue float64) (s Sweep, challenge bool) {
	challenge = f.Schedule.Challenge(k)
	// InRange implies a positive distance (Validate requires MinRangeM > 0).
	if challenge || !f.params.InRange(dTrue) {
		fillSilence(f.sweep, f.noiseFloor, f.src)
	} else {
		f.params.fillTarget(f.sweep, dTrue, vRelTrue, f.budget.receivedPower(dTrue), f.noiseFloor, f.src)
	}
	return f.sweep, challenge
}

// Measure runs beat extraction on a (possibly corrupted) sweep and returns
// the step measurement. The receiver reports zeros when the sweep power
// sits at the noise floor (nothing detected — the expected challenge
// response), and clamps physically impossible extractions to the
// receiver's unambiguous limits, as the anti-aliasing chain of a real
// FMCW receiver would.
//
//safesense:hotpath
func (f *SignalFrontEnd) Measure(k int, s Sweep, challenge bool) Measurement {
	m := Measurement{K: k, Challenge: challenge, Power: s.Power()}
	if m.Power <= f.zeroThresh {
		return m // quiet channel: zero output
	}
	//safesense:allow hotpathalloc root-MUSIC allocates per sweep (out of scope); FFTExtractor.Extract is its own hot-path root
	fbUp, fbDown, err := f.Extractor.Extract(s)
	if err != nil {
		// Extraction failure on a hot channel: report saturated garbage
		// (the controller-facing equivalent of a blinded receiver).
		m.Distance = f.params.MaxRangeM
		m.RelVelocity = 0
		return m
	}
	d, v := f.params.FromBeats(fbUp, fbDown)
	maxD := f.params.MaxRangeM * 1.2
	m.Distance = clampF(d, 0, maxD)
	m.RelVelocity = clampF(v, -60, 60)
	return m
}

// ZeroThreshold returns the detector's quiet-channel power threshold.
func (f *SignalFrontEnd) ZeroThreshold() float64 {
	return f.zeroThresh
}

func clampF(v, lo, hi float64) float64 {
	return math.Min(math.Max(v, lo), hi)
}

// AddNoiseSweep adds circularly-symmetric Gaussian noise of the given
// per-sample power to both segments of the sweep, in place (up segment
// first), and returns it — the effect of broadband jamming energy reaching
// the receiver.
//
//safesense:hotpath
func AddNoiseSweep(s Sweep, power float64, src *noise.Source) Sweep {
	src.AddComplexNoise(s.Up, power)
	src.AddComplexNoise(s.Down, power)
	return s
}

// Tone is one complex tone amp*exp(2*pi*i*freq*k/fs), k in [0, n),
// tabulated the first time a sweep asks for it: the per-attack constant
// a sweep-level spoofer applies at every attacked step. The table is
// rebuilt only when the segment length, sample rate or amplitude asked
// for changes, so a steady run does no trigonometry and no allocation
// after its first use. The table comes from fillTone, the generator of
// the target's own beat tones, so each sample is within 1e-12*amp of
// cmplx.Rect(amp, 2*pi*freq*k/fs). A Tone serves one of Mix or Add (they
// ask for different amplitudes) and is not safe for concurrent use.
type Tone struct {
	freq    float64
	fs, amp float64 // sample rate and amplitude samples was built for
	samples []complex128
}

// NewTone returns the tone at freq Hz; its table is built on first use.
func NewTone(freq float64) Tone { return Tone{freq: freq} }

// Mix multiplies both segments of the sweep by the unit-amplitude tone,
// in place, and returns it — a frequency shift by freq Hz, the effect of
// injecting extra round-trip delay tau into the reflection, since an
// FMCW dechirper maps delay to beat frequency by df = tau * Bs / Ts.
//
//safesense:hotpath
func (t *Tone) Mix(s Sweep) Sweep {
	for _, x := range [2][]complex128{s.Up, s.Down} {
		p := t.table(len(x), s.Fs, 1)
		for i, v := range x {
			x[i] = v * p[i]
		}
	}
	return s
}

// Add adds the tone at the given per-sample power to both segments of
// the sweep, in place, and returns it — a spoofer's counterfeit return
// landing in the dechirped band. Each segment starts at phase zero.
//
//safesense:hotpath
func (t *Tone) Add(s Sweep, power float64) Sweep {
	amp := math.Sqrt(power)
	for _, x := range [2][]complex128{s.Up, s.Down} {
		p := t.table(len(x), s.Fs, amp)
		for i, v := range x {
			x[i] = v + p[i]
		}
	}
	return s
}

// table returns the tone's n samples at sample rate fs and amplitude
// amp, rebuilding them when any of the three differs from the last call.
func (t *Tone) table(n int, fs, amp float64) []complex128 {
	if len(t.samples) == n && t.fs == fs && t.amp == amp {
		return t.samples
	}
	if cap(t.samples) < n {
		t.samples = make([]complex128, n)
	}
	t.samples = t.samples[:n]
	fillTone(t.samples, t.freq, fs, amp)
	t.fs, t.amp = fs, amp
	return t.samples
}
