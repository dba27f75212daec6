package radar

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"safesense/internal/dsp/music"
	"safesense/internal/dsp/spectrum"
	"safesense/internal/dsp/window"
	"safesense/internal/noise"
)

// Sweep holds one triangular-FMCW measurement cycle of dechirped complex
// baseband samples: the up-slope segment carries a tone at fb+ and the
// down-slope segment a tone at fb-.
type Sweep struct {
	Up   []complex128
	Down []complex128
	// Fs is the sample rate the segments were synthesized at.
	Fs float64
}

// SynthesizeSweep produces the dechirped receiver output for a point target
// at distance d with range rate vRel. Each segment has n samples; thermal
// noise at the link-budget SNR is added when src is non-nil. This is the
// substitute for the MATLAB Phased Array System Toolbox simulation: the
// toolbox ultimately hands the estimator exactly this pair of noisy tones.
func (p Params) SynthesizeSweep(d, vRel float64, n int, src *noise.Source) (Sweep, error) {
	if n < 2 {
		return Sweep{}, fmt.Errorf("radar: need at least 2 samples per segment, got %d", n)
	}
	if d <= 0 {
		return Sweep{}, errors.New("radar: non-positive target distance")
	}
	s := p.newSweep(n)
	p.fillTarget(s, d, vRel, p.ReceivedPower(d, p.TargetRCS), p.NoiseFloor(), src)
	return s, nil
}

// SynthesizeSilence produces the receiver output during a CRA challenge
// instant when nothing was transmitted: thermal noise only.
func (p Params) SynthesizeSilence(n int, src *noise.Source) Sweep {
	s := p.newSweep(n)
	fillSilence(s, p.NoiseFloor(), src)
	return s
}

func (p Params) newSweep(n int) Sweep {
	return Sweep{Up: make([]complex128, n), Down: make([]complex128, n), Fs: p.SampleRateHz}
}

// fillTarget overwrites s with the target's two beat tones at received
// power pr plus, when src is non-nil, thermal noise of power nf: up
// segment first, then down.
func (p Params) fillTarget(s Sweep, d, vRel, pr, nf float64, src *noise.Source) {
	fbUp, fbDown := p.BeatFrequencies(d, vRel)
	amp := math.Sqrt(pr)
	fillTone(s.Up, fbUp, p.SampleRateHz, amp)
	fillTone(s.Down, fbDown, p.SampleRateHz, amp)
	if src != nil {
		src.AddComplexNoise(s.Up, nf)
		src.AddComplexNoise(s.Down, nf)
	}
}

// fillSilence overwrites s with thermal noise of power nf: up segment
// first, then down.
func fillSilence(s Sweep, nf float64, src *noise.Source) {
	src.FillComplexNoise(s.Up, nf)
	src.FillComplexNoise(s.Down, nf)
}

// toneBlock is how many samples fillTone advances by phasor rotation
// before it re-anchors on cmplx.Rect, which bounds the recurrence's
// rounding drift to a few ulps of amp.
const toneBlock = 32

// fillTone overwrites x with the tone amp*exp(i*w*k), w = 2*pi*f/fs, for
// k in [0, len(x)). Each block of toneBlock samples starts at
// cmplx.Rect(amp, w*k0) and each later sample is the previous one times
// the unit step exp(i*w), so a segment costs one Sincos per block plus
// one for the step rather than one per sample. It stays within 1e-12*amp
// of cmplx.Rect(amp, w*k) for segments up to 1024 samples.
func fillTone(x []complex128, f, fs, amp float64) {
	w := 2 * math.Pi * f / fs
	sin, cos := math.Sincos(w)
	step := complex(cos, sin)
	for k0 := 0; k0 < len(x); k0 += toneBlock {
		v := cmplx.Rect(amp, w*float64(k0))
		block := x[k0:min(k0+toneBlock, len(x))]
		for k := range block {
			block[k] = v
			v *= step
		}
	}
}

// Power returns the average received power across both segments, the
// quantity the CRA detector thresholds at challenge instants.
func (s Sweep) Power() float64 {
	return (noise.AveragePower(s.Up) + noise.AveragePower(s.Down)) / 2
}

// BeatExtractor recovers the two beat frequencies from a sweep.
type BeatExtractor interface {
	// Extract returns the estimated (fb+, fb-) in Hz.
	Extract(s Sweep) (fbUp, fbDown float64, err error)
	// Name identifies the extractor in benchmark output.
	Name() string
}

// FFTExtractor estimates each segment's beat frequency from the dominant
// peak of a Hann-windowed periodogram with parabolic interpolation. The
// zero value builds its window and scratch on every call;
// NewSignalFrontEnd gives its FFTExtractor a workspace sized to the sweep,
// so extraction there allocates nothing.
type FFTExtractor struct {
	ws *fftWorkspace
}

// fftWorkspace is what spectrum.DominantFrequency reuses across sweeps of
// one segment length: the Hann window, its power normalization and the
// spectrum scratch.
type fftWorkspace struct {
	window  []float64
	power   float64
	scratch []complex128
}

func newFFTWorkspace(n int) *fftWorkspace {
	w := window.Hann(n)
	return &fftWorkspace{window: w, power: spectrum.WindowPower(w), scratch: make([]complex128, n)}
}

// Name implements BeatExtractor.
func (FFTExtractor) Name() string { return "fft" }

// Extract implements BeatExtractor.
//
//safesense:hotpath
func (e FFTExtractor) Extract(s Sweep) (float64, float64, error) {
	fbUp, err := e.segment(s.Up, s.Fs)
	if err != nil {
		return 0, 0, &segmentError{segment: "up", err: err}
	}
	fbDown, err := e.segment(s.Down, s.Fs)
	if err != nil {
		return 0, 0, &segmentError{segment: "down", err: err}
	}
	return fbUp, fbDown, nil
}

func (e FFTExtractor) segment(x []complex128, fs float64) (float64, error) {
	ws := e.ws
	if ws == nil || len(ws.window) != len(x) {
		ws = newFFTWorkspace(len(x))
	}
	return spectrum.DominantFrequency(x, ws.window, ws.power, fs, ws.scratch)
}

// segmentError reports which sweep segment beat extraction failed on.
type segmentError struct {
	segment string // "up" or "down"
	err     error
}

func (e *segmentError) Error() string { return "radar: " + e.segment + "-segment: " + e.err.Error() }

func (e *segmentError) Unwrap() error { return e.err }

// musicOrder is the covariance order root-MUSIC runs at.
const musicOrder = 12

// MUSICExtractor estimates each segment's beat frequency with root-MUSIC,
// the paper's choice ("The root MUSIC algorithm is used to extract beat
// frequencies from radar data"), at covariance order 12.
type MUSICExtractor struct{}

// Name implements BeatExtractor.
func (MUSICExtractor) Name() string { return "root-music" }

// Extract implements BeatExtractor.
func (MUSICExtractor) Extract(s Sweep) (float64, float64, error) {
	est, err := music.New(music.Config{Order: musicOrder, NumSignals: 1})
	if err != nil {
		return 0, 0, err
	}
	fbUp, err := segmentFreq(est, s.Up, s.Fs)
	if err != nil {
		return 0, 0, &segmentError{segment: "up", err: err}
	}
	fbDown, err := segmentFreq(est, s.Down, s.Fs)
	if err != nil {
		return 0, 0, &segmentError{segment: "down", err: err}
	}
	return fbUp, fbDown, nil
}

func segmentFreq(est *music.Estimator, x []complex128, fs float64) (float64, error) {
	ws, err := est.Frequencies(x)
	if err != nil {
		return 0, err
	}
	// Normalized rad/sample -> Hz. Beat tones are positive by
	// construction; a negative angle means the tone aliased past pi.
	f := ws[0] * fs / (2 * math.Pi)
	if f < 0 {
		f += fs
	}
	return f, nil
}

// MeasureSweep runs a full signal-level measurement: synthesize the
// dechirped sweep for the true target, extract beat frequencies with the
// given extractor, and convert to distance and range rate via Eqns 7–8.
func (p Params) MeasureSweep(dTrue, vRelTrue float64, n int, ext BeatExtractor, src *noise.Source) (d, vRel float64, err error) {
	s, err := p.SynthesizeSweep(dTrue, vRelTrue, n, src)
	if err != nil {
		return 0, 0, err
	}
	fbUp, fbDown, err := ext.Extract(s)
	if err != nil {
		return 0, 0, err
	}
	d, vRel = p.FromBeats(fbUp, fbDown)
	return d, vRel, nil
}
