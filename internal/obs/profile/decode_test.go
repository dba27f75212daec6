package profile

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
)

// testCapture fabricates a small two-dimension capture: a labeled
// phase, a second phase alongside a numeric job label, and an
// unlabeled sample.
func testCapture() *fabricated {
	return &fabricated{
		SampleType: []valueType{
			{Type: "samples", Unit: "count"},
			{Type: "cpu", Unit: "nanoseconds"},
		},
		Sample: []sample{
			{Value: []int64{3, 30_000_000}, Label: []label{{Key: LabelPhase, Str: "beat_extraction"}}},
			{Value: []int64{1, 10_000_000}, Label: []label{
				{Key: LabelPhase, Str: "rls_estimation"},
				{Key: LabelJob, Num: 7},
			}},
			{Value: []int64{2, 20_000_000}},
		},
	}
}

// testShares is what ReadShares must make of testCapture: the last
// (cpu) value per sample, split by phase, descending.
var testShares = &Shares{
	TotalSamples: 3,
	Total:        60_000_000,
	Phases: []LabelShare{
		{Value: "beat_extraction", Total: 30_000_000, Share: 0.5},
		{Value: Unlabeled, Total: 20_000_000, Share: 20_000_000.0 / 60_000_000},
		{Value: "rls_estimation", Total: 10_000_000, Share: 10_000_000.0 / 60_000_000},
	},
}

func TestDecodeRoundTrip(t *testing.T) {
	got, err := ReadShares(testCapture().Marshal())
	if err != nil {
		t.Fatalf("ReadShares(Marshal): %v", err)
	}
	if !reflect.DeepEqual(got, testShares) {
		t.Fatalf("shares mismatch:\ngot  %+v\nwant %+v", got, testShares)
	}
}

func TestDecodeGzipRoundTrip(t *testing.T) {
	data := testCapture().MarshalGzip()
	if data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("MarshalGzip output is not gzip framed: % x", data[:2])
	}
	got, err := ReadShares(data)
	if err != nil {
		t.Fatalf("ReadShares(MarshalGzip): %v", err)
	}
	if !reflect.DeepEqual(got, testShares) {
		t.Fatal("gzip round trip mismatch")
	}
}

// TestReadSharesPhaseShares: PhaseShare reads a phase's share or zero,
// and a sample's last non-empty phase label decides its phase.
// (TestReadSharesLastValue covers which value is split.)
func TestReadSharesPhaseShares(t *testing.T) {
	sh, err := ReadShares(testCapture().Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.PhaseShare("beat_extraction"); got != 0.5 {
		t.Fatalf("PhaseShare = %v", got)
	}
	if got := sh.PhaseShare("no_such_phase"); got != 0 {
		t.Fatalf("PhaseShare(absent) = %v", got)
	}

	// The last non-empty phase label on a sample wins; an empty one
	// leaves the sample where it was.
	c := &fabricated{
		SampleType: []valueType{{Type: "cpu", Unit: "nanoseconds"}},
		Sample: []sample{{Value: []int64{5}, Label: []label{
			{Key: LabelPhase, Str: "radar_synthesis"},
			{Key: LabelPhase, Str: "cra_check"},
			{Key: LabelPhase},
		}}},
	}
	sh, err = ReadShares(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(sh.Phases) != 1 || sh.Phases[0].Value != "cra_check" || sh.Phases[0].Share != 1 {
		t.Fatalf("phases = %+v, want all of it in cra_check", sh.Phases)
	}
}

// TestReadSharesLastValue: the reader splits each sample's last value
// whatever its type, with no sample-type selection. Here the samples
// count comes last, so the split is by count, not by cpu time.
func TestReadSharesLastValue(t *testing.T) {
	c := &fabricated{
		SampleType: []valueType{
			{Type: "cpu", Unit: "nanoseconds"},
			{Type: "samples", Unit: "count"},
		},
		Sample: []sample{
			{Value: []int64{10_000_000, 3}, Label: []label{{Key: LabelPhase, Str: "cra_check"}}},
			{Value: []int64{30_000_000, 1}, Label: []label{{Key: LabelPhase, Str: "rls_estimation"}}},
		},
	}
	sh, err := ReadShares(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if sh.Total != 4 || sh.TotalSamples != 2 {
		t.Fatalf("total = %d over %d samples, want the last column's 4 over 2", sh.Total, sh.TotalSamples)
	}
	if got := sh.PhaseShare("cra_check"); got != 0.75 {
		t.Fatalf("PhaseShare(cra_check) = %v, want 0.75 of the count", got)
	}
}

func TestReadSharesEmptySamples(t *testing.T) {
	c := &fabricated{SampleType: []valueType{{Type: "cpu", Unit: "nanoseconds"}}}
	sh, err := ReadShares(c.Marshal())
	if err != nil {
		t.Fatalf("empty capture must read as zero, got error: %v", err)
	}
	if sh.Total != 0 || sh.TotalSamples != 0 || len(sh.Phases) != 0 {
		t.Fatalf("zero-sample shares = %+v", sh)
	}
	if _, err := ReadShares(nil); !errors.Is(err, ErrNoSampleTypes) {
		t.Fatalf("capture with no sample types: err = %v, want ErrNoSampleTypes", err)
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	valid := testCapture().Marshal()
	cases := map[string][]byte{
		"truncated":       valid[:len(valid)-3],
		"bad gzip header": {0x1f, 0x8b, 0xff, 0x00},
		"wire type":       append(appendTag(nil, 2, wireVarint), 1),
	}
	for name, data := range cases {
		if _, err := ReadShares(data); err == nil {
			t.Errorf("%s: ReadShares accepted corrupt input", name)
		}
	}
}

func TestDecodeRejectsValueCountMismatch(t *testing.T) {
	c := testCapture()
	c.Sample[1].Value = c.Sample[1].Value[:1] // one value, two sample types
	if _, err := ReadShares(c.Marshal()); !errors.Is(err, ErrValueCount) {
		t.Fatalf("wrong value arity: err = %v, want ErrValueCount", err)
	}
}

func TestDecodeRejectsBadStringIndex(t *testing.T) {
	// A sample whose label key indexes far past the string table.
	var lb, sb []byte
	lb = appendVarintField(lb, 1, 0x7f)
	sb = appendBytesField(sb, 2, []byte{1, 1})
	sb = appendBytesField(sb, 3, lb)
	raw := appendBytesField(testCapture().Marshal(), 2, sb)
	if _, err := ReadShares(raw); !errors.Is(err, ErrStringIndex) {
		t.Fatalf("out-of-range label key: err = %v, want ErrStringIndex", err)
	}
}

// TestReadSharesRejectsValueRange: a negative CPU value or a total past
// int64 would make shares leave [0, 1]; both are errors.
func TestReadSharesRejectsValueRange(t *testing.T) {
	one := []valueType{{Type: "cpu", Unit: "nanoseconds"}}
	cases := map[string]*fabricated{
		"negative": {SampleType: one, Sample: []sample{{Value: []int64{-1}}}},
		"overflow": {SampleType: one, Sample: []sample{
			{Value: []int64{math.MaxInt64}}, {Value: []int64{1}},
		}},
	}
	for name, c := range cases {
		if _, err := ReadShares(c.Marshal()); !errors.Is(err, ErrValueRange) {
			t.Errorf("%s: err = %v, want ErrValueRange", name, err)
		}
	}
}

// TestDecodeRejectsGzipBomb: a gzip stream that inflates past
// MaxDecodedBytes is refused rather than read into memory whole.
func TestDecodeRejectsGzipBomb(t *testing.T) {
	var buf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	zeros := make([]byte, 1<<20)
	for n := 0; n <= MaxDecodedBytes; n += len(zeros) {
		zw.Write(zeros)
	}
	zw.Close()
	if _, err := ReadShares(buf.Bytes()); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("gzip bomb: err = %v, want ErrTooLarge", err)
	}
}

// TestDecodeRealRuntimeCapture exercises the reader against a live
// runtime/pprof capture (packed encodings, mappings, locations and
// functions to skip, real label plumbing) rather than only the test
// encoder's output.
func TestDecodeRealRuntimeCapture(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	pl := NewPhaseLabels(context.Background(), "beat_extraction")
	pl.Set(0)
	sink := 0.0
	for i := 0; i < 20_000_000; i++ {
		sink += math.Sqrt(float64(i))
	}
	pl.Unset()
	pprof.StopCPUProfile()
	if sink == 0 {
		t.Fatal("burn loop optimized away")
	}

	sh, err := ReadShares(buf.Bytes())
	if err != nil {
		t.Fatalf("ReadShares(real capture): %v", err)
	}
	if sh.TotalSamples == 0 {
		t.Skip("no samples landed in the window")
	}
	checkShares(t, sh)
	if sh.PhaseShare("beat_extraction") == 0 {
		t.Fatalf("labeled burn loop took no share: %+v", sh.Phases)
	}
}

// checkShares is the reader's output oracle: finite shares in [0, 1]
// that sum to one whenever the capture has a nonzero total.
func checkShares(t *testing.T, sh *Shares) {
	t.Helper()
	var sum float64
	for _, p := range sh.Phases {
		if math.IsNaN(p.Share) || p.Share < 0 || p.Share > 1 {
			t.Fatalf("phase %q share %v outside [0, 1]", p.Value, p.Share)
		}
		sum += p.Share
	}
	if sh.Total > 0 && math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v, want 1 (total %d, phases %+v)", sum, sh.Total, sh.Phases)
	}
}

// goldenCapture is the checked-in gzipped pprof capture (with
// locations, functions and a default sample type the reader skips);
// goldenShares pins what ReadShares makes of it (regenerate with
// PROFILE_REGEN_FIXTURE=1).
const (
	goldenCapture = "testdata/cpu_golden.pprof.gz"
	goldenShares  = "testdata/cpu_golden_shares.json"
)

// TestDecodeGoldenFixture pins the reader's output on a checked-in
// capture: any change to value selection, label handling or share
// accounting shows up as a golden diff.
func TestDecodeGoldenFixture(t *testing.T) {
	raw, err := os.ReadFile(goldenCapture)
	if err != nil {
		t.Fatalf("missing golden fixture: %v", err)
	}
	sh, err := ReadShares(raw)
	if err != nil {
		t.Fatalf("ReadShares(golden): %v", err)
	}
	got, err := json.MarshalIndent(sh, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if os.Getenv("PROFILE_REGEN_FIXTURE") != "" {
		if err := os.WriteFile(goldenShares, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenShares)
	if err != nil {
		t.Fatalf("missing golden shares (regenerate with PROFILE_REGEN_FIXTURE=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden shares drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestDecodeSampleZeroAlloc guards the per-sample loop: reading a
// sample's value and phase label must not allocate.
func TestDecodeSampleZeroAlloc(t *testing.T) {
	e := &encoder{index: map[string]uint64{"": 0}, table: []string{""}}
	buf := e.sample(&sample{
		Value: []int64{5, 50},
		Label: []label{{Key: LabelPhase, Str: "cra_check"}, {Key: LabelJob, Num: 3}},
	})
	table := e.table

	var (
		v     int64
		phase string
		err   error
	)
	allocs := testing.AllocsPerRun(200, func() {
		v, phase, err = readSample(buf, table, 2)
	})
	if err != nil || v != 50 || phase != "cra_check" {
		t.Fatalf("readSample = %d, %q, %v", v, phase, err)
	}
	if allocs != 0 {
		t.Fatalf("readSample allocates %v/op, want 0", allocs)
	}
}
