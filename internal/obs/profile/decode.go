package profile

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// MaxDecodedBytes bounds the decompressed size ReadShares will accept —
// a gzip-bomb guard for captures arriving over HTTP or from fuzzing.
// Continuous-profiler captures are a few hundred KiB.
const MaxDecodedBytes = 64 << 20

// Read errors. The wire primitives and the sample reader live on a hot
// path and therefore signal failure through these sentinels rather than
// formatted errors; ReadShares wraps them with positional context.
var (
	ErrTruncated     = errors.New("profile: truncated message")
	ErrWireType      = errors.New("profile: unexpected wire type")
	ErrStringIndex   = errors.New("profile: string table index out of range")
	ErrTooLarge      = errors.New("profile: decompressed profile exceeds MaxDecodedBytes")
	ErrValueCount    = errors.New("profile: sample value count does not match sample types")
	ErrNoSampleTypes = errors.New("profile: no sample types")
	ErrValueRange    = errors.New("profile: negative sample value or total overflows int64")
)

// Shares is what the package reads out of a CPU capture: its total and
// how that total splits across the "phase" pprof label. The Phases
// shares (including the Unlabeled bucket) sum to 1 whenever Total > 0.
type Shares struct {
	TotalSamples int   `json:"total_samples"`
	Total        int64 `json:"total"`
	// Phases splits Total across the "phase" label, descending, with the
	// Unlabeled bucket covering runtime/GC/untagged code.
	Phases []LabelShare `json:"phases,omitempty"`
}

// LabelShare is one phase label value's part of the capture total.
type LabelShare struct {
	Value string  `json:"value"`
	Total int64   `json:"total"`
	Share float64 `json:"share"`
}

// PhaseShare returns one phase's share of the total (zero when the
// phase took no samples).
func (s *Shares) PhaseShare(phase string) float64 {
	for _, p := range s.Phases {
		if p.Value == phase {
			return p.Share
		}
	}
	return 0
}

// Protobuf wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// wire is a cursor over one protobuf message. Its primitives are the
// innermost decode loop — every varint of every sample goes through
// them — so they avoid fmt and report failure through booleans.
type wire struct {
	buf []byte
	pos int
}

//safesense:hotpath
func (r *wire) more() bool { return r.pos < len(r.buf) }

// varint reads one base-128 varint (at most 10 bytes).
//
//safesense:hotpath
func (r *wire) varint() (uint64, bool) {
	var v uint64
	var shift uint
	for r.pos < len(r.buf) {
		b := r.buf[r.pos]
		r.pos++
		if shift == 63 && b > 1 {
			return 0, false
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, true
		}
		shift += 7
		if shift > 63 {
			return 0, false
		}
	}
	return 0, false
}

// field reads one field tag, returning the field number and wire type.
//
//safesense:hotpath
func (r *wire) field() (int, int, bool) {
	tag, ok := r.varint()
	if !ok || tag>>3 > 1<<28 {
		return 0, 0, false
	}
	return int(tag >> 3), int(tag & 7), true
}

// bytes reads one length-delimited payload as a subslice (no copy).
//
//safesense:hotpath
func (r *wire) bytes() ([]byte, bool) {
	n, ok := r.varint()
	if !ok || n > uint64(len(r.buf)-r.pos) {
		return nil, false
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, true
}

// skip advances past one field of the given wire type.
//
//safesense:hotpath
func (r *wire) skip(wt int) bool {
	switch wt {
	case wireVarint:
		_, ok := r.varint()
		return ok
	case wireFixed64:
		if len(r.buf)-r.pos < 8 {
			return false
		}
		r.pos += 8
		return true
	case wireBytes:
		_, ok := r.bytes()
		return ok
	case wireFixed32:
		if len(r.buf)-r.pos < 4 {
			return false
		}
		r.pos += 4
		return true
	}
	return false
}

// maybeGunzip transparently decompresses gzip'd input (runtime/pprof
// always gzips), bounding the output at MaxDecodedBytes.
func maybeGunzip(data []byte) ([]byte, error) {
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		return data, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: gzip header: %w", err)
	}
	defer zr.Close()
	out, err := io.ReadAll(io.LimitReader(zr, MaxDecodedBytes+1))
	if err != nil {
		return nil, fmt.Errorf("profile: gunzip: %w", err)
	}
	if len(out) > MaxDecodedBytes {
		return nil, ErrTooLarge
	}
	return out, nil
}

// ReadShares reads a pprof capture (gzip'd or raw protobuf) for its
// per-phase split. It reads the sample-type count, each sample's last
// value — "cpu"/nanoseconds for runtime CPU captures, the dimension
// `go tool pprof` shows by default — and each sample's "phase" label;
// the mapping, location and function tables and the top-level scalars
// are skipped unread. What it reads it reads strictly: truncation, a
// wrong wire type, a string index out of range, a value count that
// differs from the sample-type count, a negative value and an
// overflowing total are all errors, so an accepted capture always
// yields finite shares in [0, 1]. A capture with no samples yields a
// zero Total rather than an error.
func ReadShares(data []byte) (*Shares, error) {
	raw, err := maybeGunzip(data)
	if err != nil {
		return nil, err
	}

	// The string table (field 6) may follow the samples that index it,
	// so the samples are collected first and read once it is complete.
	var (
		table   []string
		samples [][]byte
		types   int
	)
	r := wire{buf: raw}
	for r.more() {
		num, wt, ok := r.field()
		if !ok {
			return nil, fmt.Errorf("%w: top-level tag at offset %d", ErrTruncated, r.pos)
		}
		switch num {
		case 1, 2, 6: // sample_type, sample, string_table
			if wt != wireBytes {
				return nil, fmt.Errorf("%w: field %d", ErrWireType, num)
			}
			b, ok := r.bytes()
			if !ok {
				return nil, fmt.Errorf("%w: field %d payload", ErrTruncated, num)
			}
			switch num {
			case 1:
				types++
			case 2:
				samples = append(samples, b)
			case 6:
				table = append(table, string(b))
			}
		default:
			if !r.skip(wt) {
				return nil, fmt.Errorf("%w: skipping field %d", ErrTruncated, num)
			}
		}
	}
	if types == 0 {
		return nil, ErrNoSampleTypes
	}

	sh := &Shares{TotalSamples: len(samples)}
	phases := map[string]int64{}
	for i, b := range samples {
		v, phase, err := readSample(b, table, types)
		if err != nil {
			return nil, fmt.Errorf("%w: sample %d", err, i)
		}
		if v > math.MaxInt64-sh.Total {
			return nil, fmt.Errorf("%w: sample %d", ErrValueRange, i)
		}
		sh.Total += v
		phases[phase] += v
	}
	var shares []LabelShare
	for value, total := range phases {
		share := 0.0
		if sh.Total != 0 {
			share = float64(total) / float64(sh.Total)
		}
		shares = append(shares, LabelShare{Value: value, Total: total, Share: share})
	}
	sort.Slice(shares, func(i, j int) bool {
		a, b := shares[i], shares[j]
		if a.Total != b.Total {
			return a.Total > b.Total
		}
		return a.Value < b.Value
	})
	sh.Phases = shares
	return sh, nil
}

// readSample reads one Sample message for its last value and its phase
// label (Unlabeled when absent or empty; the last phase label wins).
// Both packed and one-per-field value encodings are accepted, since
// runtime/pprof switches on element count; location IDs are skipped.
//
//safesense:hotpath
func readSample(buf []byte, table []string, types int) (int64, string, error) {
	var last int64
	values := 0
	phase := Unlabeled
	r := wire{buf: buf}
	for r.more() {
		num, wt, ok := r.field()
		if !ok {
			return 0, "", ErrTruncated
		}
		switch {
		case num == 2 && wt == wireVarint:
			v, ok := r.varint()
			if !ok {
				return 0, "", ErrTruncated
			}
			last, values = int64(v), values+1
		case num == 2 && wt == wireBytes:
			b, ok := r.bytes()
			if !ok {
				return 0, "", ErrTruncated
			}
			pr := wire{buf: b}
			for pr.more() {
				v, ok := pr.varint()
				if !ok {
					return 0, "", ErrTruncated
				}
				last, values = int64(v), values+1
			}
		case num == 2:
			return 0, "", ErrWireType
		case num == 3:
			if wt != wireBytes {
				return 0, "", ErrWireType
			}
			b, ok := r.bytes()
			if !ok {
				return 0, "", ErrTruncated
			}
			key, str, err := readLabel(b, table)
			if err != nil {
				return 0, "", err
			}
			if key == LabelPhase && str != "" {
				phase = str
			}
		default:
			if !r.skip(wt) {
				return 0, "", ErrTruncated
			}
		}
	}
	if values != types {
		return 0, "", ErrValueCount
	}
	if last < 0 {
		return 0, "", ErrValueRange
	}
	return last, phase, nil
}

// readLabel reads one Label message's key and string value. Every
// string index it carries (key, str, num_unit) is range-checked.
//
//safesense:hotpath
func readLabel(buf []byte, table []string) (key, str string, err error) {
	r := wire{buf: buf}
	for r.more() {
		num, wt, ok := r.field()
		if !ok {
			return "", "", ErrTruncated
		}
		if wt != wireVarint {
			if !r.skip(wt) {
				return "", "", ErrTruncated
			}
			continue
		}
		v, ok := r.varint()
		if !ok {
			return "", "", ErrTruncated
		}
		if num != 1 && num != 2 && num != 4 {
			continue
		}
		if v >= uint64(len(table)) && v != 0 {
			return "", "", ErrStringIndex
		}
		s := ""
		if v != 0 {
			s = table[v]
		}
		switch num {
		case 1:
			key = s
		case 2:
			str = s
		}
	}
	return key, str, nil
}
