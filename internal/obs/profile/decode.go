package profile

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// MaxDecodedBytes bounds the decompressed size Decode will accept — a
// gzip-bomb guard for captures arriving over HTTP or from fuzzing.
// Continuous-profiler captures are a few hundred KiB.
const MaxDecodedBytes = 64 << 20

// Decode errors. The wire primitives live on a hot path and therefore
// signal failure through these sentinels rather than formatted errors;
// Decode wraps them with positional context.
var (
	ErrTruncated   = errors.New("profile: truncated message")
	ErrWireType    = errors.New("profile: unexpected wire type")
	ErrStringIndex = errors.New("profile: string table index out of range")
	ErrTooLarge    = errors.New("profile: decompressed profile exceeds MaxDecodedBytes")
	ErrValueCount  = errors.New("profile: sample value count does not match sample types")
)

// Profile is the decoded subset of pprof's profile.proto that summaries
// and diffs need: sample types, samples with location stacks and
// labels, the location/function tables, and the top-level scalars.
// String-table indices are resolved at decode time; the mapping table
// (build-id/address-range metadata) is skipped.
type Profile struct {
	SampleType        []ValueType `json:"sample_type"`
	Sample            []Sample    `json:"sample"`
	Location          []Location  `json:"location"`
	Function          []Function  `json:"function"`
	DropFrames        string      `json:"drop_frames,omitempty"`
	KeepFrames        string      `json:"keep_frames,omitempty"`
	TimeNanos         int64       `json:"time_nanos,omitempty"`
	DurationNanos     int64       `json:"duration_nanos,omitempty"`
	PeriodType        ValueType   `json:"period_type"`
	Period            int64       `json:"period,omitempty"`
	Comment           []string    `json:"comment,omitempty"`
	DefaultSampleType string      `json:"default_sample_type,omitempty"`
}

// ValueType names one sample dimension, e.g. {cpu, nanoseconds}.
type ValueType struct {
	Type string `json:"type"`
	Unit string `json:"unit"`
}

// Sample is one stack observation: the location IDs leaf-first, one
// value per sample type, and the pprof labels active when it was taken.
type Sample struct {
	LocationID []uint64 `json:"location_id"`
	Value      []int64  `json:"value"`
	Label      []Label  `json:"label,omitempty"`
}

// Label is one pprof label on a sample (string- or number-valued).
type Label struct {
	Key     string `json:"key"`
	Str     string `json:"str,omitempty"`
	Num     int64  `json:"num,omitempty"`
	NumUnit string `json:"num_unit,omitempty"`
}

// Location is one address with its line table (Line[0] is the innermost
// inlined frame).
type Location struct {
	ID        uint64 `json:"id"`
	MappingID uint64 `json:"mapping_id,omitempty"`
	Address   uint64 `json:"address,omitempty"`
	Line      []Line `json:"line,omitempty"`
	IsFolded  bool   `json:"is_folded,omitempty"`
}

// Line resolves one frame of a location to a function.
type Line struct {
	FunctionID uint64 `json:"function_id"`
	Line       int64  `json:"line,omitempty"`
	Column     int64  `json:"column,omitempty"`
}

// Function is one entry of the function table.
type Function struct {
	ID         uint64 `json:"id"`
	Name       string `json:"name"`
	SystemName string `json:"system_name,omitempty"`
	Filename   string `json:"filename,omitempty"`
	StartLine  int64  `json:"start_line,omitempty"`
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

// Decode parses a pprof capture (gzip'd or raw protobuf) into a
// Profile with string indices resolved. The decode is strict about
// structure — truncated varints, bad wire types, out-of-range string
// indices, and sample/sample-type arity mismatches are errors — so
// everything downstream (Summarize, Diff, the HTTP endpoints) can trust
// the shape.
func Decode(data []byte) (*Profile, error) {
	raw, err := maybeGunzip(data)
	if err != nil {
		return nil, err
	}

	// Pass 1: split the top-level message into raw sub-message payloads
	// and scalars, and materialize the string table (field 6), which
	// later fields reference by index.
	var (
		table                              []string
		sampleTypeRaw, sampleRaw           [][]byte
		locRaw, fnRaw                      [][]byte
		periodTypeRaw                      []byte
		dropIdx, keepIdx, defIdx           uint64
		commentIdx                         []uint64
		timeNanos, durationNanos, periodNs int64
	)
	r := wire{buf: raw}
	for r.more() {
		num, wt, ok := r.field()
		if !ok {
			return nil, fmt.Errorf("%w: top-level tag at offset %d", ErrTruncated, r.pos)
		}
		switch num {
		case 1, 2, 3, 4, 5, 11: // sub-messages
			if wt != wireBytes {
				return nil, fmt.Errorf("%w: field %d", ErrWireType, num)
			}
			b, ok := r.bytes()
			if !ok {
				return nil, fmt.Errorf("%w: field %d payload", ErrTruncated, num)
			}
			switch num {
			case 1:
				sampleTypeRaw = append(sampleTypeRaw, b)
			case 2:
				sampleRaw = append(sampleRaw, b)
			case 3:
				// Mapping: build-id metadata the summaries never use.
			case 4:
				locRaw = append(locRaw, b)
			case 5:
				fnRaw = append(fnRaw, b)
			case 11:
				periodTypeRaw = b
			}
		case 6:
			if wt != wireBytes {
				return nil, fmt.Errorf("%w: string table", ErrWireType)
			}
			b, ok := r.bytes()
			if !ok {
				return nil, fmt.Errorf("%w: string table entry", ErrTruncated)
			}
			table = append(table, string(b))
		case 7, 8, 9, 10, 12, 14:
			if wt != wireVarint {
				return nil, fmt.Errorf("%w: field %d", ErrWireType, num)
			}
			v, ok := r.varint()
			if !ok {
				return nil, fmt.Errorf("%w: field %d", ErrTruncated, num)
			}
			switch num {
			case 7:
				dropIdx = v
			case 8:
				keepIdx = v
			case 9:
				timeNanos = int64(v)
			case 10:
				durationNanos = int64(v)
			case 12:
				periodNs = int64(v)
			case 14:
				defIdx = v
			}
		case 13: // repeated int64 comment: packed or one-per-field
			switch wt {
			case wireVarint:
				v, ok := r.varint()
				if !ok {
					return nil, fmt.Errorf("%w: comment", ErrTruncated)
				}
				commentIdx = append(commentIdx, v)
			case wireBytes:
				b, ok := r.bytes()
				if !ok {
					return nil, fmt.Errorf("%w: comment", ErrTruncated)
				}
				pr := wire{buf: b}
				for pr.more() {
					v, ok := pr.varint()
					if !ok {
						return nil, fmt.Errorf("%w: packed comment", ErrTruncated)
					}
					commentIdx = append(commentIdx, v)
				}
			default:
				return nil, fmt.Errorf("%w: comment", ErrWireType)
			}
		default:
			if !r.skip(wt) {
				return nil, fmt.Errorf("%w: skipping field %d", ErrTruncated, num)
			}
		}
	}

	str := func(idx uint64) (string, error) {
		if idx == 0 {
			return "", nil
		}
		if idx >= uint64(len(table)) {
			return "", ErrStringIndex
		}
		return table[idx], nil
	}

	// Pass 2: decode the collected sub-messages against the table.
	p := &Profile{
		TimeNanos:     timeNanos,
		DurationNanos: durationNanos,
		Period:        periodNs,
	}
	if p.DropFrames, err = str(dropIdx); err != nil {
		return nil, fmt.Errorf("%w: drop_frames", err)
	}
	if p.KeepFrames, err = str(keepIdx); err != nil {
		return nil, fmt.Errorf("%w: keep_frames", err)
	}
	if p.DefaultSampleType, err = str(defIdx); err != nil {
		return nil, fmt.Errorf("%w: default_sample_type", err)
	}
	for _, idx := range commentIdx {
		s, err := str(idx)
		if err != nil {
			return nil, fmt.Errorf("%w: comment", err)
		}
		p.Comment = append(p.Comment, s)
	}
	if periodTypeRaw != nil {
		if p.PeriodType, err = decodeValueType(periodTypeRaw, table); err != nil {
			return nil, fmt.Errorf("period_type: %w", err)
		}
	}
	p.SampleType = make([]ValueType, 0, len(sampleTypeRaw))
	for _, b := range sampleTypeRaw {
		vt, err := decodeValueType(b, table)
		if err != nil {
			return nil, fmt.Errorf("sample_type: %w", err)
		}
		p.SampleType = append(p.SampleType, vt)
	}
	p.Location = make([]Location, 0, len(locRaw))
	for _, b := range locRaw {
		loc, err := decodeLocation(b)
		if err != nil {
			return nil, fmt.Errorf("location: %w", err)
		}
		p.Location = append(p.Location, loc)
	}
	p.Function = make([]Function, 0, len(fnRaw))
	for _, b := range fnRaw {
		fn, err := decodeFunction(b, table)
		if err != nil {
			return nil, fmt.Errorf("function: %w", err)
		}
		p.Function = append(p.Function, fn)
	}
	p.Sample = make([]Sample, 0, len(sampleRaw))
	for i, b := range sampleRaw {
		var s Sample
		if !decodeSample(b, table, &s) {
			return nil, fmt.Errorf("%w: sample %d", ErrTruncated, i)
		}
		if len(s.Value) != len(p.SampleType) {
			return nil, fmt.Errorf("%w: sample %d has %d values, %d types",
				ErrValueCount, i, len(s.Value), len(p.SampleType))
		}
		p.Sample = append(p.Sample, s)
	}
	return p, nil
}

// decodeValueType parses one ValueType message (string indices 1, 2).
func decodeValueType(buf []byte, table []string) (ValueType, error) {
	var vt ValueType
	r := wire{buf: buf}
	for r.more() {
		num, wt, ok := r.field()
		if !ok {
			return vt, ErrTruncated
		}
		switch num {
		case 1, 2:
			if wt != wireVarint {
				return vt, ErrWireType
			}
			idx, ok := r.varint()
			if !ok {
				return vt, ErrTruncated
			}
			if idx >= uint64(len(table)) && idx != 0 {
				return vt, ErrStringIndex
			}
			s := ""
			if idx != 0 {
				s = table[idx]
			}
			if num == 1 {
				vt.Type = s
			} else {
				vt.Unit = s
			}
		default:
			if !r.skip(wt) {
				return vt, ErrTruncated
			}
		}
	}
	return vt, nil
}

// decodeLocation parses one Location message with its line table.
func decodeLocation(buf []byte) (Location, error) {
	var loc Location
	r := wire{buf: buf}
	for r.more() {
		num, wt, ok := r.field()
		if !ok {
			return loc, ErrTruncated
		}
		switch num {
		case 1, 2, 3, 5:
			if wt != wireVarint {
				return loc, ErrWireType
			}
			v, ok := r.varint()
			if !ok {
				return loc, ErrTruncated
			}
			switch num {
			case 1:
				loc.ID = v
			case 2:
				loc.MappingID = v
			case 3:
				loc.Address = v
			case 5:
				loc.IsFolded = v != 0
			}
		case 4:
			if wt != wireBytes {
				return loc, ErrWireType
			}
			b, ok := r.bytes()
			if !ok {
				return loc, ErrTruncated
			}
			var ln Line
			lr := wire{buf: b}
			for lr.more() {
				lnum, lwt, ok := lr.field()
				if !ok {
					return loc, ErrTruncated
				}
				if lwt != wireVarint {
					if !lr.skip(lwt) {
						return loc, ErrTruncated
					}
					continue
				}
				v, ok := lr.varint()
				if !ok {
					return loc, ErrTruncated
				}
				switch lnum {
				case 1:
					ln.FunctionID = v
				case 2:
					ln.Line = int64(v)
				case 3:
					ln.Column = int64(v)
				}
			}
			loc.Line = append(loc.Line, ln)
		default:
			if !r.skip(wt) {
				return loc, ErrTruncated
			}
		}
	}
	return loc, nil
}

// decodeFunction parses one Function message (string indices 2-4).
func decodeFunction(buf []byte, table []string) (Function, error) {
	var fn Function
	r := wire{buf: buf}
	for r.more() {
		num, wt, ok := r.field()
		if !ok {
			return fn, ErrTruncated
		}
		if wt != wireVarint {
			if !r.skip(wt) {
				return fn, ErrTruncated
			}
			continue
		}
		v, ok := r.varint()
		if !ok {
			return fn, ErrTruncated
		}
		switch num {
		case 1:
			fn.ID = v
		case 2, 3, 4:
			if v >= uint64(len(table)) && v != 0 {
				return fn, ErrStringIndex
			}
			s := ""
			if v != 0 {
				s = table[v]
			}
			switch num {
			case 2:
				fn.Name = s
			case 3:
				fn.SystemName = s
			case 4:
				fn.Filename = s
			}
		case 5:
			fn.StartLine = int64(v)
		}
	}
	return fn, nil
}

// decodeSample is the hot decode loop: a CPU capture holds thousands of
// samples and every location ID, value, and label of each goes through
// here. It reports failure (truncation, bad wire type, string index out
// of range) as false; the caller attaches sample context. Both packed
// and one-per-field encodings of the repeated numeric fields are
// accepted, since runtime/pprof switches on element count.
//
//safesense:hotpath
func decodeSample(buf []byte, table []string, s *Sample) bool {
	r := wire{buf: buf}
	for r.more() {
		num, wt, ok := r.field()
		if !ok {
			return false
		}
		switch num {
		case 1, 2: // location_id, value
			switch wt {
			case wireVarint:
				v, ok := r.varint()
				if !ok {
					return false
				}
				if num == 1 {
					s.LocationID = append(s.LocationID, v)
				} else {
					s.Value = append(s.Value, int64(v))
				}
			case wireBytes:
				b, ok := r.bytes()
				if !ok {
					return false
				}
				pr := wire{buf: b}
				for pr.more() {
					v, ok := pr.varint()
					if !ok {
						return false
					}
					if num == 1 {
						s.LocationID = append(s.LocationID, v)
					} else {
						s.Value = append(s.Value, int64(v))
					}
				}
			default:
				return false
			}
		case 3: // label sub-message
			if wt != wireBytes {
				return false
			}
			b, ok := r.bytes()
			if !ok {
				return false
			}
			var l Label
			lr := wire{buf: b}
			for lr.more() {
				lnum, lwt, ok := lr.field()
				if !ok {
					return false
				}
				if lwt != wireVarint {
					if !lr.skip(lwt) {
						return false
					}
					continue
				}
				v, ok := lr.varint()
				if !ok {
					return false
				}
				switch lnum {
				case 1, 2, 4:
					if v >= uint64(len(table)) && v != 0 {
						return false
					}
					str := ""
					if v != 0 {
						str = table[v]
					}
					switch lnum {
					case 1:
						l.Key = str
					case 2:
						l.Str = str
					case 4:
						l.NumUnit = str
					}
				case 3:
					l.Num = int64(v)
				}
			}
			s.Label = append(s.Label, l)
		default:
			if !r.skip(wt) {
				return false
			}
		}
	}
	return true
}
