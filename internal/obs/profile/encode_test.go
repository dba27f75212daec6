package profile

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
)

// fabricated is the part of profile.proto the reader's tests encode:
// sample types, samples with values and labels, and (implicitly) the
// string table. Locations, functions and mappings are left out because
// ReadShares skips them unread; the golden fixture and live runtime
// captures carry them.
type fabricated struct {
	SampleType []valueType
	Sample     []sample
}

type valueType struct{ Type, Unit string }

type sample struct {
	Value []int64
	Label []label
}

// label is one pprof label: string-valued (Str) or numeric (Num).
type label struct {
	Key, Str string
	Num      int64
}

// Marshal encodes p as uncompressed profile.proto: sample types, then
// samples (values packed), then the string table in first-use order
// with "" at index 0 — the table after the samples that index it, as
// runtime/pprof writes it.
func (p *fabricated) Marshal() []byte {
	e := &encoder{index: map[string]uint64{"": 0}, table: []string{""}}
	var out []byte
	for _, vt := range p.SampleType {
		var b []byte
		b = appendVarintField(b, 1, e.str(vt.Type))
		b = appendVarintField(b, 2, e.str(vt.Unit))
		out = appendBytesField(out, 1, b)
	}
	for i := range p.Sample {
		out = appendBytesField(out, 2, e.sample(&p.Sample[i]))
	}
	for _, s := range e.table {
		out = appendBytesField(out, 6, []byte(s))
	}
	return out
}

// MarshalGzip is Marshal wrapped in the gzip framing runtime/pprof
// uses, so fabricated captures exercise the same ingest path as real
// ones. The output is deterministic (no mod-time in the header).
func (p *fabricated) MarshalGzip() []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p.Marshal())
	zw.Close()
	return buf.Bytes()
}

// encoder interns strings into the output string table.
type encoder struct {
	index map[string]uint64
	table []string
}

// str returns the table index for s, interning it on first use.
func (e *encoder) str(s string) uint64 {
	if idx, ok := e.index[s]; ok {
		return idx
	}
	idx := uint64(len(e.table))
	e.index[s] = idx
	e.table = append(e.table, s)
	return idx
}

func (e *encoder) sample(s *sample) []byte {
	var b []byte
	if len(s.Value) > 0 {
		var packed []byte
		for _, v := range s.Value {
			packed = binary.AppendUvarint(packed, uint64(v))
		}
		b = appendBytesField(b, 2, packed)
	}
	for _, l := range s.Label {
		var lb []byte
		lb = appendVarintField(lb, 1, e.str(l.Key))
		lb = appendVarintField(lb, 2, e.str(l.Str))
		lb = appendVarintField(lb, 3, uint64(l.Num))
		b = appendBytesField(b, 3, lb)
	}
	return b
}

func appendTag(b []byte, num, wt int) []byte {
	return binary.AppendUvarint(b, uint64(num)<<3|uint64(wt))
}

// appendVarintField emits a singular varint field, omitting proto3
// zero values.
func appendVarintField(b []byte, num int, v uint64) []byte {
	if v == 0 {
		return b
	}
	b = appendTag(b, num, wireVarint)
	return binary.AppendUvarint(b, v)
}

func appendBytesField(b []byte, num int, payload []byte) []byte {
	b = appendTag(b, num, wireBytes)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}
