// Package trace records named time series from simulation runs and renders
// them as CSV (for external plotting) or as ASCII line charts (for the
// terminal experiment harness that regenerates the paper's figures).
package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Series is one named time series sampled at integer steps.
type Series struct {
	Name string
	T    []int
	Y    []float64
}

// Append adds a sample. Appending to a nil series records nothing, so a
// caller that records only sometimes needs no branch at its call sites.
func (s *Series) Append(t int, y float64) {
	if s == nil {
		return
	}
	s.T = append(s.T, t)
	s.Y = append(s.Y, y)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.T) }

// At returns the value recorded at step t, or (0, false).
func (s *Series) At(t int) (float64, bool) {
	i := sort.SearchInts(s.T, t)
	if i < len(s.T) && s.T[i] == t {
		return s.Y[i], true
	}
	return 0, false
}

// Set is an ordered collection of series sharing a time axis.
type Set struct {
	Title  string
	XLabel string
	YLabel string
	series []*Series
	index  map[string]*Series
}

// NewSet creates an empty set.
func NewSet(title, xlabel, ylabel string) *Set {
	return &Set{Title: title, XLabel: xlabel, YLabel: ylabel, index: make(map[string]*Series)}
}

// Add creates (or returns the existing) series with the given name.
func (st *Set) Add(name string) *Series {
	if s, ok := st.index[name]; ok {
		return s
	}
	s := &Series{Name: name}
	st.series = append(st.series, s)
	st.index[name] = s
	return s
}

// Series returns the named series, or nil.
func (st *Set) Series(name string) *Series { return st.index[name] }

// Names returns the series names in insertion order.
func (st *Set) Names() []string {
	out := make([]string, len(st.series))
	for i, s := range st.series {
		out[i] = s.Name
	}
	return out
}

// WriteCSV emits "t,series1,series2,..." rows over the union of all time
// stamps; missing samples are empty cells.
func (st *Set) WriteCSV(w io.Writer) error {
	if len(st.series) == 0 {
		return errors.New("trace: empty set")
	}
	// Union of time stamps.
	tset := map[int]bool{}
	for _, s := range st.series {
		for _, t := range s.T {
			tset[t] = true
		}
	}
	ts := make([]int, 0, len(tset))
	for t := range tset {
		ts = append(ts, t)
	}
	sort.Ints(ts)
	// Header.
	cols := make([]string, 0, len(st.series)+1)
	cols = append(cols, "t")
	for _, s := range st.series {
		cols = append(cols, csvEscape(s.Name))
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, t := range ts {
		row := make([]string, 0, len(st.series)+1)
		row = append(row, fmt.Sprintf("%d", t))
		for _, s := range st.series {
			if v, ok := s.At(t); ok && !math.IsNaN(v) {
				row = append(row, fmt.Sprintf("%g", v))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func csvEscape(s string) string {
	// A bare \r must be quoted too: unquoted it merges with the line
	// terminator and a CSV reader gets a different name back.
	if strings.ContainsAny(s, ",\"\n\r") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// SeriesDump is the JSON-serializable form of one series.
type SeriesDump struct {
	Name string    `json:"name"`
	T    []int     `json:"t"`
	Y    []float64 `json:"y"`
}

// SetDump is the JSON-serializable form of a Set, used by the safesensed
// HTTP service to ship traces to clients.
type SetDump struct {
	Title  string       `json:"title,omitempty"`
	XLabel string       `json:"x_label,omitempty"`
	YLabel string       `json:"y_label,omitempty"`
	Series []SeriesDump `json:"series"`
}

// Dump converts the set for JSON encoding. NaN samples are skipped — like
// WriteCSV's empty cells — because JSON has no NaN literal.
func (st *Set) Dump() SetDump {
	d := SetDump{Title: st.Title, XLabel: st.XLabel, YLabel: st.YLabel,
		Series: make([]SeriesDump, 0, len(st.series))}
	for _, s := range st.series {
		sd := SeriesDump{Name: s.Name, T: make([]int, 0, len(s.T)), Y: make([]float64, 0, len(s.Y))}
		for i, v := range s.Y {
			if math.IsNaN(v) {
				continue
			}
			sd.T = append(sd.T, s.T[i])
			sd.Y = append(sd.Y, v)
		}
		d.Series = append(d.Series, sd)
	}
	return d
}
