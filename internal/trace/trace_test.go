package trace

import (
	"math"
	"strings"
	"testing"
)

func TestSeriesAppendAt(t *testing.T) {
	var s Series
	s.Append(0, 1.5)
	s.Append(5, -2)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if v, ok := s.At(5); !ok || v != -2 {
		t.Fatalf("At(5) = %v, %v", v, ok)
	}
	if _, ok := s.At(3); ok {
		t.Fatal("At(3) should miss")
	}
}

// TestNilSeriesAppendRecordsNothing: a run below sim.Traced keeps its
// series nil and appends to them unconditionally, so the append must
// not panic.
func TestNilSeriesAppendRecordsNothing(t *testing.T) {
	var s *Series
	s.Append(3, 1.5)
}

func TestSetAddIdempotent(t *testing.T) {
	st := NewSet("t", "x", "y")
	a := st.Add("a")
	b := st.Add("a")
	if a != b {
		t.Fatal("Add must return the existing series")
	}
	if st.Series("a") != a {
		t.Fatal("Series lookup failed")
	}
	if st.Series("missing") != nil {
		t.Fatal("missing series should be nil")
	}
	names := st.Names()
	if len(names) != 1 || names[0] != "a" {
		t.Fatalf("Names = %v", names)
	}
}

func TestWriteCSV(t *testing.T) {
	st := NewSet("demo", "t", "v")
	a := st.Add("alpha")
	b := st.Add("beta,quoted")
	a.Append(0, 1)
	a.Append(1, 2)
	b.Append(1, 5)
	var sb strings.Builder
	if err := st.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), got)
	}
	if lines[0] != `t,alpha,"beta,quoted"` {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "0,1," {
		t.Fatalf("row 0 = %q", lines[1])
	}
	if lines[2] != "1,2,5" {
		t.Fatalf("row 1 = %q", lines[2])
	}
}

func TestWriteCSVEmpty(t *testing.T) {
	st := NewSet("demo", "t", "v")
	var sb strings.Builder
	if err := st.WriteCSV(&sb); err == nil {
		t.Fatal("empty set should fail")
	}
}

func TestRenderASCII(t *testing.T) {
	st := NewSet("ramp", "time (s)", "value")
	s := st.Add("line")
	for k := 0; k <= 50; k++ {
		s.Append(k, float64(k))
	}
	var sb strings.Builder
	if err := st.RenderASCII(&sb, PlotOptions{Width: 40, Height: 10}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "ramp") || !strings.Contains(out, "legend: * line") {
		t.Fatalf("missing header/legend:\n%s", out)
	}
	// The max label and min label must appear.
	if !strings.Contains(out, "50") || !strings.Contains(out, "0") {
		t.Fatalf("missing axis labels:\n%s", out)
	}
	// Rendering must contain the glyph.
	if !strings.Contains(out, "*") {
		t.Fatalf("no data glyphs:\n%s", out)
	}
}

func TestRenderASCIIMultiSeries(t *testing.T) {
	st := NewSet("two", "t", "v")
	a := st.Add("up")
	b := st.Add("down")
	for k := 0; k <= 20; k++ {
		a.Append(k, float64(k))
		b.Append(k, float64(20-k))
	}
	var sb strings.Builder
	if err := st.RenderASCII(&sb, PlotOptions{Width: 30, Height: 8}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatalf("expected two glyph kinds:\n%s", out)
	}
}

func TestRenderASCIIErrors(t *testing.T) {
	st := NewSet("x", "t", "v")
	var sb strings.Builder
	if err := st.RenderASCII(&sb, PlotOptions{}); err == nil {
		t.Fatal("empty set should fail")
	}
	s := st.Add("nan-only")
	s.Append(0, math.NaN())
	if err := st.RenderASCII(&sb, PlotOptions{}); err == nil {
		t.Fatal("NaN-only series should fail")
	}
}

func TestRenderASCIIConstantSeries(t *testing.T) {
	// A flat series must not divide by zero.
	st := NewSet("flat", "t", "v")
	s := st.Add("c")
	for k := 0; k < 10; k++ {
		s.Append(k, 5)
	}
	var sb strings.Builder
	if err := st.RenderASCII(&sb, PlotOptions{Width: 20, Height: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCSVQuotingAndOrder(t *testing.T) {
	// Columns follow series insertion order, not name order; names with
	// a comma, quote, CR or LF are quoted with doubled inner quotes;
	// sparse series leave empty cells; values print in shortest %g form.
	st := NewSet("csv", "t", "v")
	z := st.Add("zeta")
	q := st.Add(`say "hi", twice`)
	cr := st.Add("cr\rname")
	lf := st.Add("lf\nname")
	a := st.Add("alpha")
	for k := 0; k < 4; k++ {
		z.Append(k, float64(k)*0.25)
	}
	q.Append(0, -3)
	q.Append(3, 1e-7)
	cr.Append(2, 123456.789)
	lf.Append(1, 1)
	a.Append(3, 2)

	var sb strings.Builder
	if err := st.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "t,zeta,\"say \"\"hi\"\", twice\",\"cr\rname\",\"lf\nname\",alpha\n" +
		"0,0,-3,,,\n" +
		"1,0.25,,,1,\n" +
		"2,0.5,,123456.789,,\n" +
		"3,0.75,1e-07,,,2\n"
	if got := sb.String(); got != want {
		t.Fatalf("WriteCSV =\n%q\nwant\n%q", got, want)
	}
}

func TestWriteCSVNaNGaps(t *testing.T) {
	// NaN renders as an empty cell, like a missing sample; a time stamp
	// that carries only NaN still gets its row.
	st := NewSet("nan", "t", "v")
	x := st.Add("x")
	y := st.Add("y")
	x.Append(0, 1)
	x.Append(1, math.NaN())
	x.Append(2, 3)
	y.Append(0, math.NaN())
	y.Append(2, math.Inf(1))
	var sb strings.Builder
	if err := st.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if got, want := sb.String(), "t,x,y\n0,1,\n1,,\n2,3,+Inf\n"; got != want {
		t.Fatalf("WriteCSV = %q, want %q", got, want)
	}
}

func TestSetDump(t *testing.T) {
	st := NewSet("d", "t", "v")
	a := st.Add("a")
	a.Append(0, 1)
	a.Append(1, math.NaN())
	a.Append(2, 2)
	st.Add("empty")
	d := st.Dump()
	if d.Title != "d" || len(d.Series) != 2 {
		t.Fatalf("Dump = %+v", d)
	}
	if len(d.Series[0].T) != 2 || d.Series[0].Y[1] != 2 {
		t.Fatalf("NaN not skipped: %+v", d.Series[0])
	}
	if d.Series[1].Name != "empty" || len(d.Series[1].T) != 0 {
		t.Fatalf("empty series dump = %+v", d.Series[1])
	}
}
