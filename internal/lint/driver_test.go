package lint_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"safesense/internal/lint"
)

// writeModule lays out a throwaway module for driver tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestRunReportsTypeErrors(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":  "module example.com/broken\n\ngo 1.22\n",
		"main.go": "package main\n\nfunc main() { undefinedIdent() }\n",
	})
	_, err := lint.RunOpts(root, nil, lint.All(), lint.Options{IncludeTests: true})
	if err == nil {
		t.Fatal("expected a type-check error, got nil")
	}
	if !strings.Contains(err.Error(), "undefinedIdent") {
		t.Errorf("error does not name the undefined identifier: %v", err)
	}
}

func TestRunRejectsMissingGoMod(t *testing.T) {
	if _, err := lint.RunOpts(t.TempDir(), nil, lint.All(), lint.Options{IncludeTests: true}); err == nil {
		t.Fatal("expected an error for a directory without go.mod")
	}
}

func TestRunRejectsUnmatchedPattern(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":  "module example.com/tiny\n\ngo 1.22\n",
		"main.go": "package main\n\nfunc main() {}\n",
	})
	_, err := lint.RunOpts(root, []string{"internal/nope/..."}, lint.All(), lint.Options{IncludeTests: true})
	if err == nil || !strings.Contains(err.Error(), "matched no packages") {
		t.Fatalf("expected a matched-no-packages error, got %v", err)
	}
}

func TestRunCleanModule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":  "module example.com/tiny\n\ngo 1.22\n",
		"main.go": "package main\n\nfunc main() {}\n",
	})
	report, err := lint.RunOpts(root, nil, lint.All(), lint.Options{IncludeTests: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("expected a clean report, got %v", report.Diagnostics)
	}
	if report.Packages != 1 {
		t.Fatalf("Packages = %d, want 1", report.Packages)
	}
}

// TestJSONShape pins the machine interface: a top-level object with
// "packages" and a "diagnostics" array that is [] (never null) when
// clean, and carries the documented fields when not.
func TestJSONShape(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module example.com/shape\n\ngo 1.22\n",
		// The determinism analyzer only covers internal/sim and friends.
		"internal/sim/clock.go": `package sim

import "time"

func Stamp() time.Time { return time.Now() }
`,
		"main.go": `package main

import "example.com/shape/internal/sim"

func main() { _ = sim.Stamp() }
`,
	})

	report, err := lint.RunOpts(root, nil, lint.All(), lint.Options{IncludeTests: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	var decoded struct {
		Packages    int `json:"packages"`
		Diagnostics []struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Message  string `json:"message"`
			Hint     string `json:"hint"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report JSON does not parse: %v\n%s", err, buf.String())
	}
	if len(decoded.Diagnostics) != 1 {
		t.Fatalf("diagnostics = %d, want 1\n%s", len(decoded.Diagnostics), buf.String())
	}
	d := decoded.Diagnostics[0]
	if d.Analyzer != "determinism" || d.Line == 0 || d.Col == 0 ||
		!strings.HasSuffix(d.File, filepath.Join("internal", "sim", "clock.go")) ||
		!strings.Contains(d.Message, "time.Now") || d.Hint == "" {
		t.Errorf("unexpected diagnostic fields: %+v", d)
	}

	// A clean report must encode diagnostics as [], not null.
	clean := &lint.Report{Packages: 3, Diagnostics: []lint.Diagnostic{}}
	buf.Reset()
	if err := clean.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"diagnostics": []`) {
		t.Errorf("clean report should encode diagnostics as []:\n%s", buf.String())
	}
}

// TestPatternFiltering checks that package patterns restrict analysis:
// the violation in internal/sim is invisible when only cmd/... is
// linted.
func TestPatternFiltering(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module example.com/filter\n\ngo 1.22\n",
		"internal/sim/clock.go": `package sim

import "time"

func Stamp() time.Time { return time.Now() }
`,
		"cmd/app/main.go": `package main

import "example.com/filter/internal/sim"

func main() { _ = sim.Stamp() }
`,
	})

	report, err := lint.RunOpts(root, []string{"cmd/..."}, lint.All(), lint.Options{IncludeTests: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("cmd/... should be clean, got %v", report.Diagnostics)
	}

	report, err = lint.RunOpts(root, []string{"internal/sim"}, lint.All(), lint.Options{IncludeTests: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Diagnostics) != 1 {
		t.Fatalf("internal/sim should have exactly one finding, got %v", report.Diagnostics)
	}
}

// TestIncludeTestsToggle checks that -tests=false really excludes
// _test.go files from analysis.
func TestIncludeTestsToggle(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module example.com/toggle\n\ngo 1.22\n",
		"internal/sim/sim.go": `package sim

func Step() int { return 1 }
`,
		"main.go": `package main

import "example.com/toggle/internal/sim"

func main() { _ = sim.Step() }
`,
		"internal/sim/sim_test.go": `package sim

import (
	"testing"
	"time"
)

func TestStep(t *testing.T) {
	_ = time.Now()
	if Step() != 1 {
		t.Fatal("step")
	}
}
`,
	})

	with, err := lint.RunOpts(root, nil, lint.All(), lint.Options{IncludeTests: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(with.Diagnostics) != 1 {
		t.Fatalf("with tests: diagnostics = %v, want the time.Now finding", with.Diagnostics)
	}
	without, err := lint.RunOpts(root, nil, lint.All(), lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !without.Clean() {
		t.Fatalf("without tests: expected clean, got %v", without.Diagnostics)
	}
}
