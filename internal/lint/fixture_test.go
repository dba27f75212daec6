package lint_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"safesense/internal/lint"
	"safesense/internal/lint/callgraph"
)

// fixtureCases pairs each analyzer with its golden package under
// testdata/src. The rel path is what the loader reports as the unit's
// module-relative path; it is chosen to satisfy the analyzer's Paths
// filter so the fixture is analyzed exactly like an in-scope package.
var fixtureCases = []struct {
	name     string
	analyzer *lint.Analyzer
	rel      string
}{
	{"determinism", lint.Determinism, "internal/sim"},
	{"floatcmp", lint.FloatCmp, "internal/stats"},
	{"hotpathalloc", lint.HotPathAlloc, "internal/obs"},
	{"metriclabels", lint.MetricLabels, "internal/obs"},
	{"ctxflow", lint.CtxFlow, "internal/campaign"},
	{"goroleak", lint.GoroLeak, "internal/dist"},
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// wantRe matches `// want "substr"` markers; several quoted strings on
// one line declare several expected diagnostics.
var wantRe = regexp.MustCompile(`// want ((?:"[^"]*"\s*)+)`)

type want struct {
	file    string
	line    int
	substr  string
	matched bool
}

// parseWants extracts the expected-diagnostic markers from every Go
// file in dir.
func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, q := range regexp.MustCompile(`"[^"]*"`).FindAllString(m[1], -1) {
				wants = append(wants, &want{file: path, line: i + 1, substr: q[1 : len(q)-1]})
			}
		}
	}
	return wants
}

// TestGoldenFixtures checks, per analyzer, that every marked line in
// the positive fixture is flagged with the expected message and that
// the negative fixture (and every unmarked line) stays silent.
func TestGoldenFixtures(t *testing.T) {
	root := moduleRoot(t)
	for _, fc := range fixtureCases {
		t.Run(fc.name, func(t *testing.T) {
			loader, err := lint.NewLoader(root)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(root, "internal", "lint", "testdata", "src", fc.name)
			units, err := loader.LoadDir(dir, "fixture/"+fc.name, fc.rel)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			graph := callgraph.Build(loader.Fset(), lint.GraphUnits(units))
			diags := lint.RunAnalyzersGraph(units, graph, []*lint.Analyzer{fc.analyzer}, nil)
			wants := parseWants(t, dir)
			if len(wants) == 0 {
				t.Fatal("fixture declares no want markers")
			}

			for _, d := range diags {
				if w := matchWant(wants, d); w == nil {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: expected diagnostic containing %q, got none",
						w.file, w.line, w.substr)
				}
			}
		})
	}
}

// matchWant consumes the first unmatched marker covering the
// diagnostic's position and message.
func matchWant(wants []*want, d lint.Diagnostic) *want {
	for _, w := range wants {
		if !w.matched && w.file == d.File && w.line == d.Line && strings.Contains(d.Message, w.substr) {
			w.matched = true
			return w
		}
	}
	return nil
}

// TestFixturesAreOutOfScope guards the loader contract that testdata
// trees never leak into a normal module walk: the fixtures deliberately
// contain violations and must stay invisible to `safesense-lint ./...`.
func TestFixturesAreOutOfScope(t *testing.T) {
	loader, err := lint.NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Packages("internal/lint/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if strings.Contains(p.Dir, "testdata") {
			t.Errorf("module walk leaked a testdata package: %s", p.Dir)
		}
	}
}
