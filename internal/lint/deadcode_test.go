package lint_test

import (
	"io/fs"
	"path/filepath"
	"testing"

	"safesense/internal/lint"
)

// TestDeadCodeFixture runs the deadcode analyzer over the fixture module
// under testdata/mod/deadcode. Its lib package holds one function per
// liveness root (main, init, var initializer, root-package export,
// another package's test, interface method name), each of which must
// stay silent, and the dead kinds — no caller, only dead callers, only
// its own package's test, a method matching no interface — each of
// which carries a want marker. Dropping any root rule turns a silent
// function into an unexpected diagnostic.
func TestDeadCodeFixture(t *testing.T) {
	root := filepath.Join(moduleRoot(t), "internal", "lint", "testdata", "mod", "deadcode")
	report, err := lint.RunOpts(root, nil, []*lint.Analyzer{lint.DeadCode}, lint.Options{IncludeTests: true})
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() {
			wants = append(wants, parseWants(t, path)...)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wants) == 0 {
		t.Fatal("fixture declares no want markers")
	}
	for _, d := range report.Diagnostics {
		if w := matchWant(wants, d); w == nil {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", w.file, w.line, w.substr)
		}
	}
}
