package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"safesense/internal/perf"
)

// fastArgs keeps measured captures to a handful of microseconds per
// scenario: the CLI tests exercise plumbing, not statistics.
var fastArgs = []string{
	"-scenarios", "^kernel_(fft_1024|cra_check)$",
	"-reps", "4", "-warmup", "-1", "-min-rep-ms", "1",
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestUsageAndBadCommand(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	code, _, errOut := runCLI(t, "frobnicate")
	if code != 2 || !strings.Contains(errOut, "unknown command") {
		t.Errorf("bad command: exit %d, stderr %q", code, errOut)
	}
	if code, out, _ := runCLI(t, "help"); code != 0 || !strings.Contains(out, "compare") {
		t.Errorf("help: exit %d, out %q", code, out)
	}
}

func TestRunList(t *testing.T) {
	code, out, _ := runCLI(t, "run", "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"fig2a_dos", "kernel_fft_1024", "campaign_w1"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestRunWritesNumberedBench(t *testing.T) {
	dir := t.TempDir()
	args := append([]string{"run", "-dir", dir}, fastArgs...)
	code, out, errOut := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errOut)
	}
	path := filepath.Join(dir, "BENCH_0001.json")
	if !strings.Contains(out, path) {
		t.Errorf("output does not name %s:\n%s", path, out)
	}
	run, err := perf.ReadRunFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Scenarios) != 2 {
		t.Fatalf("captured %d scenarios, want 2", len(run.Scenarios))
	}
	for _, s := range run.Scenarios {
		if len(s.NsPerOp) != 4 {
			t.Errorf("%s: %d reps, want 4", s.Name, len(s.NsPerOp))
		}
	}
	// A second run appends the next number.
	if code, out, _ = runCLI(t, args...); code != 0 || !strings.Contains(out, "BENCH_0002.json") {
		t.Errorf("second run: exit %d out %q", code, out)
	}
}

func TestRunRejectsBadScenarioPattern(t *testing.T) {
	if code, _, _ := runCLI(t, "run", "-scenarios", "no_such_scenario_zzz"); code != 2 {
		t.Errorf("empty match: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "run", "-scenarios", "["); code != 1 {
		t.Errorf("bad regexp: exit %d, want 1", code)
	}
}

// captureTo runs a fast capture into an explicit file.
func captureTo(t *testing.T, path string) {
	t.Helper()
	args := append([]string{"run", "-out", path}, fastArgs...)
	if code, _, errOut := runCLI(t, args...); code != 0 {
		t.Fatalf("capture: exit %d, stderr %s", code, errOut)
	}
}

func TestCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	captureTo(t, oldPath)
	captureTo(t, newPath)

	code, out, errOut := runCLI(t, "compare", oldPath, newPath)
	if code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errOut)
	}
	for _, want := range []string{"kernel_fft_1024", "ns_per_op", "compare:"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}

	code, out, _ = runCLI(t, "compare", "-json", oldPath, newPath)
	if code != 0 {
		t.Fatalf("json compare: exit %d", code)
	}
	var rep perf.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("compare -json is not valid JSON: %v", err)
	}
	if len(rep.Scenarios) != 2 {
		t.Errorf("report covers %d scenarios, want 2", len(rep.Scenarios))
	}

	if code, _, _ = runCLI(t, "compare", oldPath); code != 2 {
		t.Errorf("one arg: exit %d, want 2", code)
	}
	if code, _, _ = runCLI(t, "compare", oldPath, filepath.Join(dir, "absent.json")); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
}

// rewriteScenario loads a BENCH document, applies edit to one scenario's
// ns/op samples, and writes it back.
func rewriteScenario(t *testing.T, path, scenario string, edit func(nsPerOp []float64)) {
	t.Helper()
	run, err := perf.ReadRunFile(path)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range run.Scenarios {
		if run.Scenarios[i].Name == scenario {
			edit(run.Scenarios[i].NsPerOp)
			found = true
		}
	}
	if !found {
		t.Fatalf("scenario %q not in %s", scenario, path)
	}
	if err := perf.WriteRunFile(path, run); err != nil {
		t.Fatal(err)
	}
}

// injectRegression scales one scenario's ns/op samples up — the
// synthetic regression the gate must catch.
func injectRegression(t *testing.T, path, scenario string, factor float64) {
	t.Helper()
	rewriteScenario(t, path, scenario, func(ns []float64) {
		for j := range ns {
			ns[j] *= factor
		}
	})
}

// steadyScenario sets every ns/op rep of one scenario to the fastest, as
// a quiet machine would have measured it. Under CPU load a 4-rep capture
// can spread more than 3x, and then the reps of a 3x-scaled copy overlap
// the originals and the Mann-Whitney test cannot separate them.
func steadyScenario(t *testing.T, path, scenario string) {
	t.Helper()
	rewriteScenario(t, path, scenario, func(ns []float64) {
		fastest := ns[0]
		for _, v := range ns {
			fastest = min(fastest, v)
		}
		for j := range ns {
			ns[j] = fastest
		}
	})
}

// TestCheckGate is the acceptance scenario end to end: check passes a
// capture against itself, fails after a synthetic regression is
// injected, and passes again once the scenario is waived.
func TestCheckGate(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.json")
	freshPath := filepath.Join(dir, "fresh.json")
	captureTo(t, basePath)
	steadyScenario(t, basePath, "kernel_fft_1024")

	// Identical capture: PASS.
	code, out, errOut := runCLI(t, "check", "-baseline", basePath, "-new", basePath)
	if code != 0 {
		t.Fatalf("self-check: exit %d, stderr %s\n%s", code, errOut, out)
	}
	if !strings.Contains(out, "PASS") {
		t.Errorf("self-check output missing PASS:\n%s", out)
	}

	// Inject a 3x slowdown on one scenario of a copy of the baseline:
	// FAIL with exit 1. Copying rather than capturing again keeps every
	// other scenario identical, so scheduler noise on a loaded box cannot
	// add a second regression or push one past the 400% threshold below;
	// the steadied baseline keeps the injected one significant.
	base, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(freshPath, base, 0o644); err != nil {
		t.Fatal(err)
	}
	injectRegression(t, freshPath, "kernel_fft_1024", 3)
	code, out, _ = runCLI(t, "check", "-baseline", basePath, "-new", freshPath)
	if code != 1 {
		t.Fatalf("regressed check: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "kernel_fft_1024") {
		t.Errorf("regressed check output:\n%s", out)
	}

	// JSON verdict carries the same failure.
	code, out, _ = runCLI(t, "check", "-json", "-baseline", basePath, "-new", freshPath)
	if code != 1 {
		t.Fatalf("json check: exit %d, want 1", code)
	}
	var res perf.CheckResult
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("check -json invalid: %v", err)
	}
	if !res.Failed || len(res.Regressions) != 1 || res.Regressions[0].Scenario != "kernel_fft_1024" {
		t.Errorf("check result = %+v", res)
	}

	// A waiver downgrades the failure to a report.
	waivers := filepath.Join(dir, "waivers.txt")
	if err := os.WriteFile(waivers,
		[]byte("safesense:perf-waiver kernel_fft_1024 synthetic regression for the gate test\n"),
		0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = runCLI(t, "check",
		"-baseline", basePath, "-new", freshPath, "-waivers", waivers)
	if code != 0 {
		t.Fatalf("waived check: exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "waived") {
		t.Errorf("waived check output:\n%s", out)
	}

	// A threshold above the injected slowdown also passes.
	code, _, _ = runCLI(t, "check",
		"-baseline", basePath, "-new", freshPath, "-threshold", "400")
	if code != 0 {
		t.Errorf("threshold 400%%: exit %d, want 0", code)
	}
}

func TestCheckMeasuresWhenNoNewFile(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.json")
	savePath := filepath.Join(dir, "BENCH_fresh.json")
	captureTo(t, basePath)
	// The wide threshold keeps this test about the measure-and-save
	// plumbing: with 4-rep captures taken back to back on a possibly
	// loaded box, real scheduler noise can clear the default gate.
	args := append([]string{"check", "-baseline", basePath, "-save", savePath,
		"-threshold", "100000"}, fastArgs...)
	code, out, errOut := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %s\n%s", code, errOut, out)
	}
	if _, err := perf.ReadRunFile(savePath); err != nil {
		t.Errorf("-save did not persist the fresh capture: %v", err)
	}
}

func TestCheckMissingBaseline(t *testing.T) {
	code, _, errOut := runCLI(t, "check", "-baseline", filepath.Join(t.TempDir(), "absent.json"))
	if code != 1 || !strings.Contains(errOut, "baseline") {
		t.Errorf("missing baseline: exit %d, stderr %q", code, errOut)
	}
}
