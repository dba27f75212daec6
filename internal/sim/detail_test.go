package sim

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"safesense/internal/attack"
	"safesense/internal/prbs"
	"safesense/internal/stats"
	"safesense/internal/trace"
)

// recordings are the Result fields a level above Summary adds; every
// other field is a summary field that all levels must agree on.
var recordings = map[string]bool{
	"Distance": true, "Velocity": true, "Speeds": true, "Events": true,
	"Phases": true, "RLSTime": true,
}

// checkSummaryMatches asserts got and want agree on every summary field:
// the scalars, Accuracy, Flight and Anomalies. Fields are compared as %+v
// text, which prints each float as the shortest decimal that parses back
// to it, so equal text means equal bits (NaN payloads aside).
func checkSummaryMatches(t *testing.T, got, want *Result) {
	t.Helper()
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < g.NumField(); i++ {
		name := g.Type().Field(i).Name
		if recordings[name] {
			continue
		}
		gs, ws := fmt.Sprintf("%+v", g.Field(i).Interface()), fmt.Sprintf("%+v", w.Field(i).Interface())
		if gs != ws {
			t.Errorf("%s: %s, want %s", name, gs, ws)
		}
	}
}

// checkErrorsMatchStats recomputes a Traced run's estimate errors the
// way the run used to, with stats.RMSE and stats.MaxAbsErr over the
// recorded estimate series against the truth at the same steps, and
// asserts the run's running sums gave the same bits.
func checkErrorsMatchStats(t *testing.T, res *Result) {
	t.Helper()
	for _, c := range []struct {
		set          *trace.Set
		rmse, maxErr float64
	}{
		{res.Distance, res.EstimateDistRMSE, res.EstimateDistMaxErr},
		{res.Velocity, res.EstimateVelRMSE, res.EstimateVelMaxErr},
	} {
		est, truth := c.set.Series(SeriesEstimated), c.set.Series(SeriesTrue)
		if len(est.Y) != res.EstimateSteps {
			t.Fatalf("%s: %d estimates, EstimateSteps %d", c.set.Title, len(est.Y), res.EstimateSteps)
		}
		if len(est.Y) == 0 {
			if c.rmse != 0 || c.maxErr != 0 {
				t.Errorf("%s: errors %v/%v without estimates", c.set.Title, c.rmse, c.maxErr)
			}
			continue
		}
		at := make([]float64, len(est.T))
		for i, k := range est.T {
			at[i] = truth.Y[k]
		}
		rmse, _ := stats.RMSE(est.Y, at)
		maxErr, _ := stats.MaxAbsErr(est.Y, at)
		if math.Float64bits(rmse) != math.Float64bits(c.rmse) || math.Float64bits(maxErr) != math.Float64bits(c.maxErr) {
			t.Errorf("%s: run scored RMSE %v max %v, stats gives %v and %v", c.set.Title, c.rmse, c.maxErr, rmse, maxErr)
		}
	}
}

// sparseLFSR is Fig 2a under a pseudo-random schedule that challenges
// about once in 32 steps, so detection lags onset and the rollback
// window is long.
func sparseLFSR(t *testing.T) Scenario {
	t.Helper()
	s := Fig2aDoS()
	sched, err := prbs.NewLFSRSchedule(9, 7, 5, s.Steps)
	if err != nil {
		t.Fatal(err)
	}
	s.Name += "-lfsr"
	s.Schedule = sched
	return s
}

// TestSummaryMatchesTraced pins the detail levels' contract: a Summary
// run scores the same summary fields, bit for bit, as the Traced run
// that records every series, and records nothing else.
func TestSummaryMatchesTraced(t *testing.T) {
	s1 := Fig2aDoS()
	s1.SignalLevel = true
	fast := Fig2aDoS()
	fast.Name = "fast-adversary"
	fast.Attack = AttackSpec{
		Kind: FastAdversaryAttack, Window: attack.Window{Start: 150, End: 300}, OffsetM: 6,
	}
	scenarios := []Scenario{
		Fig2aDoS(), Fig2bDelay(), Fig3aDoS(), Fig3bDelay(),
		s1,
		Undefended(Fig2bDelay()),
		Baseline(Fig3aDoS()),
		sparseLFSR(t),
		fast,
	}
	summary := WithDetail(context.Background(), Summary)
	for _, s := range scenarios {
		t.Run(s.Name, func(t *testing.T) {
			traced, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunContext(summary, s)
			if err != nil {
				t.Fatal(err)
			}
			checkSummaryMatches(t, res, traced)
			checkErrorsMatchStats(t, traced)
			if res.Distance != nil || res.Velocity != nil || res.Speeds != nil || res.Events != nil {
				t.Error("Summary run recorded series or the event log")
			}
			if res.Phases != nil || res.RLSTime != 0 {
				t.Errorf("Summary run recorded timing: Phases %v, RLSTime %v", res.Phases, res.RLSTime)
			}
			if len(traced.Flight) == 0 {
				t.Error("Traced run has no flight timeline to compare")
			}
		})
	}
}

// TestSummaryRunAllocationCeiling bounds a campaign job's run: at
// Summary detail a closed-form figure run allocates only its setup
// (noise source, front end, detector, estimator, controller, flight
// recorder) and its flight events. The ceiling is 30 allocations and
// 16 KiB per run.
func TestSummaryRunAllocationCeiling(t *testing.T) {
	const (
		maxAllocs = 30
		maxBytes  = 16 << 10
		runs      = 20
	)
	ctx := WithDetail(context.Background(), Summary)
	s := Fig2aDoS()
	run := func() {
		if _, err := RunContext(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(runs, run); avg > maxAllocs {
		t.Errorf("Summary Run(Fig2aDoS): %v allocs/run, want <= %d", avg, maxAllocs)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run() // warm up as AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > maxBytes {
		t.Errorf("Summary Run(Fig2aDoS): %d B/run, want <= %d", b, maxBytes)
	}
}
