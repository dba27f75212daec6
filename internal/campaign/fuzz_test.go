package campaign

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"safesense/internal/obs"
	"safesense/internal/sim"
)

// FuzzDecodeSpec feeds arbitrary bytes down the path a campaign
// submission takes through safesensed: the shared strict decoder into a
// Spec, then NumJobs and Expand. For every input nothing may panic; for
// every accepted spec, the grid arithmetic must be self-consistent:
// NumJobs equals len(Expand()), jobs are indexed 0..n-1 in order, and
// expanding twice yields identical jobs (the determinism contract the
// whole campaign engine rests on).
func FuzzDecodeSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"sweep","steps":50,"replicates":2,` +
		`"attacks":["dos","delay","none"],"leaders":["const","phased"],` +
		`"onsets":[10,20],"offsets_m":[3,6],"jammer_powers_mw":[50,100]}`))
	f.Add([]byte(`{"schedules":[{"kind":"lfsr","width":5,"reg_len":9,"seed":7}],"attacks":["fast-adversary"]}`))
	f.Add([]byte(`{"defended":false,"signal_level":true,"base_seed":42}`))
	f.Add([]byte(`{"steps":-1}`))
	f.Add([]byte(`{"steps":1000000000}`))
	f.Add([]byte(`{"replicates":9223372036854775807,"onsets":[1,2,3]}`))
	f.Add([]byte(`{"unknown_field":1}`))
	f.Add([]byte(`{} trailing garbage`))
	f.Add([]byte(`{"attacks":["nope"]}`))
	f.Add([]byte(`{"onsets":[500]}`))

	// maxFuzzExpand keeps the consistency oracle fast; larger (still
	// valid) grids are accepted but not expanded under the fuzzer.
	const maxFuzzExpand = 4096

	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if err := obs.DecodeStrict(bytes.NewReader(data), &sp); err != nil {
			return
		}
		n, err := sp.NumJobs()
		if err != nil {
			// Valid spec but over the grid cap — fine, as long as
			// Expand agrees.
			if _, eerr := sp.Expand(); eerr == nil {
				t.Fatalf("NumJobs rejected (%v) but Expand accepted", err)
			}
			return
		}
		if n < 1 {
			t.Fatalf("NumJobs = %d for a valid spec", n)
		}
		if n > maxFuzzExpand {
			return
		}
		jobs, err := sp.Expand()
		if err != nil {
			t.Fatalf("Expand failed after NumJobs accepted: %v", err)
		}
		if len(jobs) != n {
			t.Fatalf("NumJobs = %d but Expand produced %d jobs", n, len(jobs))
		}
		for i, j := range jobs {
			if j.Index != i {
				t.Fatalf("job %d carries Index %d", i, j.Index)
			}
		}
		again, err := sp.Expand()
		if err != nil || !reflect.DeepEqual(jobs, again) {
			t.Fatalf("Expand is not deterministic for %s", data)
		}
	})
}

// FuzzRunSpec runs what FuzzDecodeSpec only expands: every job of an
// accepted spec with at most fuzzRunJobs jobs and fuzzRunSteps steps
// runs at sim.Summary (as campaign jobs run) and at sim.Traced (as a
// figure run records). Neither may panic, both must fail or succeed
// together, the outcomeOf projections must agree bit for bit (%+v
// prints each float as the shortest decimal that parses back to it),
// and every float an Outcome carries must be finite.
func FuzzRunSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"steps":120,"attacks":["dos","delay","none"],"onsets":[40],"replicates":2}`))
	f.Add([]byte(`{"steps":200,"schedules":[{"kind":"lfsr","width":5,"reg_len":9,"seed":7}],"attacks":["fast-adversary"],"onsets":[60]}`))
	f.Add([]byte(`{"steps":64,"signal_level":true,"leaders":["phased"],"onsets":[30]}`))
	f.Add([]byte(`{"steps":90,"defended":false,"attacks":["delay"],"offsets_m":[40],"onsets":[10]}`))
	f.Add([]byte(`{"steps":1,"onsets":[0],"jammer_powers_mw":[1e-9]}`))

	const (
		fuzzRunJobs  = 8
		fuzzRunSteps = 400
	)
	summary := sim.WithDetail(context.Background(), sim.Summary)
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if err := obs.DecodeStrict(bytes.NewReader(data), &sp); err != nil {
			return
		}
		n, err := sp.NumJobs()
		if err != nil || n > fuzzRunJobs || sp.withDefaults().Steps > fuzzRunSteps {
			return
		}
		jobs, err := sp.Expand()
		if err != nil {
			t.Fatalf("Expand failed after NumJobs accepted: %v", err)
		}
		for _, j := range jobs {
			s, err := j.Point.Scenario()
			if err != nil {
				continue
			}
			fast, ferr := sim.RunContext(summary, s)
			full, terr := sim.Run(s)
			if (ferr == nil) != (terr == nil) {
				t.Fatalf("job %d: Summary err %v, Traced err %v", j.Index, ferr, terr)
			}
			if ferr != nil {
				continue
			}
			o := outcomeOf(j, s.Name, fast)
			got, want := fmt.Sprintf("%+v", o), fmt.Sprintf("%+v", outcomeOf(j, s.Name, full))
			if got != want {
				t.Fatalf("job %d: Summary outcome\n%s\nTraced outcome\n%s", j.Index, got, want)
			}
			if name := nonFiniteField(o); name != "" {
				t.Fatalf("job %d: outcome %s is not finite: %s", j.Index, name, got)
			}
		}
	})
}

// nonFiniteField names the first float64 field of o that is NaN or
// infinite, or returns "" when every one is finite.
func nonFiniteField(o Outcome) string {
	v := reflect.ValueOf(o)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Float64 && (math.IsNaN(f.Float()) || math.IsInf(f.Float(), 0)) {
			return v.Type().Field(i).Name
		}
	}
	return ""
}
