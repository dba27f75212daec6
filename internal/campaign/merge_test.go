package campaign

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"safesense/internal/stats"
)

// syntheticOutcomes builds a deterministic outcome list exercising every
// branch of the aggregate fold: attacked/benign, detected/missed,
// defended/undefended, collisions, confusion counts, and estimate stats.
func syntheticOutcomes(t *testing.T, n int, seed int64) []Outcome {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	attacks := []string{AttackNone, AttackDoS, AttackDelay, AttackFastAdversary}
	out := make([]Outcome, n)
	for i := range out {
		o := Outcome{
			Index:            i,
			Label:            "synthetic",
			DetectedAt:       -1,
			DetectionLatency: -1,
			CollisionAt:      -1,
			MinGapM:          rng.Float64() * 40,
			FinalGapM:        rng.Float64() * 40,
		}
		o.Point = Point{
			Attack:   attacks[rng.Intn(len(attacks))],
			Defended: rng.Intn(4) != 0,
			Seed:     rng.Int63(),
		}
		if o.Point.Attack != AttackNone && rng.Intn(3) != 0 {
			o.DetectedAt = rng.Intn(300)
			o.DetectionLatency = rng.Intn(40)
		}
		if rng.Intn(8) == 0 {
			o.CollisionAt = rng.Intn(300)
			o.MinGapM = 0
		}
		if rng.Intn(10) == 0 {
			o.FalsePositives = rng.Intn(3)
		}
		if rng.Intn(10) == 0 {
			o.FalseNegatives = rng.Intn(3)
		}
		if rng.Intn(2) == 0 {
			o.EstimateSteps = 1 + rng.Intn(100)
			o.DistRMSEm = rng.Float64() * 5
			o.DistMaxErrM = o.DistRMSEm * (1 + rng.Float64())
			o.VelRMSEmps = rng.Float64() * 3
			o.VelMaxErrMps = o.VelRMSEmps * (1 + rng.Float64())
		}
		out[i] = o
	}
	return out
}

// mustJSON marshals v or fails the test.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// randomPartition splits [0, n) into contiguous ranges at random cut
// points (possibly including empty parts).
func randomPartition(rng *rand.Rand, n int) [][2]int {
	var cuts []int
	parts := 1 + rng.Intn(8)
	for i := 0; i < parts-1; i++ {
		cuts = append(cuts, rng.Intn(n+1))
	}
	cuts = append(cuts, 0, n)
	// Insertion-sort the few cut points; keeps the helper dependency-free.
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	var ranges [][2]int
	for i := 1; i < len(cuts); i++ {
		ranges = append(ranges, [2]int{cuts[i-1], cuts[i]})
	}
	return ranges
}

// TestPartialMergeMatchesOracle is the distributed-campaign correctness
// property: for arbitrary contiguous partitions of the outcome list,
// merging the per-part partials in arbitrary (shuffled) order and
// finalizing must produce an Aggregate byte-identical to the
// single-node AggregateOutcomes fold of the whole list.
func TestPartialMergeMatchesOracle(t *testing.T) {
	outcomes := syntheticOutcomes(t, 257, 42)
	want := mustJSON(t, AggregateOutcomes(outcomes))

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		ranges := randomPartition(rng, len(outcomes))
		partials := make([]Partial, len(ranges))
		for i, r := range ranges {
			partials[i] = PartialOfOutcomes(outcomes[r[0]:r[1]])
		}
		rng.Shuffle(len(partials), func(i, j int) { partials[i], partials[j] = partials[j], partials[i] })
		var merged Partial
		for _, p := range partials {
			merged = merged.Merge(p)
		}
		got := mustJSON(t, merged.Finalize())
		if string(got) != string(want) {
			t.Fatalf("trial %d: merged aggregate diverges from oracle\nparts: %v\n got: %s\nwant: %s",
				trial, ranges, got, want)
		}
	}
}

// TestPartialMergeAssociativity checks the tree-shape half of the
// contract: left fold, right fold, and a random pairwise tree over the
// same partition all converge to identical JSON.
func TestPartialMergeAssociativity(t *testing.T) {
	outcomes := syntheticOutcomes(t, 120, 9)
	rng := rand.New(rand.NewSource(11))
	ranges := randomPartition(rng, len(outcomes))
	parts := make([]Partial, len(ranges))
	for i, r := range ranges {
		parts[i] = PartialOfOutcomes(outcomes[r[0]:r[1]])
	}

	left := Partial{}
	for _, p := range parts {
		left = left.Merge(p)
	}
	right := Partial{}
	for i := len(parts) - 1; i >= 0; i-- {
		right = parts[i].Merge(right)
	}
	tree := append([]Partial(nil), parts...)
	for len(tree) > 1 {
		i := rng.Intn(len(tree) - 1)
		merged := tree[i].Merge(tree[i+1])
		tree = append(tree[:i], tree[i+1:]...)
		tree[i] = merged
	}

	want := mustJSON(t, left.Finalize())
	if got := mustJSON(t, right.Finalize()); string(got) != string(want) {
		t.Fatalf("right fold diverges:\n got: %s\nwant: %s", got, want)
	}
	if got := mustJSON(t, tree[0].Finalize()); string(got) != string(want) {
		t.Fatalf("tree fold diverges:\n got: %s\nwant: %s", got, want)
	}
}

// TestPartialMergeRealCampaign runs a real (small) sweep and checks the
// lease-shaped partition — contiguous fixed-size shards, the exact
// shape the distributed coordinator uses, with an empty partial in
// between as an unreported shard holds — merged pairwise, against the
// engine's own aggregate.
func TestPartialMergeRealCampaign(t *testing.T) {
	spec := Spec{
		Name:    "merge-oracle",
		Steps:   60,
		Attacks: []string{AttackDoS, AttackDelay, AttackNone},
		Onsets:  []int{20, 35},
	}
	sum, err := Run(context.Background(), spec, Options{Workers: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := mustJSON(t, sum.Aggregate)

	for _, leaseJobs := range []int{1, 2, 3, 5, len(sum.Outcomes)} {
		var merged Partial
		for start := 0; start < len(sum.Outcomes); start += leaseJobs {
			end := min(start+leaseJobs, len(sum.Outcomes))
			merged = merged.Merge(PartialOfOutcomes(sum.Outcomes[start:end])).Merge(Partial{})
		}
		if got := mustJSON(t, merged.Finalize()); string(got) != string(want) {
			t.Fatalf("lease size %d: merged aggregate diverges\n got: %s\nwant: %s", leaseJobs, got, want)
		}
	}
}

// TestRunJobsMatchesRun checks that running the expanded grid through
// RunJobs shard-by-shard yields the same outcomes as the engine's Run.
func TestRunJobsMatchesRun(t *testing.T) {
	spec := Spec{Steps: 50, Attacks: []string{AttackDoS}, Onsets: []int{10, 25}, Replicates: 3}
	sum, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	var all []Outcome
	for start := 0; start < len(jobs); start += 2 {
		end := start + 2
		if end > len(jobs) {
			end = len(jobs)
		}
		out, err := RunJobs(context.Background(), jobs[start:end], Options{Workers: 2})
		if err != nil {
			t.Fatalf("RunJobs[%d:%d]: %v", start, end, err)
		}
		all = append(all, out...)
	}
	if got, want := mustJSON(t, all), mustJSON(t, sum.Outcomes); string(got) != string(want) {
		t.Fatalf("RunJobs outcomes diverge from Run\n got: %s\nwant: %s", got, want)
	}
}

func TestPartialValidate(t *testing.T) {
	good := PartialOfOutcomes(syntheticOutcomes(t, 50, 3))
	if err := good.Validate(); err != nil {
		t.Fatalf("honest partial rejected: %v", err)
	}
	if err := (Partial{}).Validate(); err != nil {
		t.Fatalf("empty partial rejected: %v", err)
	}
	// A detector false positive before the onset is a detection with a
	// negative latency: honest, so accepted.
	early := syntheticOutcomes(t, 1, 3)[0]
	early.Point = Point{Attack: AttackDoS, Defended: true}
	early.DetectedAt, early.DetectionLatency = 3, -7
	if err := PartialOfOutcomes([]Outcome{early}).Validate(); err != nil {
		t.Fatalf("negative-latency partial rejected: %v", err)
	}

	cases := map[string]func(p *Partial){
		"negative jobs":        func(p *Partial) { p.Jobs = -1 },
		"attacked over jobs":   func(p *Partial) { p.Attacked = p.Jobs + 1 },
		"detected over":        func(p *Partial) { p.Detected = p.Attacked + 1 },
		"collisions over":      func(p *Partial) { p.Collisions = p.Jobs + 1 },
		"latency count over":   func(p *Partial) { p.Latencies[0].Count++ },
		"latency count short":  func(p *Partial) { p.Latencies = p.Latencies[1:] },
		"zero latency count":   func(p *Partial) { p.Latencies = append(p.Latencies, LatencyCount{Steps: 1 << 20}) },
		"huge latency count":   func(p *Partial) { p.Latencies[1].Count = math.MaxInt },
		"unsorted latencies":   func(p *Partial) { p.Latencies[0].Steps = 1 << 20 },
		"rmse sum missing":     func(p *Partial) { p.DistRMSE = nil },
		"rmse sum not exact":   func(p *Partial) { p.VelRMSE = append(stats.ExactSum{1}, p.VelRMSE...) },
		"rmse sum negative":    func(p *Partial) { p.DistRMSE = stats.ExactSum{-2} },
		"rmse sum overflow":    func(p *Partial) { p.DistRMSE = stats.ExactSum{math.MaxFloat64, math.MaxFloat64} },
		"rmse sum too long":    func(p *Partial) { p.DistRMSE = make(stats.ExactSum, stats.MaxTerms+1) },
		"negative worst error": func(p *Partial) { p.WorstDistErrM = -1 },
		"negative confusion":   func(p *Partial) { p.FalsePositives = -2 },
		"nonempty zero partial": func(p *Partial) {
			*p = Partial{Jobs: 0, Attacked: 1}
		},
		"zero partial with sums": func(p *Partial) {
			*p = Partial{VelRMSE: stats.ExactSum{0}}
		},
	}
	for name, mutate := range cases {
		p := PartialOfOutcomes(syntheticOutcomes(t, 50, 3))
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: corrupt partial accepted", name)
		}
	}
}

// TestPartialSizeBound states what a partial costs on the wire: a
// 16-job lease of the 1008-job benchmark grid (two leaders x two
// attacks x three onsets x 84 seeds at 301 steps) and the whole grid
// both encode under 512 bytes. The size follows the distinct latencies
// and the exact sums' terms, not the job count.
func TestPartialSizeBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 1008-job grid")
	}
	spec := Spec{
		Steps:      301,
		BaseSeed:   1,
		Replicates: 84,
		Attacks:    []string{AttackDoS, AttackDelay},
		Leaders:    []string{LeaderConst, LeaderPhased},
		Onsets:     []int{175, 178, 182},
	}
	sum, err := Run(context.Background(), spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 512
	for name, outcomes := range map[string][]Outcome{
		"16-job lease": sum.Outcomes[:16],
		"whole grid":   sum.Outcomes,
	} {
		if n := len(mustJSON(t, PartialOfOutcomes(outcomes))); n >= bound {
			t.Errorf("%s partial is %d bytes, want under %d", name, n, bound)
		} else {
			t.Logf("%s partial: %d bytes", name, n)
		}
	}
}
