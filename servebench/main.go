// Command servebench is the repository's end-to-end benchmark. It
// launches the safesensed binary as real processes, drives one of four
// closed-loop workloads over loopback HTTP, checks every answer, and
// prints the end-to-end metrics; with -trace 1 it instead replays the
// workload's inputs in-process through each layer's public functions
// and prints the per-layer table. See README.md in this directory.
//
// Usage (from the repository root, after run.sh has built the binaries
// into .bench_build):
//
//	.bench_build/servebench -workload run_closed_form -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"safesense/internal/stats"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options carries the command line.
type options struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
	workers int // server pool size and in-process pool size
}

// buildDir is where run.sh puts the binaries; the span dumps go there too.
const buildDir = ".bench_build"

// serviceBin is the safesensed binary run.sh builds.
var serviceBin = filepath.Join(buildDir, "safesensed")

// setupRounds is how many times a measured run starts the service to
// take the median set-up time.
const setupRounds = 7

// maxClientShare is the client CPU share (cores) beyond which the load
// generator, not the service, would be what the run measures.
const maxClientShare = 0.9

func main() {
	var o options
	var name string
	var traceFlag int
	flag.StringVar(&name, "workload", "", "workload: run_closed_form, run_signal, campaign_sweep or campaign_dist")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics of a traced replay instead of the end-to-end ones")
	flag.Parse()
	w, ok := workloadByName(name)
	if !ok || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need -workload one of run_closed_form, run_signal, campaign_sweep, campaign_dist; -seconds >= 1; -trace 0 or 1")
		os.Exit(2)
	}
	o.w, o.trace = w, traceFlag == 1
	o.workers = runtime.NumCPU()

	var res *result
	var err error
	if o.trace {
		res, err = traced(o)
	} else {
		res, err = measured(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runClients is the closed-loop client count of the run_* workloads.
func runClients() int { return min(2, runtime.NumCPU()) }

// serve drives the workload against a running cluster for d. The
// campaign oracle (want) must already be computed.
func serve(o options, c *cluster, rs *runStream, want []byte, jobs int, d time.Duration) *loadResult {
	if o.w.runs() {
		return driveRuns(c.base, rs, runClients(), d)
	}
	return driveCampaigns(c, o.w, campaignSpec(o.seed), jobs, want, d)
}

// bucket is the sub-window of the run_* workloads: their rate, tail
// latency and CPU cost are the medians over the window's buckets, so a
// burst of contention from outside skews one bucket, not the run.
const bucket = 2 * time.Second

// perBucket splits a run_* window into buckets and returns each full
// bucket's run rate, p90 and p99 latency, and service CPU per run.
// ticks are the service CPU ticks sampled at every bucket boundary.
func perBucket(lr *loadResult, lat []float64, ticks []int64) (rate, p90, p99, cpu []float64) {
	n := min(int(lr.window/bucket), len(ticks)-1)
	lats := make([][]float64, n)
	for i, e := range lr.ends {
		if b := int(e / bucket); b < n {
			lats[b] = append(lats[b], lat[i])
		}
	}
	for b, l := range lats {
		if len(l) == 0 {
			continue
		}
		rate = append(rate, float64(len(l))/bucket.Seconds())
		p90 = append(p90, stats.Percentile(l, 90))
		p99 = append(p99, stats.Percentile(l, 99))
		cpu = append(cpu, float64(ticks[b+1]-ticks[b])*1000/clockTicks/float64(len(l)))
	}
	return rate, p90, p99, cpu
}

// sampleService reads the cluster's CPU ticks and resident set now and
// then every period, until the returned stop is called; stop waits for
// the sampler to end.
func sampleService(c *cluster, period time.Duration) (stop func() ([]int64, []float64, error)) {
	var ticks []int64
	var rss []float64
	var firstErr error
	read := func() {
		t, err := c.cpuTicks()
		r, rerr := c.rssKiB()
		if err = errors.Join(err, rerr); err != nil && firstErr == nil {
			firstErr = err
		}
		ticks = append(ticks, t)
		rss = append(rss, float64(r))
	}
	read()
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tk := time.NewTicker(period)
		defer tk.Stop()
		for {
			select {
			case <-tk.C:
				read()
			case <-done:
				return
			}
		}
	}()
	return func() ([]int64, []float64, error) {
		close(done)
		<-exited
		return ticks, rss, firstErr
	}
}

// warmup is the untimed load before a measured window, so the window
// sees a service whose heap and connection pools have settled.
const warmup = time.Second

// measured is the -trace 0 run: set-up rounds, oracle, warm-up, then
// one measured window with tracing off.
func measured(o options) (*result, error) {
	rs, want, jobs, err := prepare(o)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var c *cluster
	for i := 0; i < setupRounds; i++ {
		ci, d, err := startCluster(serviceBin, o.w, o.workers)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRounds-1 {
			ci.stop()
		} else {
			c = ci
		}
	}
	defer c.stop()

	serve(o, c, rs, want, jobs, warmup)
	stopSampler := sampleService(c, bucket)
	lr := serve(o, c, rs, want, jobs, time.Duration(o.seconds)*time.Second)
	ticks, rss, err := stopSampler()
	if err != nil {
		return nil, err
	}
	peakKiB, err := c.peakRSSKiB()
	if err != nil {
		return nil, err
	}
	if lr.runs == 0 {
		return nil, fmt.Errorf("no operation succeeded: %v", lr.firstErr)
	}

	lat := durationsMs(lr.lat)
	var rate, p90, p99, cpu []float64
	if o.w.runs() {
		rate, p90, p99, cpu = perBucket(lr, lat, ticks)
	} else {
		for i, l := range lat {
			rate = append(rate, float64(jobs)/(l/1000))
			cpu = append(cpu, float64(lr.opTicks[i])*1000/clockTicks/float64(jobs))
		}
		p90 = []float64{stats.Percentile(lat, 90)}
		p99 = []float64{stats.Percentile(lat, 99)}
	}
	share := lr.clientShare()
	res := &result{
		Correct:   lr.failed == 0 && share < maxClientShare,
		Attempted: lr.attempted,
		Failed:    lr.failed,
		Metrics: map[string]metric{
			"runs_per_s":     {median(rate), "1/s"},
			"op_p50_ms":      {median(lat), "ms"},
			"cpu_ms_per_run": {median(cpu), "ms"},
			"rss_mb":         {median(rss) / 1024, "MB"},
			"setup_s":        {median(setups), "s"},
		},
	}

	fmt.Printf("servebench %s  seed %d  window %.2f s  %d service process(es), %d workers\n",
		o.w.name, o.seed, lr.window.Seconds(), len(c.procs), o.workers)
	op := "/v1/run request"
	if o.w.campaign {
		op = fmt.Sprintf("%d-job campaign, submit to SSE done", jobs)
		fmt.Printf("  %-16s %12.4f s    (median of %d campaigns)\n", "campaign_s", median(lat)/1000, len(lat))
	}
	printMetrics(res.Metrics)
	fmt.Printf("  %-32s %14.4f ms (not gated: on campaign_* the window's slowest two or three campaigns set it)\n", "op_p90_ms", median(p90))
	fmt.Printf("  %-32s %14.4f ms (not gated: its ten-run spread is wider than any bound)\n", "op_p99_ms", median(p99))
	fmt.Printf("  op = one %s; %d samples\n", op, len(lat))
	if o.w.runs() {
		fmt.Printf("  runs_per_s, op_p90_ms, op_p99_ms and cpu_ms_per_run are medians over %d windows of %v:\n", len(rate), bucket)
	} else {
		fmt.Printf("  runs_per_s and cpu_ms_per_run are medians over campaigns, op_p90_ms and op_p99_ms percentiles of campaign times:\n")
	}
	fmt.Printf("    runs_per_s     %s\n    op_p90_ms      %s\n    op_p99_ms      %s\n    cpu_ms_per_run %s\n",
		formatFloats(rate), formatFloats(p90), formatFloats(p99), formatFloats(cpu))
	fmt.Printf("  %-16s %12.4f      (%d of %d operations failed, refused or wrong)\n",
		"failed_frac", float64(lr.failed)/float64(lr.attempted), lr.failed, lr.attempted)
	fmt.Printf("  rss_mb is the median of VmRSS sampled every %v (summed over the service processes); peak (VmHWM) %.1f MB\n",
		bucket, float64(peakKiB)/1024)
	fmt.Printf("  client: %.3f cores, %d connections; set-up rounds (s): %s\n",
		share, lr.conns, formatFloats(setups))
	if lr.firstErr != nil {
		fmt.Println("  first failure:", lr.firstErr)
	}
	reportSaturation(share)
	return res, nil
}

// reportSaturation explains a run failed for load-generator honesty.
func reportSaturation(share float64) {
	if share >= maxClientShare {
		fmt.Printf("  the load generator used %.2f cores (limit %.2f): it, not the service, was measured\n", share, maxClientShare)
	}
}

// prepare builds the workload's inputs from the seed and, for campaign
// workloads, the oracle: the aggregate of an in-process campaign.Run of
// the same spec, computed before any service runs.
func prepare(o options) (rs *runStream, want []byte, jobs int, err error) {
	if o.w.runs() {
		// Enough requests that a window does not wrap around the stream.
		return newRunStream(o.seed, o.w.signal, 32768), nil, 0, nil
	}
	ci, err := campaignCensus(o)
	if err != nil {
		return nil, nil, 0, err
	}
	return nil, ci.oracle, len(ci.jobs), nil
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func median(vs []float64) float64 { return stats.Percentile(vs, 50) }

func formatFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4f", v)
	}
	return strings.Join(parts, " ")
}
