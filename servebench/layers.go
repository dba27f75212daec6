package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"safesense/internal/campaign"
	"safesense/internal/dist"
	"safesense/internal/obs"
	"safesense/internal/obs/forensic"
	"safesense/internal/report"
	"safesense/internal/sim"
	"safesense/internal/stats"
)

// Replay sizes of the traced run: requests replayed in the workload's
// own radar mode, and in the other mode (the probe that times the
// radar layers the workload does not cross).
const (
	replayClosedForm = 96
	replaySignal     = 24
	probeClosedForm  = 16
	probeSignal      = 4
	// allocRuns is how many replays count allocations per layer call.
	allocRuns = 2
	// timingReps repeats the cheap single calls (Expand, aggregate,
	// merge) and keeps the median.
	timingReps = 5
)

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
func usSince(t time.Time) float64 { return float64(time.Since(t)) / 1e3 }

// campaignInfo is the in-process run of the campaign workloads' spec:
// the oracle their served aggregates must match, and the campaign,
// forensic and pool rows of the per-layer table.
type campaignInfo struct {
	spec   campaign.Spec
	jobs   []campaign.Job
	oracle []byte // json.Marshal of the aggregate

	expandMs, aggregateMs, wallMs, poolOverhead float64
	captures                                    int
	putUs                                       float64
}

// busySeconds reads the campaign engine's cumulative worker busy time.
func busySeconds() float64 {
	for _, f := range obs.Default().Snapshot() {
		if f.Name == "safesense_campaign_worker_busy_seconds_total" && len(f.Metrics) > 0 {
			return f.Metrics[0].Value
		}
	}
	return 0
}

func campaignCensus(o options) (*campaignInfo, error) {
	ci := &campaignInfo{spec: campaignSpec(o.seed)}
	var expand []float64
	for i := 0; i < timingReps; i++ {
		t := time.Now()
		jobs, err := ci.spec.Expand()
		if err != nil {
			return nil, err
		}
		expand = append(expand, msSince(t))
		ci.jobs = jobs
	}
	ci.expandMs = median(expand)

	var mu sync.Mutex
	var caps []forensic.Capture
	busy0 := busySeconds()
	t := time.Now()
	sum, err := campaign.Run(context.Background(), ci.spec, campaign.Options{
		Workers: o.workers,
		Forensic: &campaign.ForensicOptions{Sink: func(c forensic.Capture) {
			mu.Lock()
			caps = append(caps, c)
			mu.Unlock()
		}},
	})
	if err != nil {
		return nil, err
	}
	wall := time.Since(t)
	ci.wallMs = float64(wall) / 1e6
	ci.poolOverhead = 1 - (busySeconds()-busy0)/(float64(sum.Workers)*wall.Seconds())
	if ci.oracle, err = json.Marshal(sum.Aggregate); err != nil {
		return nil, err
	}

	var agg []float64
	for i := 0; i < timingReps; i++ {
		t := time.Now()
		a := campaign.AggregateOutcomes(sum.Outcomes)
		agg = append(agg, msSince(t))
		if b, _ := json.Marshal(a); !bytes.Equal(b, ci.oracle) {
			return nil, fmt.Errorf("campaign.AggregateOutcomes is not deterministic")
		}
	}
	ci.aggregateMs = median(agg)

	store, err := forensic.Open(forensic.Options{})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	ci.captures = len(caps)
	var put float64
	for _, c := range caps {
		t := time.Now()
		if _, _, err := store.Put(c); err != nil {
			return nil, fmt.Errorf("forensic put: %w", err)
		}
		put += usSince(t)
	}
	if len(caps) > 0 {
		ci.putUs = put / float64(len(caps))
	}
	return ci, nil
}

// distInfo is the in-process lease loop over the same spec.
type distInfo struct {
	leases           int
	leaseMs, mergeMs float64
}

// distCensus runs the spec through an in-process dist.Coordinator:
// Acquire, campaign.RunJobs on the shard, Complete — then times merging
// the shard partials and checks the merge against the oracle.
func distCensus(o options, ci *campaignInfo) (*distInfo, error) {
	coord := dist.NewCoordinator(dist.Config{LeaseJobs: leaseJobs})
	sub, err := coord.Submit(dist.SubmitRequest{Spec: ci.spec, LeaseJobs: leaseJobs}, "")
	if err != nil {
		return nil, err
	}
	const worker = "servebench"
	var partials []campaign.Partial
	var leaseMs float64
	for {
		t := time.Now()
		lease, ok := coord.Acquire(worker)
		if !ok {
			break
		}
		outs, err := campaign.RunJobs(context.Background(), ci.jobs[lease.Start:lease.End], campaign.Options{Workers: o.workers})
		if err != nil {
			return nil, err
		}
		p := campaign.PartialOfOutcomes(outs)
		if _, err := coord.Complete(dist.CompleteRequest{LeaseID: lease.LeaseID, WorkerID: worker, Partial: p}); err != nil {
			return nil, err
		}
		leaseMs += msSince(t)
		partials = append(partials, p)
	}
	st, ok := coord.CampaignStatus(sub.ID)
	if !ok || st.Summary == nil {
		return nil, fmt.Errorf("in-process dist campaign %s did not finish", sub.ID)
	}
	if b, _ := json.Marshal(st.Summary.Aggregate); !bytes.Equal(b, ci.oracle) {
		return nil, fmt.Errorf("in-process dist aggregate differs from campaign.Run")
	}
	var merge []float64
	for i := 0; i < timingReps; i++ {
		t := time.Now()
		var m campaign.Partial
		for _, p := range partials {
			m = m.Merge(p)
		}
		a := m.Finalize()
		merge = append(merge, msSince(t))
		if b, _ := json.Marshal(a); !bytes.Equal(b, ci.oracle) {
			return nil, fmt.Errorf("merged partials differ from campaign.Run")
		}
	}
	return &distInfo{leases: len(partials), leaseMs: leaseMs / float64(len(partials)), mergeMs: median(merge)}, nil
}

// row accumulates one layer's spans.
type row struct {
	ns    int64
	calls int
}

// runCensus is the replay of a set of requests: the service's own
// in-process steps per request, and the layer rows of the closed loop.
type runCensus struct {
	signal bool
	runs   int
	rows   [numLayers]row
	spanNs float64 // recorder cost per span, removed from the rows

	simUs, inProcUs                []float64 // per request
	summarizeUs, encodeUs          float64   // mean per request
	tracedUs, untracedUs           float64   // mean replay wall per request
	simAllocs, simBytes, estAllocs float64   // per run
}

// runRequest mirrors the service's /v1/run body.
type runRequest struct {
	campaign.Point
	IncludeTraces bool `json:"include_traces,omitempty"`
}

// replayRequests replays each request body as the service would handle
// it — decode, sim.Run, report.Summarize, encode — and then through the
// layers, checking the layer replay against the run bit for bit. Spans
// go to rec under request ids starting at req0.
func replayRequests(bodies [][]byte, signal bool, rec *recorder, req0 int, spanNs float64) (*runCensus, error) {
	rc := &runCensus{signal: signal, runs: len(bodies), spanNs: spanNs}
	first := len(rec.spans)
	off := &recorder{}
	var buf bytes.Buffer
	scenarios := make([]sim.Scenario, len(bodies))
	for i, body := range bodies {
		t := time.Now()
		var req runRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, err
		}
		s, err := req.Point.Scenario()
		if err == nil {
			err = s.Validate()
		}
		if err != nil {
			return nil, err
		}
		decodeUs := usSince(t)
		t = time.Now()
		res, err := sim.Run(s)
		if err != nil {
			return nil, err
		}
		simUs := usSince(t)
		t = time.Now()
		sum := report.Summarize(res, req.IncludeTraces)
		summarizeUs := usSince(t)
		t = time.Now()
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(sum); err != nil {
			return nil, err
		}
		encodeUs := usSince(t)
		rc.simUs = append(rc.simUs, simUs)
		rc.inProcUs = append(rc.inProcUs, decodeUs+simUs+summarizeUs+encodeUs)
		rc.summarizeUs += summarizeUs
		rc.encodeUs += encodeUs

		// Scenarios hold no mutable state, so s serves every pass.
		scenarios[i] = s
		rec.beginRun(int32(req0 + i))
		out, err := replay(scenarios[i], rec)
		rec.endRun()
		if err != nil {
			return nil, err
		}
		if err := compareSeries(res, out); err != nil {
			return nil, fmt.Errorf("layer replay of %s: %w", req.Point.Label(), err)
		}
		t = time.Now()
		if _, err := replay(scenarios[i], off); err != nil {
			return nil, err
		}
		rc.untracedUs += usSince(t)
	}
	n := float64(len(bodies))
	rc.summarizeUs /= n
	rc.encodeUs /= n
	rc.untracedUs /= n
	for _, sp := range rec.spans[first:] {
		if sp.Name == spanRun {
			rc.tracedUs += float64(sp.End-sp.Start) / 1e3 / n
			continue
		}
		rc.rows[sp.Name].ns += sp.End - sp.Start
		rc.rows[sp.Name].calls++
	}

	// Allocations, untimed: sim.Run as a whole, then per layer call.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, s := range scenarios {
		if _, err := sim.Run(s); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m1)
	rc.simAllocs = float64(m1.Mallocs-m0.Mallocs) / n
	rc.simBytes = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	counter := &recorder{allocs: true}
	k := min(allocRuns, len(scenarios))
	for _, s := range scenarios[:k] {
		if _, err := replay(s, counter); err != nil {
			return nil, err
		}
	}
	for l := layer(0); l < numLayers; l++ {
		if l.isEstimator() {
			rc.estAllocs += float64(counter.mallocs[l]) / float64(k)
		}
	}
	return rc, nil
}

// perCall is the mean time of one call into layer l in ns: its span
// duration less the recorder's own per-span cost (0 when never called).
func (rc *runCensus) perCall(l layer) float64 {
	if rc.rows[l].calls == 0 {
		return 0
	}
	return float64(rc.rows[l].ns)/float64(rc.rows[l].calls) - rc.spanNs
}

func (rc *runCensus) simRunUs() float64 { return stats.Mean(rc.simUs) }

// layersUs is the summed layer time per run, span cost removed.
func (rc *runCensus) layersUs() float64 {
	var ns float64
	for _, r := range rc.rows {
		ns += float64(r.ns) - float64(r.calls)*rc.spanNs
	}
	return ns / 1e3 / float64(rc.runs)
}

// spanCost calibrates what recording one span adds to the span's own
// duration: the median of empty spans on a scratch recorder.
func spanCost() float64 {
	const n = 20001
	r := newRecorder()
	r.spans = make([]span, 0, n)
	for i := 0; i < n; i++ {
		t := r.start()
		r.end(layerVehicleStep, t)
	}
	ds := make([]float64, n)
	for i, sp := range r.spans {
		ds[i] = float64(sp.End - sp.Start)
	}
	return median(ds)
}

// traced is the -trace 1 run: in-process campaign and dist runs, a short
// served slice of the workload, then the layer replay of its requests.
func traced(o options) (*result, error) {
	ci, err := campaignCensus(o)
	if err != nil {
		return nil, err
	}
	di, err := distCensus(o, ci)
	if err != nil {
		return nil, err
	}

	var rs *runStream
	if o.w.runs() {
		rs = newRunStream(o.seed, o.w.signal, 32768)
	}
	c, _, err := startCluster(serviceBin, o.w, o.workers)
	if err != nil {
		return nil, err
	}
	serve(o, c, rs, ci.oracle, len(ci.jobs), warmup/2)
	gc0, err := c.gcCycles()
	if err != nil {
		c.stop()
		return nil, err
	}
	slice := max(2*time.Second, time.Duration(o.seconds)*time.Second/3)
	lr := serve(o, c, rs, ci.oracle, len(ci.jobs), slice)
	gc1, err := c.gcCycles()
	c.stop()
	if err != nil {
		return nil, err
	}
	if lr.runs == 0 {
		return nil, fmt.Errorf("no operation succeeded: %v", lr.firstErr)
	}

	// The replayed requests: the first ones the served slice sent, or for
	// campaigns an even sample of the grid's jobs.
	mainN, probeN := replayClosedForm, probeSignal
	if o.w.signal {
		mainN, probeN = replaySignal, probeClosedForm
	}
	var mainBodies [][]byte
	if o.w.runs() {
		mainBodies = rs.bodies[:mainN]
	} else {
		for i := 0; i < mainN; i++ {
			body, err := json.Marshal(ci.jobs[i*len(ci.jobs)/mainN].Point)
			if err != nil {
				return nil, err
			}
			mainBodies = append(mainBodies, body)
		}
	}
	probeBodies := newRunStream(o.seed, !o.w.signal, probeN).bodies

	spanNs := spanCost()
	rec := newRecorder()
	rec.spans = make([]span, 0, (mainN+probeN)*301*12)
	main, err := replayRequests(mainBodies, o.w.signal, rec, 0, spanNs)
	if err != nil {
		return nil, err
	}
	probe, err := replayRequests(probeBodies, !o.w.signal, rec, mainN, spanNs)
	if err != nil {
		return nil, err
	}
	spanFile := filepath.Join(buildDir, "spans-"+o.w.name+".tsv")
	if err := writeSpans(spanFile, rec.spans); err != nil {
		return nil, err
	}

	lat := durationsMs(lr.lat)
	overheadMs := median(lat) - median(main.inProcUs)/1e3
	if o.w.campaign {
		overheadMs = median(lat) - ci.wallMs
	}
	closed, signal := main, probe
	if o.w.signal {
		closed, signal = probe, main
	}
	runs := float64(lr.runs)
	eventsPerCampaign := 0.0
	if o.w.campaign {
		eventsPerCampaign = float64(lr.events) / float64(lr.attempted)
	}
	ms := map[string]metric{
		"estimate.observe_ns":            {main.perCall(layerEstimateObserve), "ns"},
		"estimate.predict_ns":            {main.perCall(layerEstimatePredict), "ns"},
		"estimate.snapshot_ns":           {main.perCall(layerEstimateSnapshot), "ns"},
		"estimate.allocs_per_run":        {main.estAllocs, "count"},
		"radar.observe_ns":               {closed.perCall(layerRadarObserve), "ns"},
		"attack.corrupt_ns":              {closed.perCall(layerAttackCorrupt), "ns"},
		"radar.sweep_us":                 {signal.perCall(layerRadarSweep) / 1e3, "us"},
		"radar.extract_us":               {signal.perCall(layerRadarExtract) / 1e3, "us"},
		"cra.step_ns":                    {main.perCall(layerCRAStep), "ns"},
		"acc.step_ns":                    {main.perCall(layerACCStep), "ns"},
		"vehicle.step_ns":                {main.perCall(layerVehicleStep), "ns"},
		"sim.run_us":                     {main.simRunUs(), "us"},
		"sim.self_us":                    {main.simRunUs() - main.layersUs(), "us"},
		"sim.allocs_per_run":             {main.simAllocs, "count"},
		"sim.bytes_per_run":              {main.simBytes, "B"},
		"runtime.gc_cycles_per_krun":     {(gc1 - gc0) / runs * 1000, "count"},
		"report.summarize_us":            {main.summarizeUs, "us"},
		"report.encode_us":               {main.encodeUs, "us"},
		"safesensed.resp_bytes":          {float64(lr.respBytes) / float64(lr.attempted), "B"},
		"safesensed.http_overhead_ms":    {overheadMs, "ms"},
		"campaign.expand_ms":             {ci.expandMs, "ms"},
		"campaign.pool_overhead_frac":    {ci.poolOverhead, "frac"},
		"campaign.aggregate_ms":          {ci.aggregateMs, "ms"},
		"forensic.captures_per_campaign": {float64(ci.captures), "count"},
		"forensic.put_us":                {ci.putUs, "us"},
		"stream.events_per_campaign":     {eventsPerCampaign, "count"},
		"dist.leases_per_campaign":       {float64(di.leases), "count"},
		"dist.lease_ms":                  {di.leaseMs, "ms"},
		"dist.merge_ms":                  {di.mergeMs, "ms"},
		"trace.overhead_frac":            {main.tracedUs/main.untracedUs - 1, "frac"},
		"client.cpu_share":               {lr.clientShare(), "cores"},
		"client.conns":                   {float64(lr.conns), "count"},
	}

	printLayerTable(o, main, probe)
	fmt.Printf("served slice: %.2f s, %d operations, %d failed; spans in %s\n",
		lr.window.Seconds(), lr.attempted, lr.failed, spanFile)
	printMetrics(ms)
	if lr.firstErr != nil {
		fmt.Println("  first failure:", lr.firstErr)
	}
	reportSaturation(lr.clientShare())
	return &result{Correct: lr.failed == 0 && lr.clientShare() < maxClientShare,
		Attempted: lr.attempted, Failed: lr.failed, Metrics: ms}, nil
}

func modeName(signal bool) string {
	if signal {
		return "signal-level"
	}
	return "closed-form"
}

// printLayerTable prints one row per layer of the workload's own radar
// mode — calls per run, time per call, share of sim.run_us — whose rows
// plus sim.self_us make up sim.run_us, then the probe-only rows.
func printLayerTable(o options, main, probe *runCensus) {
	run := main.simRunUs()
	fmt.Printf("per-layer table: %s, seed %d, %d replayed %s requests (layer spans recorded by the benchmark)\n",
		o.w.name, o.seed, main.runs, modeName(main.signal))
	fmt.Printf("  %-20s %10s %14s %12s %8s\n", "layer", "calls/run", "time/call", "us/run", "share")
	for l := layer(0); l < numLayers; l++ {
		r := main.rows[l]
		if r.calls == 0 {
			continue
		}
		perRun := main.perCall(l) * float64(r.calls) / 1e3 / float64(main.runs)
		fmt.Printf("  %-20s %10.1f %11.1f ns %12.2f %7.2f%%\n", layerNames[l],
			float64(r.calls)/float64(main.runs), main.perCall(l), perRun, 100*perRun/run)
	}
	self := run - main.layersUs()
	fmt.Printf("  %-20s %10s %14s %12.2f %7.2f%%\n", "layers total", "", "", main.layersUs(), 100*main.layersUs()/run)
	fmt.Printf("  %-20s %10s %14s %12.2f %7.2f%%\n", "sim.self_us", "", "", self, 100*self/run)
	fmt.Printf("  %-20s %10s %14s %12.2f %7.2f%%\n", "sim.run_us", "", "", run, 100.0)
	if self < 0 {
		fmt.Printf("  WARNING: sim.self_us is negative: the layer spans cost more than the untraced run\n")
	}
	fmt.Printf("  tracing overhead: traced replay %.2f us/run vs untraced %.2f us/run (%+.1f%%);\n",
		main.tracedUs, main.untracedUs, 100*(main.tracedUs/main.untracedUs-1))
	fmt.Printf("  each row's time/call has the recorder's calibrated %.1f ns per span removed\n", main.spanNs)
	fmt.Printf("  probe (%d %s requests; layers this workload does not cross):\n", probe.runs, modeName(probe.signal))
	for l := layer(0); l < numLayers; l++ {
		if probe.rows[l].calls == 0 || main.rows[l].calls > 0 {
			continue
		}
		fmt.Printf("  %-20s %10.1f %11.1f ns\n", layerNames[l],
			float64(probe.rows[l].calls)/float64(probe.runs), probe.perCall(l))
	}
}

// writeSpans dumps the recorded spans as tab-separated lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tstart_ns\tend_ns\tparent\trequest")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", layerNames[s.Name], s.Start, s.End, s.Parent, s.Req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
