package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"safesense/internal/obs/stream"
)

// loadResult is what one measured window of closed-loop load produced.
type loadResult struct {
	attempted, failed int
	runs              int             // closed-loop runs the service completed
	window            time.Duration   // first send to last answer
	lat               []time.Duration // per operation, successful ones
	ends              []time.Duration // run_*: when each of lat ended, since the start
	opTicks           []int64         // service CPU ticks per campaign
	respBytes         int64           // body bytes read, all operations
	events            int             // SSE frames read, campaign workloads
	firstErr          error
	clientCPU         time.Duration // this process's user+system time
	conns             int           // TCP connections opened
}

func (lr *loadResult) fail(err error) {
	lr.failed++
	if lr.firstErr == nil {
		lr.firstErr = err
	}
}

// clientShare is the load generator's CPU use in cores over the window.
func (lr *loadResult) clientShare() float64 { return lr.clientCPU.Seconds() / lr.window.Seconds() }

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// newClient returns an HTTP client with one pooled connection per
// closed-loop client, and the dialer that counts them.
func newClient(clients int) (*http.Client, *countingDialer) {
	cd := &countingDialer{}
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			DialContext:         cd.DialContext,
			MaxIdleConnsPerHost: clients,
		},
	}, cd
}

// runAnswer is the part of the /v1/run response the oracle checks.
type runAnswer struct {
	Seed           int64 `json:"seed"`
	DetectedAt     int   `json:"detected_at"`
	FalsePositives int   `json:"false_positives"`
	FalseNegatives int   `json:"false_negatives"`
}

// driveRuns keeps `clients` closed-loop clients posting /v1/run from the
// stream until d has passed, checking every answer.
func driveRuns(base string, rs *runStream, clients int, d time.Duration) *loadResult {
	client, dialer := newClient(clients)
	defer client.CloseIdleConnections()
	var next atomic.Int64
	parts := make([]loadResult, clients)
	cpu0 := selfCPU()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(lr *loadResult) {
			defer wg.Done()
			lr.lat = make([]time.Duration, 0, 1<<14)
			lr.ends = make([]time.Duration, 0, 1<<14)
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := int(next.Add(1)-1) % len(rs.bodies)
				lr.attempted++
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/run", "application/json", bytes.NewReader(rs.bodies[i]))
				if err != nil {
					lr.fail(err)
					continue
				}
				buf.Reset()
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				el := time.Since(t0)
				lr.window = time.Since(start)
				lr.respBytes += int64(buf.Len())
				if err == nil {
					err = checkRun(resp.StatusCode, buf.Bytes(), rs.points[i].Seed)
				}
				if err != nil {
					lr.fail(err)
					continue
				}
				lr.runs++
				lr.lat = append(lr.lat, el)
				lr.ends = append(lr.ends, lr.window)
			}
		}(&parts[c])
	}
	wg.Wait()
	out := &loadResult{clientCPU: selfCPU() - cpu0, conns: dialer.count()}
	for _, p := range parts {
		out.window = max(out.window, p.window)
		out.attempted += p.attempted
		out.failed += p.failed
		out.runs += p.runs
		out.respBytes += p.respBytes
		out.lat = append(out.lat, p.lat...)
		out.ends = append(out.ends, p.ends...)
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	return out
}

// checkRun is the /v1/run oracle: every figure point is flagged at the
// paper's challenge instant with no false positive or negative.
func checkRun(status int, body []byte, seed int64) error {
	if status != http.StatusOK {
		return fmt.Errorf("/v1/run status %d: %s", status, body)
	}
	var a runAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("/v1/run answer: %w", err)
	}
	if a.Seed != seed || a.DetectedAt != paperDetectionStep || a.FalsePositives != 0 || a.FalseNegatives != 0 {
		return fmt.Errorf("/v1/run seed %d: got seed %d, detected_at %d, FP %d, FN %d; want detected_at %d, FP 0, FN 0",
			seed, a.Seed, a.DetectedAt, a.FalsePositives, a.FalseNegatives, paperDetectionStep)
	}
	return nil
}

// driveCampaigns submits the spec back to back, one in flight, until d
// has passed. Each campaign's terminal aggregate is read from its SSE
// stream and must equal want byte for byte. The service's CPU ticks
// are read around every campaign.
func driveCampaigns(c *cluster, w workload, spec any, jobs int, want []byte, d time.Duration) *loadResult {
	client, dialer := newClient(2)
	defer client.CloseIdleConnections()
	out := &loadResult{}
	cpu0 := selfCPU()
	start := time.Now()
	for time.Since(start) < d {
		out.attempted++
		tick0, err := c.cpuTicks()
		if err != nil {
			out.fail(err)
			break
		}
		t0 := time.Now()
		n, frames, err := oneCampaign(client, c.base, w, spec, want)
		el := time.Since(t0)
		tick1, cerr := c.cpuTicks()
		out.respBytes += n
		out.events += frames
		if err = errors.Join(err, cerr); err != nil {
			out.fail(err)
			continue
		}
		out.lat = append(out.lat, el)
		out.opTicks = append(out.opTicks, tick1-tick0)
		out.runs += jobs
	}
	out.window = time.Since(start)
	out.clientCPU = selfCPU() - cpu0
	out.conns = dialer.count()
	return out
}

// oneCampaign submits one sweep and follows its stream to the terminal
// frame, returning the bytes and frames read.
func oneCampaign(client *http.Client, base string, w workload, spec any, want []byte) (int64, int, error) {
	submit, streamFmt := "/v1/campaigns", "/v1/campaigns/%s/stream"
	body := map[string]any{"spec": spec, "discard_outcomes": true}
	if w.dist {
		submit, streamFmt = "/v1/dist/campaigns", "/v1/dist/campaigns/%s/stream"
		body = map[string]any{"spec": spec, "lease_jobs": leaseJobs}
	}
	ack, err := postJSON(client, base+submit, body, http.StatusAccepted)
	if err != nil {
		return 0, 0, err
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(ack, &sub); err != nil {
		return 0, 0, fmt.Errorf("submit answer: %w", err)
	}
	resp, err := client.Get(base + fmt.Sprintf(streamFmt, sub.ID))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("stream %s: status %d", sub.ID, resp.StatusCode)
	}
	cr := &countingReader{r: resp.Body}
	dec := stream.NewDecoder(cr)
	frames := 0
	for {
		f, err := dec.Next()
		if err != nil {
			return cr.n, frames, fmt.Errorf("stream %s ended before done: %w", sub.ID, err)
		}
		frames++
		if f.Event != "done" {
			continue
		}
		var done struct {
			Status    string          `json:"status"`
			Aggregate json.RawMessage `json:"aggregate"`
		}
		if err := json.Unmarshal(f.Data, &done); err != nil {
			return cr.n, frames, fmt.Errorf("done frame of %s: %w", sub.ID, err)
		}
		if done.Status != "" && done.Status != "done" {
			return cr.n, frames, fmt.Errorf("campaign %s ended %q", sub.ID, done.Status)
		}
		if !bytes.Equal(done.Aggregate, want) {
			return cr.n, frames, fmt.Errorf("campaign %s aggregate differs from the in-process run:\n got %s\nwant %s",
				sub.ID, done.Aggregate, want)
		}
		// Drain so the connection returns to the pool.
		_, _ = io.Copy(io.Discard, cr)
		return cr.n, frames, nil
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
