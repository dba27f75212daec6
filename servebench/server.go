package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// proc is one running safesensed process.
type proc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *tailWriter
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// tailWriter keeps the last few KiB a process wrote, for error reports.
type tailWriter struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4 << 10

func (t *tailWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 2*tailBytes {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailBytes:]...)
	}
	return len(p), nil
}

func (t *tailWriter) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buf
	if len(b) > tailBytes {
		b = b[len(b)-tailBytes:]
	}
	return string(b)
}

// freeAddr picks a loopback port the kernel reports unused.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startProc launches the service binary on a fresh loopback port.
func startProc(bin string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &proc{base: "http://" + addr, log: &tailWriter{}, done: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stdout = p.log
	p.cmd.Stderr = p.log
	// The service must not outlive the benchmark, even if it crashes.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop asks the process to shut down and waits until it has exited,
// killing it if it overstays.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// pollGap spaces start-up polls; it bounds how late set-up time reads.
const pollGap = 200 * time.Microsecond

// probe is the health-check client: no keep-alive, so a probe leaves no
// connection the service would wait out at shutdown.
var probe = &http.Client{
	Timeout:   2 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// waitHealthy polls /healthz until it answers 200.
func (p *proc) waitHealthy(deadline time.Duration) error {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		select {
		case <-p.done:
			return fmt.Errorf("service exited during start-up (%v):\n%s", p.err, p.log)
		default:
		}
		resp, err := probe.Get(p.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(pollGap)
	}
	return fmt.Errorf("service not healthy after %v:\n%s", deadline, p.log)
}

// cpuTicks returns the process's utime+stime in clock ticks.
func (p *proc) cpuTicks() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it start
	// at the last ')'.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat: %q", s)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return ut + st, nil
}

// peakRSSKiB returns VmHWM, the process's peak resident set.
func (p *proc) peakRSSKiB() (int64, error) { return p.statusKiB("VmHWM:") }

// rssKiB returns VmRSS, the process's current resident set.
func (p *proc) rssKiB() (int64, error) { return p.statusKiB("VmRSS:") }

// statusKiB reads one kB-valued field of /proc/<pid>/status.
func (p *proc) statusKiB(field string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, p.cmd.Process.Pid)
}

// gcCycles reads the go_gc_cycles gauge from the service's /metrics.
func (p *proc) gcCycles() (float64, error) {
	resp, err := probe.Get(p.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "go_gc_cycles "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no go_gc_cycles on /metrics")
}

// cluster is the set of service processes one workload talks to: one
// safesensed, or a coordinator plus one joined worker.
type cluster struct {
	procs []*proc
	base  string // the process the load generator addresses
}

func (c *cluster) stop() {
	// Workers first, so none is mid-lease when its coordinator goes.
	for i := len(c.procs) - 1; i >= 0; i-- {
		c.procs[i].stop()
	}
}

func (c *cluster) cpuTicks() (int64, error) {
	var sum int64
	for _, p := range c.procs {
		t, err := p.cpuTicks()
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

func (c *cluster) peakRSSKiB() (int64, error) { return c.sumKiB((*proc).peakRSSKiB) }

func (c *cluster) rssKiB() (int64, error) { return c.sumKiB((*proc).rssKiB) }

func (c *cluster) sumKiB(read func(*proc) (int64, error)) (int64, error) {
	var sum int64
	for _, p := range c.procs {
		v, err := read(p)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

func (c *cluster) gcCycles() (float64, error) {
	var sum float64
	for _, p := range c.procs {
		v, err := p.gcCycles()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// startCluster launches the workload's processes and returns once they
// can serve it, with the set-up time: exec to the first healthy
// /healthz, and for campaign_dist until the joined worker shows in
// /v1/fleet.
func startCluster(bin string, w workload, workers int) (*cluster, time.Duration, error) {
	t0 := time.Now()
	args := []string{"-workers", strconv.Itoa(workers)}
	if w.dist {
		args = append(args, "-lease-jobs", strconv.Itoa(leaseJobs))
	}
	coord, err := startProc(bin, args...)
	if err != nil {
		return nil, 0, err
	}
	c := &cluster{procs: []*proc{coord}, base: coord.base}
	if err := coord.waitHealthy(30 * time.Second); err != nil {
		c.stop()
		return nil, 0, err
	}
	if !w.dist {
		return c, time.Since(t0), nil
	}
	worker, err := startProc(bin, "-join", coord.base, "-workers", strconv.Itoa(workers),
		"-poll-interval", "5ms", "-progress-interval", "10ms")
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	c.procs = append(c.procs, worker)
	// A worker first shows in the fleet when it pulls a lease, so give
	// it a one-job campaign.
	if _, err := postJSON(probe, coord.base+"/v1/dist/campaigns",
		map[string]any{"spec": map[string]any{"steps": 301}}, http.StatusAccepted); err != nil {
		c.stop()
		return nil, 0, err
	}
	end := time.Now().Add(30 * time.Second)
	for time.Now().Before(end) {
		var fleet struct {
			Workers []struct{ ID string } `json:"workers"`
		}
		if err := getJSON(probe, coord.base+"/v1/fleet", &fleet); err != nil {
			c.stop()
			return nil, 0, err
		}
		if len(fleet.Workers) > 0 {
			return c, time.Since(t0), nil
		}
		time.Sleep(pollGap)
	}
	c.stop()
	return nil, 0, fmt.Errorf("worker never joined the fleet:\n%s", worker.log)
}

// postJSON posts v and returns the response body, requiring status want.
func postJSON(client *http.Client, url string, v any, want int) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, data)
	}
	return data, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// countingDialer counts the TCP connections the load generator opens.
type countingDialer struct {
	d     net.Dialer
	mu    sync.Mutex
	conns int
}

func (cd *countingDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := cd.d.DialContext(ctx, network, addr)
	if err == nil {
		cd.mu.Lock()
		cd.conns++
		cd.mu.Unlock()
	}
	return c, err
}

func (cd *countingDialer) count() int {
	cd.mu.Lock()
	defer cd.mu.Unlock()
	return cd.conns
}
