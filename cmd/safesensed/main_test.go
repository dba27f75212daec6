package main

import (
	"errors"
	"math"
	"net"
	"strings"
	"syscall"
	"testing"
)

// TestRunRejectsForensicLatencyPct: run refuses a latency percentile
// outside [0, 100) at startup with an error naming the flag. The
// unusable listen address makes a run that skipped the check fail on
// listen instead of serving.
func TestRunRejectsForensicLatencyPct(t *testing.T) {
	for _, pct := range []float64{100, 150, -1, math.NaN()} {
		err := run(options{
			addr: "127.0.0.1:-1", maxCampaigns: 1, maxJobs: 1, maxBodyBytes: 1,
			logFormat: "text", forensicPct: pct,
		})
		if err == nil || !strings.Contains(err.Error(), "-forensic-latency-pct") {
			t.Errorf("-forensic-latency-pct %v: err = %v, want an error naming the flag", pct, err)
		}
	}
}

// TestRunFailsOnBusyAddr: run listens before it builds the service, so
// an address already in use fails start-up with the listen error.
func TestRunFailsOnBusyAddr(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = run(options{
		addr: ln.Addr().String(), maxCampaigns: 1, maxJobs: 1, maxBodyBytes: 1,
		logFormat: "text",
	})
	var opErr *net.OpError
	if !errors.As(err, &opErr) || opErr.Op != "listen" || !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("run on a busy address: err = %v, want the listen error (address in use)", err)
	}
}
