// Command safesensed serves the safesense simulator over HTTP/JSON: single
// scenario runs, asynchronous Monte Carlo campaign sweeps, distributed
// campaign coordination, metrics, traces, and health.
//
// Endpoints:
//
//	GET  /healthz             liveness, store occupancy, uptime, build info
//	GET  /metrics             Prometheus text exposition (with exemplars)
//	GET  /debug/traces        recent traces (most recent 100 by default,
//	                          ?limit=N up to 1000); ?trace=<id> for one
//	                          span tree
//	POST /v1/run              run one scenario, return the JSON summary
//	                          (incl. the flight-recorder event timeline)
//	POST /v1/campaigns        submit a sweep; returns {"id": ...} (202)
//	GET  /v1/campaigns/{id}   poll progress (+ runs/sec and ETA while
//	                          running); summary appears when done
//	GET  /v1/campaigns/{id}/stream  live SSE feed: progress, the live
//	                          aggregate (every jobs/32), per-job flight events,
//	                          and a terminal "done" event carrying the
//	                          final aggregate; supports Last-Event-ID
//	                          resume (`curl -N` friendly)
//	GET  /v1/campaigns/{id}/events  campaign audit log (lifecycle + per-job
//	                          collisions and detector confusion)
//	DELETE /v1/campaigns/{id} cancel a running sweep
//	GET  /v1/anomalies        list forensic anomaly captures (most recent
//	                          first; ?kind= ?campaign= ?attack= ?spec_hash=
//	                          filters, ?limit= ?offset= paging)
//	GET  /v1/anomalies/{hash} one capture's full evidence: grid point,
//	                          flight timeline, anomaly state dumps
//	POST /v1/anomalies/{hash}/replay  re-run the captured scenario from
//	                          its seed and diff the fresh flight timeline
//	                          against the stored one (determinism check)
//	GET  /v1/fleet            fleet view: worker liveness and throughput,
//	                          per-campaign lease counts, stream-hub health
//	POST /v1/dist/campaigns   submit a sweep for distributed execution:
//	                          the grid is split into leases that workers
//	                          pull, run, and complete with partial
//	                          aggregates (byte-identical to a local run)
//	GET  /v1/dist/campaigns/{id}  lease table, per-worker progress,
//	                          forwarded flight events, summary when done
//	GET  /v1/dist/campaigns/{id}/stream  live SSE feed of a distributed
//	                          campaign: lease transitions, mid-lease
//	                          progress and the live aggregate, flight
//	                          events, terminal aggregate
//	POST /v1/dist/lease       worker pull: acquire the next lease
//	POST /v1/dist/lease/progress  heartbeat: extend a held lease and
//	                          stream its partial snapshot (410 = lost)
//	POST /v1/dist/lease/complete  deliver a shard's partial aggregate
//	GET  /v1/profiles         continuous-profiler captures, newest first,
//	                          each with its phase CPU shares (404 when
//	                          -profile-interval is unset)
//	GET  /v1/profiles/{id}    one capture's raw pprof bytes, for
//	                          `go tool pprof`
//
// Every request gets a trace: a sane inbound X-Request-ID is honored as
// the trace ID (one is minted otherwise), echoed on the response, stamped
// on every log record and error payload, and resolvable at /debug/traces.
// Distributed campaigns reuse the submitting request's trace ID across
// nodes, so one ID resolves the whole fan-out on coordinator and workers.
//
// Usage:
//
//	safesensed [-addr :8077] [-workers N] [-max-campaigns N] [-max-jobs N]
//	           [-max-body-bytes N] [-log-format text|json] [-pprof-addr ADDR]
//	           [-forensic-dir DIR] [-forensic-budget-bytes N]
//	           [-forensic-latency-pct P]
//	           [-lease-jobs N] [-lease-ttl D] [-dist-checkpoint FILE]
//	           [-join URL] [-worker-id ID] [-poll-interval D]
//	           [-progress-interval D]
//	           [-profile-interval D] [-profile-window D]
//	           [-profile-budget-bytes N]
//
// With -join, the process additionally runs a distributed-campaign
// worker: it pulls leases from the coordinator at URL, executes them on
// the local engine, and pushes back partial aggregates, while still
// serving its own /metrics and /debug/traces for observability. With
// -dist-checkpoint, the coordinator logs submissions and completed
// leases to FILE (JSONL, append-only) and replays it at startup, so a
// restart resumes distributed campaigns without recomputing finished
// shards.
//
// The service is stdlib-only, keeps campaigns in a bounded in-memory
// store, logs structured records via log/slog, and shuts down gracefully
// on SIGINT/SIGTERM. When -pprof-addr is set, net/http/pprof and
// /debug/vars are served on that address on a separate mux, so profiling
// is never exposed on the public listener.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"safesense/internal/dist"
	"safesense/internal/obs/forensic"
	"safesense/internal/obs/profile"
	"safesense/internal/obs/stream"
	"safesense/internal/sim"
)

// options carries the parsed command line into run.
type options struct {
	addr         string
	pprofAddr    string
	logFormat    string
	workers      int
	maxCampaigns int
	maxJobs      int
	maxBodyBytes int64

	// Forensic anomaly store.
	forensicDir    string
	forensicBudget int64
	forensicPct    float64

	// Coordinator side.
	leaseJobs  int
	leaseTTL   time.Duration
	checkpoint string

	// Worker side.
	join             string
	workerID         string
	pollInterval     time.Duration
	progressInterval time.Duration

	// Continuous profiler.
	profileInterval time.Duration
	profileWindow   time.Duration
	profileBudget   int64
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8077", "listen address")
	flag.IntVar(&o.workers, "workers", 0, "worker pool size per campaign (0 = GOMAXPROCS)")
	flag.IntVar(&o.maxCampaigns, "max-campaigns", 64, "bounded campaign store size")
	flag.IntVar(&o.maxJobs, "max-jobs", 100000, "reject campaigns that expand beyond this many runs")
	flag.Int64Var(&o.maxBodyBytes, "max-body-bytes", 1<<20, "reject request bodies larger than this (413)")
	flag.StringVar(&o.logFormat, "log-format", "text", "log output format: text or json")
	flag.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof and /debug/vars on this address (empty = disabled; keep it private)")
	flag.StringVar(&o.forensicDir, "forensic-dir", "", "persist anomaly captures to JSONL segments in this directory (empty = in-memory only)")
	flag.Int64Var(&o.forensicBudget, "forensic-budget-bytes", 0, "resident anomaly-capture budget in bytes (0 = 64 MiB default)")
	flag.Float64Var(&o.forensicPct, "forensic-latency-pct", 0, "also capture jobs slower than this percentile of recent jobs, e.g. 99 (0 = disabled)")
	flag.IntVar(&o.leaseJobs, "lease-jobs", 0, "distributed campaigns: jobs per lease (0 = coordinator default)")
	flag.DurationVar(&o.leaseTTL, "lease-ttl", 0, "distributed campaigns: lease lifetime before reassignment (0 = coordinator default)")
	flag.StringVar(&o.checkpoint, "dist-checkpoint", "", "distributed campaigns: JSONL checkpoint file replayed at startup and appended while running")
	flag.StringVar(&o.join, "join", "", "also run a distributed-campaign worker pulling leases from this coordinator URL")
	flag.StringVar(&o.workerID, "worker-id", "", "worker identifier reported to the coordinator (default <hostname>-<pid>)")
	flag.DurationVar(&o.pollInterval, "poll-interval", 0, "worker idle wait between lease pulls (0 = worker default)")
	flag.DurationVar(&o.progressInterval, "progress-interval", 0, "worker mid-lease progress interval, also the lease heartbeat; capped at a third of the lease TTL (<= 0 = worker default)")
	flag.DurationVar(&o.profileInterval, "profile-interval", 0, "continuous profiler: time between CPU capture windows (0 = disabled)")
	flag.DurationVar(&o.profileWindow, "profile-window", 0, "continuous profiler: capture window length (0 = 10s default, clamped to the interval)")
	flag.Int64Var(&o.profileBudget, "profile-budget-bytes", 0, "resident profile-capture budget in bytes (0 = 32 MiB default)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "safesensed:", err)
		os.Exit(1)
	}
}

// newLogger builds the slog logger for the chosen -log-format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("-log-format must be text or json, got %q", format)
	}
}

// pprofMux builds the private profiling mux: the full net/http/pprof
// handler set plus expvar (where the obs registry is published). The
// runtime-profile handlers (allocs, heap, goroutine, block, mutex,
// threadcreate) are registered explicitly — the Index fallback alone
// only covers them when the default mux is used, and the delta forms
// (e.g. /debug/pprof/allocs?seconds=5) are the ones that matter for a
// long-running daemon. Query params are documented in the README.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, p := range []string{"allocs", "heap", "goroutine", "block", "mutex", "threadcreate"} {
		mux.Handle("/debug/pprof/"+p, pprof.Handler(p))
	}
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// startProfiler launches the continuous profiler when -profile-interval
// is set, returning the capture store the HTTP endpoints serve (nil
// when disabled). The goroutine exits when ctx is canceled and is
// drained through wg, so shutdown provably terminates it.
func startProfiler(ctx context.Context, o options, logger *slog.Logger, wg *sync.WaitGroup) *profile.Store {
	if o.profileInterval <= 0 {
		return nil
	}
	store := profile.NewStore(profile.StoreOptions{
		BudgetBytes: o.profileBudget,
		Log:         logger.With("subsys", "profile"),
	})
	prof := profile.NewProfiler(profile.ProfilerOptions{
		Interval: o.profileInterval,
		Window:   o.profileWindow,
		Store:    store,
		Log:      logger.With("subsys", "profile"),
		Phases:   sim.PhaseNames(),
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = prof.Run(ctx)
	}()
	return store
}

// newCoordinator builds the dist coordinator for this process, replaying
// and then appending the checkpoint file when one is configured. The
// returned closer flushes the checkpoint handle at shutdown.
func newCoordinator(o options, logger *slog.Logger, hub *stream.Hub, store *forensic.Store) (*dist.Coordinator, func(), error) {
	coord := dist.NewCoordinator(dist.Config{
		LeaseJobs: o.leaseJobs,
		LeaseTTL:  o.leaseTTL,
		Log:       logger.With("subsys", "dist"),
		Streams:   hub,
		Forensic:  store,
	})
	if o.checkpoint == "" {
		return coord, func() {}, nil
	}
	f, err := os.Open(o.checkpoint)
	switch {
	case err == nil:
		restoreErr := coord.Restore(f)
		f.Close()
		if restoreErr != nil {
			return nil, nil, fmt.Errorf("replaying -dist-checkpoint %s: %w", o.checkpoint, restoreErr)
		}
		logger.Info("dist checkpoint replayed", "file", o.checkpoint)
	case errors.Is(err, os.ErrNotExist):
		// First run: the append below creates it.
	default:
		return nil, nil, err
	}
	w, err := os.OpenFile(o.checkpoint, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	coord.AttachCheckpoint(w)
	return coord, func() { w.Close() }, nil
}

func run(o options) error {
	if o.maxCampaigns < 1 {
		return fmt.Errorf("-max-campaigns must be >= 1, got %d", o.maxCampaigns)
	}
	if o.maxJobs < 1 {
		return fmt.Errorf("-max-jobs must be >= 1, got %d", o.maxJobs)
	}
	if o.maxBodyBytes < 1 {
		return fmt.Errorf("-max-body-bytes must be >= 1, got %d", o.maxBodyBytes)
	}
	if !(o.forensicPct >= 0 && o.forensicPct < 100) {
		return fmt.Errorf("-forensic-latency-pct must be in [0, 100), got %g", o.forensicPct)
	}
	logger, err := newLogger(o.logFormat)
	if err != nil {
		return err
	}
	// Listen before building the service: a busy -addr fails first, and
	// connections that arrive while the rest starts up wait in the
	// kernel's accept backlog until Serve below answers them.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	// One hub carries every stream: local campaigns and the dist
	// coordinator publish to it, the SSE endpoints subscribe from it.
	hub := stream.NewHub(0)
	// One forensic store backs every capture path: local campaigns sink
	// into it, the coordinator merges worker-shipped captures into it,
	// and /v1/anomalies serves it.
	store, err := forensic.Open(forensic.Options{
		Dir:         o.forensicDir,
		BudgetBytes: o.forensicBudget,
		Log:         logger.With("subsys", "forensic"),
	})
	if err != nil {
		return err
	}
	defer store.Close()
	coord, closeCheckpoint, err := newCoordinator(o, logger, hub, store)
	if err != nil {
		return err
	}
	defer closeCheckpoint()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// workerWG drains every background goroutine (dist worker, continuous
	// profiler) at shutdown.
	var workerWG sync.WaitGroup
	profiles := startProfiler(ctx, o, logger, &workerWG)

	srv := NewServer(Config{
		Workers:            o.workers,
		MaxCampaigns:       o.maxCampaigns,
		MaxJobs:            o.maxJobs,
		MaxBodyBytes:       o.maxBodyBytes,
		Log:                logger,
		Dist:               coord,
		Streams:            hub,
		Forensic:           store,
		ForensicLatencyPct: o.forensicPct,
		Profiles:           profiles,
	})
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	if o.join != "" {
		w, err := dist.NewWorker(dist.WorkerConfig{
			Coordinator:      o.join,
			ID:               o.workerID,
			Jobs:             o.workers,
			PollInterval:     o.pollInterval,
			ProgressInterval: o.progressInterval,
			Log:              logger.With("subsys", "dist"),
		})
		if err != nil {
			return err
		}
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			_ = w.Run(ctx)
		}()
	}

	if o.pprofAddr != "" {
		ps := &http.Server{
			Addr:              o.pprofAddr,
			Handler:           pprofMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("pprof listening", "addr", o.pprofAddr)
			if err := ps.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server", "error", err.Error())
			}
		}()
		defer ps.Close()
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", ln.Addr().String())
		errc <- hs.Serve(ln)
	}()

	select {
	case err := <-errc:
		stop()
		workerWG.Wait()
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	srv.Drain()
	workerWG.Wait()
	return nil
}
