GO ?= go

# Minimum total statement coverage `make cover` enforces. Measured 83%
# at the time the gate was added; the floor leaves headroom for noise
# without letting coverage rot.
COVER_MIN ?= 78

.PHONY: all build test race race-hot vet fmt-check lint lint-self lint-json fuzz-smoke dist-smoke stream-smoke forensic-smoke profile-smoke bench bench-smoke bench-check bench-capture perf-baseline servebench-check cover loc check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# lint runs the repo's own stdlib-only analyzers (cmd/safesense-lint),
# deadcode included, plus go vet and the gofmt check — the full static
# gate.
lint: vet fmt-check
	$(GO) run ./cmd/safesense-lint ./...

# lint-self dogfoods the analyzers on the lint tree itself: path
# scoping off, so every analyzer (determinism, hotpathalloc, ctxflow,
# goroleak, ...) judges the analysis framework and call-graph builder.
lint-self:
	$(GO) run ./cmd/safesense-lint -ignore-paths internal/lint/...

# lint-json writes the machine-readable report (with timing breakdown)
# that CI uploads as an artifact.
lint-json:
	$(GO) run ./cmd/safesense-lint -json -timing ./... > lint-report.json

# race-hot focuses the race detector on the concurrent subsystems
# (worker pool, lock-free metrics, flight recorder, HTTP service) for a
# fast signal; `make race` still covers the whole module.
race-hot:
	$(GO) test -race ./internal/sim ./internal/campaign ./internal/dist ./internal/obs/... ./cmd/safesensed

# fuzz-smoke runs each fuzz target briefly so the corpora and oracles
# can't bit-rot; CI runs this on every push. -fuzzminimizetime=100x caps
# the minimizing of each new interesting input (default: up to 60 s), so
# the short budget goes to fuzzing. Longer local runs:
#   go test -fuzz=FuzzDecodeSpec -fuzztime=5m ./internal/campaign
FUZZ_TIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSpec -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=100x ./internal/campaign
	$(GO) test -run='^$$' -fuzz=FuzzRunSpec -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=100x ./internal/campaign
	$(GO) test -run='^$$' -fuzz=FuzzDecodeLease -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=100x ./internal/dist
	$(GO) test -run='^$$' -fuzz=FuzzSSEFrame -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=100x ./internal/obs/stream
	$(GO) test -run='^$$' -fuzz=FuzzDecodeCapture -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=100x ./internal/obs/forensic
	$(GO) test -run='^$$' -fuzz=FuzzReadShares -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=100x ./internal/obs/profile
	$(GO) test -run='^$$' -fuzz=FuzzFrequencies -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=100x ./internal/dsp/music

# dist-smoke is the distributed-execution gate: an in-process
# coordinator plus two pull workers shard a 64-job campaign over the
# HTTP API and the merged aggregate must be byte-identical to the
# single-node oracle. Runs under -race so the lease table's lock
# discipline is exercised against concurrent workers. It also runs the
# large-lease span test: a lease with more spans than one completion
# may ship must still stitch its dist.lease span, orphan-free, into the
# coordinator's campaign trace.
dist-smoke:
	$(GO) test -race -run='^(TestDistSmoke|TestLeaseSpanStitchedOnLargeLease)$$' -count=1 -v ./internal/dist

# stream-smoke is the live-observability gate: a coordinator plus two
# mid-lease-reporting workers run a 64-job campaign while an SSE client
# follows the stream endpoint; progress must be monotone, partial frames
# must decode as aggregates over a growing job count, and the terminal
# frame's aggregate must be byte-identical to the single-node oracle and
# to the last partial frame. Both stream routes serve through one function
# (campaign.ServeStream), so the local route's live and finished-campaign
# stream tests run here too. On each route a 4096-job campaign must keep
# to one event budget on a hub of the default ring size: exactly 31
# progress, 32 partial (each under 1 KiB) and one done frame, plus one
# flight frame per incident, whatever the lease size, and a replay from
# 0 after done must start at the campaign's first frame. Runs under
# -race so the hub's publish path is exercised against live subscribers.
stream-smoke:
	$(GO) test -race -run='^(TestStreamSmoke|TestCoordinatorStreamBounded)$$' -count=1 -v ./internal/dist
	$(GO) test -race -run='^(TestCampaignStreamLive|TestCampaignStreamFinished|TestCampaignStreamBounded)$$' -count=1 -v ./cmd/safesensed

# forensic-smoke is the anomaly-forensics gate: two workers run a
# collision-bearing sweep, the coordinator must end up with the
# anomaly captured in its forensic store (deduped across shard
# retries), replaying the capture must reproduce the stored flight
# timeline byte-for-byte, and the merged aggregate must stay
# byte-identical to the single-node oracle.
forensic-smoke:
	$(GO) test -race -run='^TestForensicSmoke$$' -count=1 -v ./internal/dist

# profile-smoke is the continuous-profiling gate: a signal-level
# root-MUSIC figure scenario runs under the CPU profiler with phase
# labels enabled, the capture is read by profile.ReadShares (the
# reader behind the phase-share gauge), and beat_extraction must come
# out as the largest labeled phase with shares summing to one. The
# shares land in profile-summary.json for the CI artifact.
profile-smoke:
	PROFILE_SMOKE_OUT=$(CURDIR)/profile-summary.json \
		$(GO) test -run='^TestProfileSmoke$$' -count=1 -v ./internal/sim

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke compiles and runs every benchmark exactly once so they
# can't bit-rot; CI runs this on every push. The figure/kernel/campaign
# benchmarks resolve against the fixed-seed scenario registry in
# internal/perf/suite, so the smoke run is deterministic at the domain
# level (timings vary, results never do).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# servebench-check vets and tests the served-path benchmark module
# (servebench/, its own go.mod), which imports campaign, dist, forensic,
# sim and radar: an API change there fails here, not in the benchmark.
servebench-check:
	cd servebench && $(GO) vet ./... && $(GO) test ./...

# bench-check is the statistical regression gate: it measures the
# registered perf suite fresh and compares it against the committed
# baseline (perf/baseline.json) with a Mann-Whitney significance test,
# failing on any unwaived scenario whose median worsened significantly
# beyond PERF_THRESHOLD percent. Exempt a scenario with a
# `safesense:perf-waiver <scenario> <reason>` line in perf/waivers.txt.
# The threshold is deliberately wide: shared CI boxes produce 10-20%
# swings on their own; a real regression (2x, 3x) clears it easily.
PERF_THRESHOLD ?= 30
bench-check:
	$(GO) run ./cmd/safesense-perf check -threshold $(PERF_THRESHOLD) -save perf/BENCH_ci.json

# bench-capture appends the next BENCH_<n>.json trajectory document.
bench-capture:
	$(GO) run ./cmd/safesense-perf run -dir perf

# perf-baseline re-captures the committed baseline (run on a quiet
# machine after an intentional perf change, then commit the file).
perf-baseline:
	$(GO) run ./cmd/safesense-perf run -out perf/baseline.json

# cover runs the suite with atomic coverage and fails when total
# statement coverage drops below COVER_MIN percent.
cover:
	$(GO) test ./... -coverprofile=coverage.out -covermode=atomic
	@total="$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' \
		|| { echo "coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; }

# loc prints the non-test and test Go line counts of the tracked files,
# lint fixtures and the servebench module excluded: the net-line figure
# each change reports.
loc:
	@files="$$(git ls-files '*.go' | grep -v -e '^internal/lint/testdata/' -e '^servebench/')"; \
	echo "non-test: $$(echo "$$files" | grep -v '_test\.go$$' | xargs cat | wc -l)"; \
	echo "test:     $$(echo "$$files" | grep '_test\.go$$' | xargs cat | wc -l)"

check: build lint test race cover
