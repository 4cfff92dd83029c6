GO ?= go

.PHONY: check vet lint verify-reads sarif build test race alloc-gates fleet-race trace-race bench smoke-load smoke-serve smoke-trace smoke-scenario perf-smoke tables loc

# check runs every CI gate in one local command (CI runs each as its own
# step): vet, the repository's own analyzers, build everything, then the
# full test suite under the race detector (the engine, core and monitor
# packages are concurrent by construction, so -race is not optional), the
# allocation and heap gates that -race skips, the dynamic declared-reads
# oracle, the small-N load-harness smoke replays in both sweep and push
# modes, the tracing-overhead gate and the scenario corpus and fuzzer,
# then the fleet-evaluation benchmark's own tests. fleet-race is part of
# race via ./..., listed separately for a focused re-run.
check: vet lint build race alloc-gates verify-reads smoke-load smoke-serve smoke-trace smoke-scenario perf-smoke

vet:
	$(GO) vet ./...

# lint first fails if gofmt would reformat any Go file in the tree
# (analyzer fixtures under testdata included), then runs the seven
# repository analyzers (spanend, directcheck, ctxprobe, clockuse,
# lockedchan, reqmeta, keyreads) over every package including tests.
# See README "Static analysis" for what each enforces and how to
# suppress a finding with a recorded reason.
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/vdolint ./...

# verify-reads is the dynamic counterpart of the keyreads analyzer: it
# executes every shipped catalogue entry on fresh simulated hosts with a
# read recorder attached and fails on any mismatch between recorded and
# declared state keys, then replays the scenario corpus with the same
# oracle over each fleet's final catalogues.
verify-reads:
	$(GO) run ./cmd/vdolint -dynamic
	$(GO) run ./cmd/vdo-scenario -run examples/scenarios -verify-reads

# sarif writes the static findings as a SARIF 2.1.0 log for
# code-scanning upload; the exit code is ignored here (the lint target
# is the gate), so the log is produced even when findings exist.
sarif:
	$(GO) run ./cmd/vdolint -sarif ./... > vdolint.sarif || true

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# alloc-gates runs, without the race detector, the allocation and heap
# gates that skip themselves under -race because its instrumentation
# inflates both: the retained heap of a primed fleet
# (TestPrimedFleetHeapPerHost), its growth per churn event once warm,
# with and without a Streamer (TestWatchedFleetRetainedBytesPerEvent, at
# most 8 B), and its growth per join/leave cycle
# (TestJoinLeaveRetainedBytesPerCycle, at most 512 B), the all-cached
# sweep's allocations and bytes per host (TestCachedSweepAllocsPerHost,
# TestCachedSweepBytesPerHost, at most 96 B), the allocation-free warm
# target list (TestWarmTargetsAllocsPerCall), the push and sweep
# replays' bytes per event (TestReplayBytesPerEvent, at most 1,000 and
# 1,600 B), the catalogue runner's bytes per run
# (TestRunEngineWritesEachOutcomeOnce), the allocations per keyed event
# of a host mutation (TestWriteAllocsPerKeyedEvent) and of delivering
# and planning a flush (TestFlushPlanAllocsPerKeyedEvent), and the
# allocation-free host read (TestReadAllocsPerKey).
alloc-gates:
	$(GO) test -count=1 -run 'HeapPerHost|AllocsPer|BytesPer|OutcomeOnce' ./internal/core/ ./internal/host/ ./internal/fleet/ ./internal/loadgen/

# fleet-race exercises just the concurrency-heavy fleet paths under the
# race detector (already covered by race; this is the quick loop).
fleet-race:
	$(GO) test -race ./internal/fleet/ ./internal/engine/ ./internal/core/ ./cmd/fleetaudit/

# trace-race runs the telemetry-focused tests under the race detector:
# spans are emitted concurrently from shard goroutines and engine workers,
# so the tracer's locking is load-bearing.
trace-race:
	$(GO) test -race -run 'Trace|Telemetry|Span' ./internal/telemetry/ ./internal/fleet/ ./internal/engine/ ./internal/core/ ./internal/monitor/ ./cmd/fleetaudit/

# bench is the one benchmark command. It runs the Go micro-benchmarks
# with -benchmem — fleet sweeps (probe-delayed, skewed, dedup,
# incremental, the all-cached sweep, and one down host against
# one up host), catalogue dispatch,
# tracing overhead, trace-store ingestion and queries, load-harness
# synthesis and replay — then every root experiment benchmark once (a
# correctness smoke, not a timing run), and finally the end-to-end
# fleet-evaluation benchmark, cmd/vdo-perf, which writes its record
# under .bench_build/ (see cmd/vdo-perf/README.md and BENCHMARK.json).
bench:
	$(GO) test -run=^$$ -bench='BenchmarkFleet|BenchmarkCatalog|BenchmarkTelemetry|BenchmarkStore|BenchmarkQuery|BenchmarkLoad' -benchmem ./internal/fleet/ ./internal/telemetry/ ./internal/telemetry/store/ ./internal/loadgen/ .
	$(GO) test -run=^$$ -bench=. -benchtime=1x .
	bash cmd/vdo-perf/run.sh

# smoke-load is the small-N load-harness replay CI runs: 500 hosts, 2s
# of virtual churn on the deterministic clock. It completes in seconds
# and fails loudly if synthesis, churn or the driver regress.
smoke-load:
	$(GO) run ./cmd/vdo-load -hosts 500 -duration 2s -sweep-every 250ms -rate 200 -shards 4 -workers 2 -seed 1

# smoke-serve is the push-mode smoke under the race detector: the same
# small-N churn streamed through the dependency index, with no sweep
# behind the flushes, asserting that push beats the sweep floor —
# detection p99 strictly below 500ms, the sweep interval of the batch
# replay (vdo-load's default -sweep-every). -metrics runs the replay's
# load.* registry path under -race too.
smoke-serve:
	$(GO) run -race ./cmd/vdo-load -hosts 500 -duration 2s -push -window 50ms -rate 200 -shards 4 -workers 2 -seed 1 -assert-p99 500ms -metrics

# smoke-scenario replays the timed incident-scenario corpus — every
# scenario must pass its assertions, and each run's push-evaluated final
# verdicts must equal a fresh full sweep of its final fleet — then fuzzes
# 25 random mutation-grammar walks (pinned seed) through the same truth
# check, and fuzzes the TEARS G/A evaluator against its brute-force
# reference for 10 s (FuzzEvaluateGA).
smoke-scenario:
	$(GO) run ./cmd/vdo-scenario -run examples/scenarios
	$(GO) run ./cmd/vdo-scenario -fuzz 25 -seed 1
	$(GO) test -run '^$$' -fuzz '^FuzzEvaluateGA$$' -fuzztime 10s ./internal/tears/

# smoke-trace is the tracing-overhead regression gate, counted rather
# than timed: a traced sweep of 16 hosts must emit exactly its span
# budget (one host span, one check and one attempt span per check) and
# allocate at most 16 objects more than an untraced one
# (TestTracingOverheadGate; under -race only the span count runs). Its
# fixture shows the budget catches an extra span per check. The
# wall-clock overhead is telemetry.overhead_pct in cmd/vdo-perf.
smoke-trace:
	$(GO) test -run '^TestTracingOverheadGate' -count=1 -v ./internal/fleet/

# perf-smoke runs the tests of cmd/vdo-perf, a module of its own that the
# root ./... patterns do not reach: a 200-host smoke run of every
# workload through the verdict oracle, the oracle's stale-verdict
# self-test, and the -compare regression rules. About 10 s.
perf-smoke:
	cd cmd/vdo-perf && $(GO) test ./...

# tables regenerates every EXPERIMENTS.md table on stdout.
tables:
	$(GO) run ./cmd/vdo-bench -markdown

# loc prints the non-test, non-generated Go line count (wc -l) of each
# package in LOC_PKGS — by default the evaluation layers and every
# command — and their total: the size measure simplicity changes report
# (EXPERIMENTS.md E22). Not part of check. Point it at another checkout
# with make -C DIR -f $(CURDIR)/Makefile loc.
LOC_PKGS ?= internal/fleet internal/scenario internal/loadgen internal/report internal/host internal/telemetry $(patsubst %/,%,$(sort $(dir $(wildcard cmd/*/*.go))))

loc:
	@total=0; for d in $(LOC_PKGS); do \
		n=$$(for f in $$d/*.go; do \
			case $$f in *_test.go) continue;; esac; \
			grep -q '^// Code generated .* DO NOT EDIT\.$$' $$f || cat $$f; \
		done | wc -l); \
		printf '%6d  %s\n' $$n $$d; total=$$((total + n)); \
	done; printf '%6d  total\n' $$total
