GO ?= go

.PHONY: check vet lint verify-reads sarif build test race fleet-race trace-race bench smoke-load smoke-serve smoke-trace smoke-scenario perf-smoke tables loc

# check runs every CI gate in one local command (CI runs each as its own
# step): vet, the repository's own analyzers, build everything, then the
# full test suite under the race detector (the engine, core and monitor
# packages are concurrent by construction, so -race is not optional), the
# dynamic declared-reads oracle, and finally the small-N load-harness
# smoke replays in both sweep and push modes plus the tracing-overhead
# gate, then the fleet-evaluation benchmark's own tests. fleet-race is
# part of race via ./..., listed separately for a focused re-run.
check: vet lint build race verify-reads smoke-load smoke-serve smoke-trace smoke-scenario perf-smoke

vet:
	$(GO) vet ./...

# lint runs the seven repository analyzers (spanend, directcheck,
# ctxprobe, clockuse, lockedchan, reqmeta, keyreads) over every package
# including tests. See README "Static analysis" for what each enforces
# and how to suppress a finding with a recorded reason.
lint:
	$(GO) run ./cmd/vdolint ./...

# verify-reads is the dynamic counterpart of the keyreads analyzer: it
# executes every shipped catalogue entry on fresh simulated hosts with a
# read recorder attached and fails on any mismatch between recorded and
# declared state keys, then replays the scenario corpus in both modes
# with the same oracle over each fleet's final catalogues.
verify-reads:
	$(GO) run ./cmd/vdolint -dynamic
	$(GO) run ./cmd/vdo-scenario -run examples/scenarios -both -verify-reads

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
# incremental, the all-cached fallback sweep, and one down host against
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
# small-N churn streamed through the dependency index, asserting the
# tentpole property — detection p99 strictly below the sweep interval.
smoke-serve:
	$(GO) run -race ./cmd/vdo-load -hosts 500 -duration 2s -push -window 50ms -sweep-every 500ms -rate 200 -shards 4 -workers 2 -seed 1 -assert-p99 500ms

# smoke-scenario replays the timed incident-scenario corpus in both
# evaluation modes — every scenario must pass its assertions and the
# sweep/push final verdicts must agree — then fuzzes 25 random
# mutation-grammar walks (pinned seed) through the same cross-mode
# equivalence oracle.
smoke-scenario:
	$(GO) run ./cmd/vdo-scenario -run examples/scenarios -both
	$(GO) run ./cmd/vdo-scenario -fuzz 25 -seed 1

# smoke-trace is the tracing-overhead regression gate: the best of 5
# traced 4-shard sweeps of 16 probe-delayed hosts must stay within 25%
# of the best of 5 untraced ones (TestTracingOverheadGate, which skips
# itself under -race, so race does not cover it).
smoke-trace:
	$(GO) test -run '^TestTracingOverheadGate$$' -count=1 -v ./internal/fleet/

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
