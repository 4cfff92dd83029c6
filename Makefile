GO ?= go

.PHONY: check vet lint verify-reads sarif build test race fleet-race trace-race bench bench-fleet bench-steal bench-telemetry bench-trace bench-load bench-serve smoke-load smoke-serve smoke-trace smoke-scenario perf-smoke tables

# check is the CI gate: vet, the repository's own analyzers, build
# everything, then the full test suite under the race detector (the
# engine, core and monitor packages are concurrent by construction, so
# -race is not optional), the dynamic declared-reads oracle, and finally
# the small-N load-harness smoke replays in both sweep and push modes
# plus the tracing-overhead gate, then the fleet-evaluation benchmark's
# own tests. fleet-race is part of race via ./..., listed separately for
# a focused re-run.
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

# bench-telemetry runs the tracing-overhead benchmarks (the disabled path
# must hold 0 allocs/op, the enabled path 0 steady-state allocs) and
# regenerates the BENCH_telemetry.json record.
bench-telemetry:
	$(GO) test -run=^$$ -bench='BenchmarkTelemetry' -benchmem ./internal/telemetry/ ./internal/fleet/
	$(GO) run ./cmd/fleetaudit -bench-telemetry -o BENCH_telemetry.json

# bench-trace runs the trace-store benchmarks (pooled ingestion, query
# scans over a full ring) and regenerates the BENCH_trace.json record:
# Offer/tracer ingestion throughput, query latency percentiles, and the
# store-as-sink sweep overhead.
bench-trace:
	$(GO) test -run=^$$ -bench='BenchmarkStore|BenchmarkQuery' -benchmem ./internal/telemetry/store/
	$(GO) run ./cmd/fleetaudit -bench-trace -o BENCH_trace.json

# bench-steal runs the scheduler-focused pair: skewed-fleet static vs
# work-stealing, and dedup off vs on.
bench-steal:
	$(GO) test -run=^$$ -bench='BenchmarkFleetSkewedSweep|BenchmarkFleetDedupSweep' -benchmem ./internal/fleet/

# bench runs the experiment benchmarks once each (correctness smoke, not a
# timing run), then the fleet + catalogue timing benchmarks with -benchmem
# (BenchmarkFleetCachedSweep among them: the all-cached fallback sweep
# with no probe delay) and regenerates the BENCH_fleet.json perf record.
bench: bench-fleet
	$(GO) test -run=^$$ -bench=. -benchtime=1x .

bench-fleet:
	$(GO) test -run=^$$ -bench='BenchmarkFleet|BenchmarkCatalog' -benchmem ./internal/fleet/ .
	$(GO) run ./cmd/fleetaudit -bench -o BENCH_fleet.json

# bench-load runs the mega-fleet load-harness benchmarks (synthesis
# cost, end-to-end replay) and regenerates the BENCH_load.json record:
# 10k synthesized hosts replayed at 500/2000/8000 churn events per
# virtual second while incremental sweeps measure change->verdict
# detection latency.
bench-load:
	$(GO) test -run=^$$ -bench='BenchmarkLoad' -benchmem ./internal/loadgen/
	$(GO) run ./cmd/vdo-load -bench -o BENCH_load.json

# bench-serve regenerates the BENCH_serve.json record: sweep vs push on
# the identical seeded event stream (10k hosts, 500/2000 ev/s), the
# change->verdict latency comparison the streaming evaluator exists for.
bench-serve:
	$(GO) run ./cmd/vdo-load -bench-serve -o BENCH_serve.json

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

# smoke-trace is the tracing-overhead regression gate: the telemetry
# overhead matrix (best of 5 per cell) must keep the 4-shard spans
# overhead under 25% of the untraced sweep, or the target exits 1. The
# sweep under test is ~8ms of mostly sleep, so single-digit percentages
# are noise on a loaded runner; 25% still catches the 31-33% overhead
# the per-collector sharding removed. The JSON goes to /dev/null;
# bench-trace / bench-telemetry write the real records.
smoke-trace:
	$(GO) run ./cmd/fleetaudit -bench-telemetry -assert-overhead 25 -o /dev/null

# perf-smoke runs the tests of cmd/vdo-perf, a module of its own that the
# root ./... patterns do not reach: a 200-host smoke run of every
# workload through the verdict oracle, the oracle's stale-verdict
# self-test, and the -compare regression rules. About 10 s.
perf-smoke:
	cd cmd/vdo-perf && $(GO) test ./...

# tables regenerates every EXPERIMENTS.md table on stdout.
tables:
	$(GO) run ./cmd/vdo-bench -markdown
