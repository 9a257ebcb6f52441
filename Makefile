# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short test-race bench bench-engine bench-scale bench-guard docscheck figures figures-quick faults floodd-smoke floodd-chaos trace-smoke protocol-smoke fuzz-faults fuzz-shard fuzz-trace fuzz-spec fuzz-service examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass over the whole module (mirrors the CI "Race" step);
# the batch runner and every refactored fan-out must stay clean under it.
test-race:
	$(GO) test -race -short ./...

bench: bench-engine
	$(GO) test -bench=. -benchmem ./...

# Refresh the committed engine-throughput baseline (slow vs compact path
# on the BenchmarkEngine grid); fails if the two paths ever diverge.
bench-engine:
	$(GO) run ./cmd/engbench -o BENCH_engine.json

# Refresh the committed large-topology baseline (10k/100k-node GreenOrbs
# grid: serial engine, keyed engine inline and on nproc workers; median and
# quartiles of 5 alternating reps per row, plus host metadata).
bench-scale:
	$(GO) run ./cmd/engbench -scale -o BENCH_scale.json

# Assert the clean (no-fault) engine has not regressed against the
# committed baselines: slot horizons exactly, measured wall clock within
# 50% (minimum per case for BENCH_engine, median per row for BENCH_scale).
bench-guard:
	$(GO) run ./cmd/engbench -against BENCH_engine.json -tolerance 0.5 -o ""
	$(GO) run ./cmd/engbench -scale -against BENCH_scale.json -tolerance 0.5 -o ""

# Documentation lints (mirrored in CI): godoc coverage + markdown links.
docscheck:
	$(GO) run ./cmd/doccheck internal cmd
	$(GO) run ./cmd/linkcheck README.md CHANGELOG.md CONTRIBUTING.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md

# Regenerate every paper table/figure at full scale (M=100).
figures:
	$(GO) run ./cmd/figures -fig all

figures-quick:
	$(GO) run ./cmd/figures -fig all -quick

# The fault-injection resilience experiment (docs/FAULTS.md).
faults:
	$(GO) run ./cmd/figures -fig faults -quick

# Black-box smoke of the job daemon (docs/SERVICE.md): boot floodd on an
# ephemeral port, submit a tiny sweep with curl, assert the result CSV
# and the telemetry mount, drain on SIGTERM, then kill -9 a daemon
# mid-job and assert the restart resumes it. Mirrored in CI.
floodd-smoke:
	sh scripts/floodd-smoke.sh

# Chaos-kill certification for distributed sweeps: SIGKILL three workers
# and the daemon mid-sweep, run a deliberate zombie worker, and require
# the final CSV to be byte-identical to an uninterrupted reference run.
# CI runs the same script with CHAOS_SHORT=1 on a smaller grid.
floodd-chaos:
	sh scripts/floodd-chaos.sh

# End-to-end exercise of the trace pipeline (docs/TRACE.md): emit both
# encodings, certify lossless text <-> binary round trips byte-for-byte,
# validate physical consistency, tolerate a torn tail, and check per-cell
# sweep traces. Mirrored in CI.
trace-smoke:
	sh scripts/trace-smoke.sh

# Timer-protocol certification through the CLI: a small trickle+dflood
# sweep built with -race, byte-identical CSVs at shard workers 1 vs 4,
# and a deterministic serial rerun. Mirrored in CI.
protocol-smoke:
	sh scripts/protocol-smoke.sh

# Randomized fault schedules vs engine invariants and compact-path
# equivalence; CI runs a 10s smoke of this.
fuzz-faults:
	$(GO) test -fuzz FuzzFaultSchedule -fuzztime 30s ./internal/flood

# Randomized chunk sizes / worker counts / fault schedules vs the sharded
# merge path's byte-identity contracts; CI runs a 10s smoke of this.
fuzz-shard:
	$(GO) test -fuzz FuzzShardMerge -fuzztime 30s ./internal/sim

# Random bytes vs the binary trace reader's crash-safety taxonomy (clean /
# torn / corrupt, never a panic); CI runs a 10s smoke of this.
fuzz-trace:
	$(GO) test -fuzz FuzzReader -fuzztime 30s ./internal/tracebin

# Arbitrary JSON vs service.Compile: never a panic, and compile -> JSON ->
# compile keeps cells, worker split and journal key; CI runs a 10s smoke.
fuzz-spec:
	$(GO) test -fuzz FuzzSpec -fuzztime 30s ./internal/service

# Arbitrary bodies vs the lease completion endpoint of a live job: never a
# panic, 4xx for a malformed body, and no cell outside the leased chunk
# ever journaled; CI runs a 10s smoke.
fuzz-service:
	$(GO) test -fuzz FuzzCompleteBody -fuzztime 30s ./internal/service

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/theory
	$(GO) run ./examples/dutycycle
	$(GO) run ./examples/protocols
	$(GO) run ./examples/crosslayer

clean:
	$(GO) clean ./...
