# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short test-race bench bench-engine bench-scale bench-guard docscheck figures figures-quick faults floodd-smoke floodd-chaos trace-smoke protocol-smoke fuzz-faults fuzz-trace fuzz-spec fuzz-service examples clean

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

# Refresh the committed engine baselines, one format for both: per row
# the median and quartiles of the plain, telemetry- and trace-attached
# runs (back to back in each rep), the topology build and rank view, the
# exact slot horizon and trace bytes, and the host. BENCH_engine.json is
# the 298-node BenchmarkEngine grid (21 reps, a few seconds);
# BENCH_scale.json the 10k/100k-node grid plus the `figures -fig scale`
# wall clock (9 reps, several minutes). Either fails if attaching an
# instrument ever changes a result.
bench-engine:
	$(GO) run ./cmd/engbench -reps 21 -o BENCH_engine.json

bench-scale:
	$(GO) run ./cmd/engbench -scale -reps 9 -o BENCH_scale.json

# Assert the clean (no-fault) engine has not regressed against the
# committed baselines: slot horizons and trace bytes exactly on any host;
# on the baseline's host, each build and run median within the bound
# derived from the committed quartiles (EXPERIMENTS.md).
bench-guard:
	$(GO) run ./cmd/engbench -reps 21 -against BENCH_engine.json -o ""
	$(GO) run ./cmd/engbench -scale -against BENCH_scale.json -o ""

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

# End-to-end exercise of the trace pipeline (docs/TRACE.md): emit a
# binary trace, validate physical consistency, render it as text the same
# way twice, refuse a text rendering by its missing magic, tolerate a torn
# tail, and check that per-cell sweep traces survive a resume
# byte-identically. Mirrored in CI.
trace-smoke:
	sh scripts/trace-smoke.sh

# Timer-protocol certification through the CLI: a small trickle+dflood
# sweep built with -race must reproduce its CSV byte for byte on a
# same-seed rerun. Mirrored in CI.
protocol-smoke:
	sh scripts/protocol-smoke.sh

# Randomized fault schedules vs engine invariants and seed determinism;
# CI runs a 10s smoke of this.
fuzz-faults:
	$(GO) test -fuzz FuzzFaultSchedule -fuzztime 30s -fuzzminimizetime 1s ./internal/flood

# Random bytes vs the binary trace reader's crash-safety taxonomy (clean /
# torn / corrupt, never a panic); CI runs a 10s smoke of this.
fuzz-trace:
	$(GO) test -fuzz FuzzReader -fuzztime 30s -fuzzminimizetime 1s ./internal/tracebin

# Arbitrary JSON vs service.Compile: never a panic, and compile -> JSON ->
# compile keeps cells, worker split and journal key; CI runs a 10s smoke.
fuzz-spec:
	$(GO) test -fuzz FuzzSpec -fuzztime 30s -fuzzminimizetime 1s ./internal/service

# Arbitrary bodies vs the lease completion endpoint of a live job (never a
# panic, 4xx for a malformed body, and no cell outside the leased chunk
# ever journaled) and vs job submission (never a 5xx, 201 only for one
# JSON document that compiles, no job admitted on a 4xx); CI runs a 10s
# smoke of each.
fuzz-service:
	$(GO) test -fuzz FuzzCompleteBody -fuzztime 30s -fuzzminimizetime 1s ./internal/service
	$(GO) test -fuzz FuzzSubmitBody -fuzztime 30s -fuzzminimizetime 1s ./internal/service
	$(GO) test -fuzz FuzzLeaseBody -fuzztime 30s -fuzzminimizetime 1s ./internal/service

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/theory
	$(GO) run ./examples/dutycycle
	$(GO) run ./examples/protocols
	$(GO) run ./examples/crosslayer

clean:
	$(GO) clean ./...
