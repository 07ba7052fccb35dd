GO ?= go

# Transport fault-injection tests drive real TCP rounds; the timeout guard
# makes a hung test (e.g. a worker that never replies) fail fast instead of
# wedging CI at the default 10-minute package deadline.
TESTFLAGS ?= -timeout 120s

# The race detector multiplies the figure-reproduction tests in the root
# package by ~10x (the full root suite runs minutes under -race), so the
# race-enabled targets carry their own, larger guard.
RACE_TESTFLAGS ?= -timeout 900s

.PHONY: build test vet fmt race check expolint perfbench-check bench bench-all benchgate chaos soak-restart trace-demo fuzz

build:
	$(GO) build ./...

test:
	$(GO) test $(TESTFLAGS) ./...

vet:
	$(GO) vet ./...

# fmt fails (listing the offenders) if any tracked Go file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# race runs the full suite under the race detector — the parallel executor
# and the TCP coordinator (including the transport fault-injection and
# rejoin tests) are the packages that exercise real concurrency.
race:
	$(GO) test -race $(RACE_TESTFLAGS) ./...

# expolint runs every /metrics exposition hygiene test in one fast pass:
# the engine registry golden, the Go runtime series, and the jobs- and
# telemetry-hub WritePrometheus implementations are all held to
# obs.LintExposition (HELP/TYPE on every family, counters end _total,
# gauges don't). The same tests run inside `race`; this target is the
# quick local gate after touching any exposition writer.
expolint:
	$(GO) test $(TESTFLAGS) -run 'Lint|Exposition|Prometheus' \
		./internal/obs/ ./internal/jobs/ ./internal/telemetry/

# perfbench-check vets and unit-tests the end-to-end benchmark. perfbench/
# is its own module, so the root ./... never compiles it: without this step
# an API break there passes every other gate and surfaces only when the
# benchmark is built. It runs offline (the module requires only this repo,
# through a replace directive).
PERFBENCH_ENV := GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
perfbench-check:
	cd perfbench && $(PERFBENCH_ENV) $(GO) vet ./... && $(PERFBENCH_ENV) $(GO) test $(TESTFLAGS) ./...

# check is the CI gate: formatting, static analysis (the perfbench module
# included), the exposition lint, the race-enabled suite, and the benchmark
# regression gate against the committed snapshot. The race-enabled suite replays the FuzzFrameDecode
# seed corpus (plain `go test` runs f.Add seeds), so every committed
# frame-decoder regression input is exercised on each CI run; `make fuzz`
# explores beyond the seeds.
check: fmt vet perfbench-check expolint race benchgate

# fuzz runs coverage-guided exploration of the wire-frame decoders. The
# decoders sit directly on the network, so any input must decode or error —
# never panic. FUZZ_TIME bounds the run (default 30s).
FUZZ_TIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime $(FUZZ_TIME) ./internal/transport/

# trace-demo runs a short traced experiment and validates that the emitted
# Chrome trace-event JSON still parses and is internally consistent (every
# parent_id resolves), so the Perfetto export format can't silently rot.
TRACE_DEMO_OUT ?= trace-demo.json
trace-demo:
	$(GO) run ./cmd/fedsim -dataset synthetic -alg sarah -rounds 3 -tau 5 \
		-trace-spans $(TRACE_DEMO_OUT) -csv /dev/null
	$(GO) run ./cmd/tracecheck -min-spans 10 $(TRACE_DEMO_OUT)

# chaos runs the seeded fault-injection suite under the race detector: the
# declarative-schedule conformance tests (bit-identical models across the
# sequential, parallel and TCP backends under crash/flake/delay/corrupt/
# partition faults), the straggler-deadline tests, and the generated-schedule
# soak. CHAOS_SOAK_ROUNDS extends the soak (default 12 rounds), e.g.
#   make chaos CHAOS_SOAK_ROUNDS=200
CHAOS_SOAK_ROUNDS ?=
chaos:
	CHAOS_SOAK_ROUNDS=$(CHAOS_SOAK_ROUNDS) $(GO) test -race $(RACE_TESTFLAGS) -count=1 \
		-run 'Chaos|Straggler|MinReport' ./internal/chaos/ ./internal/engine/ ./internal/transport/

# soak-restart runs the kill-the-coordinator soak: a real fedserver process
# serving the multi-job control plane is SIGKILLed every K rounds of fleet
# progress and restarted on the same -state-dir until every job is DONE;
# each job's durable checkpoint must be bit-identical to an uninterrupted
# run. SOAK_RESTART_ROUNDS is the kill cadence K (the test skips without
# it), e.g.
#   make soak-restart SOAK_RESTART_ROUNDS=5
SOAK_RESTART_ROUNDS ?=
soak-restart:
	SOAK_RESTART_ROUNDS=$(SOAK_RESTART_ROUNDS) $(GO) test -race $(RACE_TESTFLAGS) -count=1 \
		-run SoakRestart -v ./internal/jobs/

# The recorded benchmark set: the engine/ablation hot paths plus the batched
# NN kernels (forward/backward, minibatch gradient, full inner solve), the
# transport top-k selector, the wire-frame marshal/unmarshal paths, and the
# end-to-end TCP round (exact and topk-delta codecs). bench and benchgate
# must agree on this set, so a benchmark in the snapshot is never silently
# absent from the gate run.
BENCH_PATTERN := RoundAllocs|Ablation|NNBatch|NNMinibatch|NNInnerSolve|TopK|Frame|WireRound
BENCH_PKGS := . ./internal/engine ./internal/nn ./internal/models ./internal/optim ./internal/transport

# bench runs the recorded benchmark set three times and snapshots the
# results as BENCH_engine.json (JSONL; one record per output line, raw text
# retained). benchgate budgets against the slowest of the three samples, so
# the committed budget carries this machine's run-to-run noise envelope.
# Reconstruct a benchstat-compatible stream with:
#   jq -r .line BENCH_engine.json | benchstat /dev/stdin
bench:
	$(GO) test -run '^$$' -count=3 -bench '$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -out BENCH_engine.json

# benchgate re-runs the recorded benchmark set and fails on a >10% ns/op
# regression or any allocs/op growth versus the committed snapshot. Each
# benchmark runs three times and the gate scores the fastest sample, so a
# scheduler hiccup on one run doesn't fail CI. Regenerate the snapshot with
# `make bench` after intentional performance changes.
benchgate:
	$(GO) test -run '^$$' -count=3 -bench '$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchgate -baseline BENCH_engine.json

# bench-all sweeps every benchmark in the repo (figure/table reproductions
# included) without recording.
bench-all:
	$(GO) test -run '^$$' -bench . -benchmem ./...
