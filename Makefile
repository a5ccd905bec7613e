# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build test race bench bench-save bench-diff experiments experiments-full check paper-check obs-smoke resume-smoke serve-smoke stat-smoke sweep-smoke kernel-smoke cluster-smoke fuzz-smoke fmt vet examples clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Snapshot the perf-tracked benchmarks (EndToEnd*, Scaling, Adoption) into the
# next BENCH_<n>.json; three -count samples are folded to the per-benchmark
# noise floor (min ns/op, max throughput) by scbenchdiff. bench-diff compares
# the two most recent snapshots and fails on ns/op, allocs/op or throughput
# regression beyond the threshold.
bench-save:
	$(GO) test -run '^$$' -bench 'EndToEnd|Scaling|Adoption' -benchmem -count 3 . | $(GO) run ./cmd/scbenchdiff -save

bench-diff:
	$(GO) run ./cmd/scbenchdiff -diff

# Regenerate the evaluation tables (quick) / the EXPERIMENTS.md-scale run.
experiments:
	$(GO) run ./cmd/scbench -config quick

experiments-full:
	$(GO) run ./cmd/scbench -config full

# Tier-1 gate (ROADMAP.md): static checks, full race-enabled test suite
# (which includes the checkpoint-store conformance suite), a one-iteration
# smoke of the perf-tracked benchmarks, the compute-layer equivalence smoke,
# and the live-monitoring and sharded-cluster process smokes. CI runs each of
# these once, through this target.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race -shuffle=on ./...
	$(GO) test -run '^$$' -bench EndToEnd -benchtime 1x .
	$(MAKE) kernel-smoke
	$(MAKE) stat-smoke
	$(MAKE) cluster-smoke

# Re-evaluate every paper-predicted shape; non-zero exit on mismatch.
paper-check:
	$(GO) run ./cmd/scbench -config quick -check

# End-to-end observability smoke: run scbench with -obs-listen on an
# ephemeral port, scrape /metrics once, assert the core series, and read the
# -trace-out dump back. Self-contained Go harness — no curl required.
obs-smoke:
	$(GO) run ./internal/tools/obssmoke

# End-to-end kill-and-resume smoke over an on-disk stream file: periodic
# checkpoints, a mid-stream kill, restore into a differently-seeded fresh
# instance, and byte-identical covers — in the default build and with the
# observability layer compiled out.
resume-smoke:
	$(GO) run ./internal/tools/resumesmoke
	$(GO) run -tags obsoff ./internal/tools/resumesmoke

# End-to-end serving smoke: an in-process scserve session manager fed by the
# scfeed client library across every algorithm — abrupt kill-and-reconnect
# resume, and a full server drain-and-restart — byte-compared against
# uninterrupted local runs (DESIGN.md §4f). Runs once per checkpoint-store
# backend (DESIGN.md §4i): durable files, then in-process memory.
serve-smoke:
	$(GO) run ./internal/tools/servesmoke -store dir
	$(GO) run ./internal/tools/servesmoke -store mem
	$(GO) run -race ./internal/tools/servesmoke -store mem -contend 128

# Live-monitoring smoke (DESIGN.md §4h): real scserve/scfeed/scstat
# processes over TCP — trace-ID survival across a mid-stream kill and
# resume (printed by scfeed, asserted byte-equal), /sessions rows and the
# wide-event log via scstat -json, and the /readyz flip during SIGTERM
# drain — in the default build and with the telemetry compiled out
# (obsoff), where trace identity and readiness must still hold.
stat-smoke:
	$(GO) run ./internal/tools/statsmoke

# Sharded-cluster chaos smoke (DESIGN.md §4k): real scrouter/scserve/scfeed
# processes — a store-only scrouter serving the shared SCSTOR1 checkpoint
# store, three scserve -store cluster shards, a consistent-hash routing
# scrouter, and scfeed -cluster driving 64 concurrent sessions while two
# shards are SIGTERMed mid-stream. Every severed session resumes through the
# router and is adopted by a survivor; the sorted token/fingerprint file must
# be byte-identical to an undisturbed single-shard run, and scstat -fleet
# must show the killed shards down. Runs in the default build and with every
# binary race-instrumented.
cluster-smoke:
	$(GO) run ./internal/tools/clustersmoke
	$(GO) run ./internal/tools/clustersmoke -race

# Scheduler determinism smoke: a small sweep grid run with -workers=1 and
# -workers=4 must produce byte-identical tables and CSV (DESIGN.md §4e).
sweep-smoke:
	$(GO) run ./internal/tools/sweepsmoke

# Compute-layer equivalence smoke (DESIGN.md §4g): one iteration of
# parallel-vs-sequential offline solvers (byte-identical covers at every
# worker count) and batched-vs-per-edge streaming kernels, plus the
# steady-state zero-alloc guards rerun with the observability layer
# compiled out (the default build runs them in `make race`).
kernel-smoke:
	$(GO) run ./internal/tools/kernelsmoke
	$(GO) test -tags obsoff -run 'TestBatchedMatchesPerEdge|TestSteadyStateProcessBatchAllocs' .
	$(GO) test -tags obsoff -run TestKernelsAllocFree ./internal/dense/

# Run every fuzz target for a ~10s budget each: the stream codec, the
# prefetch pipeline, the OR-library parser, the SCSTATE1/SCCKPT1 snapshot
# decoders, and the SCWIRE1, SCSTOR1 and SCRING1 parsers (go test allows
# one -fuzz target per invocation).
fuzz-smoke:
	$(GO) test -fuzz FuzzDecode -fuzztime 10s ./internal/stream/
	$(GO) test -fuzz FuzzPrefetchedFile -fuzztime 10s ./internal/stream/
	$(GO) test -fuzz FuzzValidate -fuzztime 10s ./internal/stream/
	$(GO) test -fuzz FuzzParse -fuzztime 10s ./internal/orlib/
	$(GO) test -fuzz FuzzRestore -fuzztime 10s ./internal/snap/
	$(GO) test -fuzz FuzzReadCheckpoint -fuzztime 10s ./internal/snap/
	$(GO) test -fuzz FuzzWireFrame -fuzztime 10s ./internal/serve/
	$(GO) test -fuzz FuzzStoreFrame -fuzztime 10s ./internal/serve/store/
	$(GO) test -fuzz FuzzRingCodec -fuzztime 10s ./internal/serve/ring/

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/domset
	$(GO) run ./examples/blogwatch
	$(GO) run ./examples/separation
	$(GO) run ./examples/orlib
	$(GO) run ./examples/filestream

clean:
	$(GO) clean ./...
	rm -f stream.scs out.scs
