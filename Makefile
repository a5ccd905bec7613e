# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build test race bench bench-save bench-diff bench-ab experiments experiments-full check paper-check cluster-smoke fuzz-smoke fmt vet examples clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Snapshot the perf-tracked benchmarks (EndToEnd*, FileReplay, the on-disk
# SCSTRM1 replay, Scaling, Adoption, the Checkpoint* SCCKPT1 codec rungs,
# and WireEdges*, the kk kernel, SCWIRE1 edge codec and net.Pipe session
# rungs in internal/serve) into the next BENCH_<n>.json; three -count
# samples are folded to the per-benchmark noise floor (min ns/op, max
# throughput) by scbenchdiff. -cpu 1 fixes GOMAXPROCS, so edges/sec/core
# means the same in every snapshot whatever the host's core count.
# bench-diff compares the two most recent snapshots and fails on ns/op,
# allocs/op or throughput regression beyond the threshold.
PERF_BENCH = EndToEnd|FileReplay|Scaling|Adoption|Checkpoint|WireEdges

bench-save:
	$(GO) test -run '^$$' -bench '$(PERF_BENCH)' -benchmem -cpu 1 -count 3 . ./internal/serve/ | $(GO) run ./cmd/scbenchdiff -save

bench-diff:
	$(GO) run ./cmd/scbenchdiff -diff

# A/B gate: the same benchmarks, this tree against BASE (by default its
# merge base with main, or with origin/main in a clone with no local main,
# as CI's is) on the same host in the same minutes. BASE's tree comes from
# git archive; its test binaries and this tree's (root package and
# internal/serve) are built with go test -c and run alternately at -cpu 1
# for four 0.5 s rounds, BASE first in odd rounds. scbenchdiff folds each
# side to its min-of-4 and fails on the metrics bench-diff gates beyond
# ×1.20; a benchmark on one side only is listed, not gated.
BASE ?= $(shell git merge-base HEAD main 2>/dev/null || git merge-base HEAD origin/main)

bench-ab:
	@test -n "$(BASE)" || { echo "bench-ab: no merge base with main; set BASE=<revision>"; exit 1; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	echo "bench-ab: base $(BASE)"; \
	mkdir -p "$$tmp/base" "$$tmp/snap"; \
	git archive "$(BASE)" | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(GO) test -c -o "$$tmp/base-root.test" . && $(GO) test -c -o "$$tmp/base-serve.test" ./internal/serve/); \
	$(GO) test -c -o "$$tmp/head-root.test" .; \
	$(GO) test -c -o "$$tmp/head-serve.test" ./internal/serve/; \
	for round in 1 2 3 4; do \
		if [ $$((round % 2)) = 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			if [ $$side = base ]; then src="$$tmp/base"; else src="$(CURDIR)"; fi; \
			echo "bench-ab: round $$round, $$side"; \
			for pkg in root serve; do \
				dir="$$src"; [ $$pkg = root ] || dir="$$src/internal/serve"; \
				(cd "$$dir" && "$$tmp/$$side-$$pkg.test" -test.run '^$$' -test.bench '$(PERF_BENCH)' \
					-test.benchmem -test.cpu 1 -test.benchtime 0.5s -test.timeout 20m) >> "$$tmp/$$side.txt"; \
			done; \
		done; \
	done; \
	$(GO) run ./cmd/scbenchdiff -save -dir "$$tmp/snap" < "$$tmp/base.txt"; \
	$(GO) run ./cmd/scbenchdiff -save -dir "$$tmp/snap" < "$$tmp/head.txt"; \
	$(GO) run ./cmd/scbenchdiff -diff -dir "$$tmp/snap"

# Regenerate the evaluation tables (quick) / the EXPERIMENTS.md-scale run.
experiments:
	$(GO) run ./cmd/scbench -config quick

experiments-full:
	$(GO) run ./cmd/scbench -config full

# Tier-1 gate (ROADMAP.md) and the whole of CI's test step: static checks
# and builds with and without the observability layer, static checks of
# the non-amd64 file set (GOARCH=arm64, so the portable edge encoder and
# decoder keep compiling beside the amd64 block kernels), the race-enabled
# test suite, the suite again with observability compiled out (obsoff), a
# one-iteration smoke of the perf-tracked benchmarks (the in-process
# EndToEnd and FileReplay rows and the WireEdges serving rungs), and the one
# multi-process harness.
check:
	$(GO) vet ./...
	$(GO) vet -tags obsoff ./...
	GOARCH=arm64 $(GO) vet ./...
	$(GO) build ./...
	$(GO) build -tags obsoff ./...
	$(GO) test -race -shuffle=on ./...
	$(GO) test -tags obsoff ./...
	$(GO) test -run '^$$' -bench 'EndToEnd|FileReplay' -benchtime 1x .
	$(GO) test -run '^$$' -bench WireEdges -benchtime 1x ./internal/serve/
	$(MAKE) cluster-smoke

# Re-evaluate every paper-predicted shape; non-zero exit on mismatch.
paper-check:
	$(GO) run ./cmd/scbench -config quick -check

# Sharded-cluster chaos smoke (DESIGN.md §4k), the one multi-process
# harness: real scrouter/scserve/scfeed/scstat processes, built default,
# -race and -tags obsoff. A golden leg drives 64 sessions through one shard,
# checks its scstat -json rows and the /readyz flip during a SIGTERM drain;
# a chaos leg SIGTERMs two of three shards mid-stream, every severed session
# is adopted by a survivor, and the sorted token/fingerprint file must be
# byte-identical to the golden leg's.
cluster-smoke:
	$(GO) run ./internal/tools/clustersmoke

# Run every fuzz target for a ~10s budget each: the stream codec, the edge
# decoder's block and scalar kernels against each other, the edge
# encoder's block and scalar kernels against each other, the on-disk File
# reader, the OR-library parser, the SCSTATE1/SCCKPT1 snapshot
# decoders, alg1's trace-section decoder, and the SCWIRE1, SCSTOR1 and
# SCRING1 parsers (go test allows one -fuzz target per invocation).
# Minimizing a new interesting input is capped at 1s, so the budget goes to
# new inputs rather than to shrinking one large mutant.
fuzz-smoke:
	$(GO) test -fuzz FuzzDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/stream/
	$(GO) test -fuzz FuzzEdgeKernels -fuzztime 10s -fuzzminimizetime 1s ./internal/stream/
	$(GO) test -fuzz FuzzEdgeEncoders -fuzztime 10s -fuzzminimizetime 1s ./internal/stream/
	$(GO) test -fuzz FuzzFile -fuzztime 10s -fuzzminimizetime 1s ./internal/stream/
	$(GO) test -fuzz FuzzValidate -fuzztime 10s -fuzzminimizetime 1s ./internal/stream/
	$(GO) test -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 1s ./internal/orlib/
	$(GO) test -fuzz FuzzRestore -fuzztime 10s -fuzzminimizetime 1s ./internal/snap/
	$(GO) test -fuzz FuzzReadCheckpoint -fuzztime 10s -fuzzminimizetime 1s ./internal/snap/
	$(GO) test -fuzz FuzzTraceDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/core/
	$(GO) test -fuzz FuzzWireFrame -fuzztime 10s -fuzzminimizetime 1s ./internal/serve/
	$(GO) test -fuzz FuzzStoreFrame -fuzztime 10s -fuzzminimizetime 1s ./internal/serve/store/
	$(GO) test -fuzz FuzzRingCodec -fuzztime 10s -fuzzminimizetime 1s ./internal/serve/ring/

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
