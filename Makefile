# Repeatable verification gate for the ascc reproduction.
#
#   make check          - everything CI should run (build, vet, fmt, tests,
#                         race, bounded differential fuzz, and vet + tests
#                         of the perfbench module)
#   make test           - the tier-1 suite only
#   make race           - race-detector pass over the concurrent packages
#   make fuzz           - bounded run of the differential fuzzers (packed
#                         kernel vs reference model, ganged group vs
#                         independent caches, trace arena codec round-trip,
#                         persistent arena-store file round-trip, engine vs
#                         the frozen per-reference oracles of the private and
#                         the shared-LLC machine, directory vs
#                         broadcast vs that oracle, sampled vs full geometry,
#                         trace-file readers on arbitrary bytes, the -sample
#                         and -mix grammars)
#   make cover          - aggregate internal/... statement coverage with a
#                         hard floor (scripts/cover.sh)
#   make bench          - microbenchmarks for the hot simulator paths
#   make profile        - CPU + heap profile of a representative run
#   make bench-baseline - the per-layer ledger: perfbench --trace 1 on every
#                         BENCHMARK.json workload (perfbench/README.md)
#   make prewarm        - synthesise every experiment-suite stream into the
#                         persistent arena store (~/.cache/ascc/arenas) so
#                         later runs, sweeps and CI jobs replay from mmap

GO ?= go

.PHONY: check build vet fmt test race fuzz perfbench-test cover bench bench-baseline profile prewarm clean

check: build vet fmt test race fuzz perfbench-test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# The harness worker pool, the experiment fan-outs and the shared trace
# arenas are the concurrent code, and the pool runs many cmp Systems side by
# side; -race over just those keeps the gate fast. The experiments package
# (all 21 golden tables, the trace-cache budget differential and the store
# off/cold/warm differential, every id) takes ~10 minutes under the race
# detector on a 2-CPU host, at go test's default 10-minute ceiling.
race:
	$(GO) test -race -timeout 30m ./internal/trace/... ./internal/harness/... ./internal/experiments/... ./internal/cmp/...

# Bounded fuzzing: ten fuzzers, each for ten seconds (the committed corpora
# always run as part of plain `go test`; this explores beyond them). Six are
# differential walls: the packed kernel against the reference model, the
# ganged tag slab against independent caches, the stepping engine against
# its frozen per-reference loops (FuzzBurstEquivalence, whose second arm is
# the shared-LLC machine), the directory against that oracle, the sampled
# machine against the full geometry, and the store's file round-trip. The
# other four check the arena codec, the trace-file readers and the -sample
# and -mix grammars on arbitrary input.
fuzz:
	$(GO) test ./internal/cachesim -run '^$$' -fuzz FuzzKernelEquivalence -fuzztime 10s
	$(GO) test ./internal/cachesim -run '^$$' -fuzz FuzzGroupEquivalence -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzRefCodec -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzTraceReaders -fuzztime 10s
	$(GO) test ./internal/trace/store -run '^$$' -fuzz FuzzStoreRoundTrip -fuzztime 10s
	$(GO) test ./internal/cmp -run '^$$' -fuzz FuzzBurstEquivalence -fuzztime 10s
	$(GO) test ./internal/cmp -run '^$$' -fuzz FuzzDirectoryEquivalence -fuzztime 10s
	$(GO) test ./internal/cmp -run '^$$' -fuzz FuzzSampleEquivalence -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzParseSampleRatio -fuzztime 10s
	$(GO) test ./cmd/asccbench -run '^$$' -fuzz FuzzParseMix -fuzztime 10s

# perfbench is a module of its own (replace ascc => ../), so the root
# build, vet and test never compile it; an internal/ API change that breaks
# the benchmark fails here instead.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Aggregate statement coverage over internal/... with a floor that pins the
# baseline; a PR landing untested simulator code fails here.
cover:
	GO="$(GO)" sh scripts/cover.sh

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' . ./internal/cachesim ./internal/cmp ./internal/trace/...

# CPU + heap profile of the heaviest configuration (the 4-core AVGCC mix the
# end-to-end benchmark measures) through the CLI's -cpuprofile/-memprofile
# flags, with the hot functions summarised. Inspect interactively with
#   go tool pprof asccbench-cpu.prof
profile:
	$(GO) run ./cmd/asccbench -mix 445+401+444+456 -policy AVGCC \
		-cpuprofile asccbench-cpu.prof -memprofile asccbench-mem.prof >/dev/null
	$(GO) tool pprof -top -nodecount 15 asccbench-cpu.prof

# One traced perfbench run per BENCHMARK.json workload: per-layer unit costs
# and self times, with the run manifest (commit, nproc, Go version), in
# .bench_build/perfbench/<workload>-seed1-trace1.json.
bench-baseline:
	for w in mix4-full suite-sampled wide-shared; do \
		bash perfbench/run.sh --workload $$w --seed 1 --trace 1 || exit 1; \
	done

# Fill the persistent arena store at the default configuration: every later
# asccbench/test/CI run with -arena-store replays packed streams from mmap'd
# files instead of re-synthesising them (DESIGN.md 14).
prewarm:
	$(GO) run ./cmd/asccbench -arena-store -prewarm

clean:
	$(GO) clean ./...
