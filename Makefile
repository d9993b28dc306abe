# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench bench-all bench-diff bench-smoke fuzz-smoke aliascheck chaos loadtest check fmt-check tables tables-full verify

# The archived benchmark cells (BENCH_sort.json): the end-to-end sort, the
# deadline layer's cost, the sortd server, the multicore merge and the
# serial merge kernel. bench, bench-diff, bench-smoke and check all run
# exactly these.
BENCH = SortEndToEnd|SortDeadline|ServerThroughput|ParallelMerge|MergeKernel

all: build test

build:
	go build ./...

test:
	go vet ./...
	go test ./...

race:
	go test -race ./...

# The full gate: formatting, compile everything, vet (plus staticcheck
# when the host has it — nothing is downloaded), the whole suite under
# the race detector (the async pipeline's equivalence tests are only
# meaningful raced), the zero-copy aliasing guard, one iteration of the
# end-to-end sort benchmark so the harness can never rot unexercised, and
# the perfbench module (a module of its own, so `./...` above skips it,
# yet it compiles against this one's packages).
check: fmt-check build
	go vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go vet still ran)"; fi
	go test -race ./...
	go test -tags=aliascheck ./internal/pdisk/ ./internal/srm/
	go test -run='^$$' -bench='$(BENCH)' -benchtime=1x .
	cd perfbench && go vet ./... && go test ./...

# The whole suite with the zero-copy mutation guard armed: every block a
# write issues is checksum-audited when its transfer runs, and every
# MemStore read, free and close audits it again, so any path that mutates
# a block after writing it, or one it read, panics. Vetted first: the
# guard's files compile only under the tag, so plain `go vet` skips them.
aliascheck:
	go vet -tags=aliascheck ./...
	go test -tags=aliascheck ./...

# The fault-tolerance matrix: seeded faults and mid-write kills across
# every algorithm x backend x D, each cell resumed to completion and
# byte-compared against its fault-free run — plus the straggler wing
# (seeded Pareto latency under deadlines/hedging), the stuck-op wing
# (a 250 ms read hang bounded by the deadline layer) and the server
# drain-interrupted-kill cells. Raced, and under a hard deadline so a
# hung resume loop fails fast instead of wedging CI. Then the I/O
# engine's suite — deadlines, health, the engine through the System on
# serial and non-serial stores, and the async ops and Close that run on
# the same executors, timers and joins — raced ten times over: its
# executors, joins and hedges race real stragglers, so one clean pass
# proves little. Last, the
# determinism cell fifty times at each of 1, 2 and 4 procs (not raced, so
# the goroutines really interleave): a fault draw that depends on the
# order concurrent transfers reach the store fails here, not one CI run
# in five.
chaos:
	go test -race -count=1 -timeout 10m ./internal/chaos/
	go test -race -count=10 -timeout 10m -run 'Deadline|Health|Engine|Async|Close' ./internal/pdisk/
	go test -count=50 -cpu 1,2,4 -run 'TestChaosDeterministic$$' ./internal/chaos/

# The sortd server load tests: dozens of concurrent jobs over the HTTP
# API with seeded store faults, the server kill/restart matrix
# (20 tenants, two abrupt teardowns, byte-identical results required),
# the kill and cancel cells (a kill or DELETE closes a job's store under
# its running transfers, one of them parked in flight) and the
# graceful-drain suite (clean drains refuse submissions with 503,
# expired windows sever nothing, drain-interrupted kills resume). The
# kill, cancel and drain cells run three times over, since each closes
# stores under transfers that race it. Raced, under a hard deadline.
loadtest:
	go test -race -count=1 -timeout 10m -run 'TestServerLoad' ./internal/jobs/
	go test -race -count=3 -timeout 10m -run 'TestHTTPCancelAndErrors|TestKillLandsOnInFlightWrite|TestDeleteCancelsRunningVolatileJob|TestServerKillRestart|TestServerCleanRestart|TestServerDrainInterruptedKill|TestDrainCleanRefusesSubmissions|TestDrainWindowExpires' ./internal/jobs/ ./internal/chaos/

# Fail (listing the offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The measured end-to-end sort benchmark (alg x backend x D x cores),
# the deadline layer's fault-free cost (bare vs deadline vs hedge rows),
# plus the multicore merge kernel and the serial merge kernel
# (ltree.Kernel, fixed16 and varlen) in isolation. Writes BENCH_sort.json
# with ns/record, B/record and allocs/record per cell — the perf
# trajectory future PRs regress against (see EXPERIMENTS.md).
bench:
	go test -run='^$$' -bench='$(BENCH)' -benchmem . | tee bench_sort_output.txt
	go run ./cmd/benchjson -o BENCH_sort.json bench_sort_output.txt

# Every benchmark in the repository (micro and end-to-end).
bench-all:
	go test -bench=. -benchmem ./...

# Re-measure the end-to-end cells and print per-cell ns/rec and B/rec
# deltas against the committed BENCH_sort.json baseline — the perf gate a
# change is judged by before the baseline itself is refreshed.
bench-diff:
	go test -run='^$$' -bench='$(BENCH)' -benchmem . | tee bench_sort_output.txt
	go run ./cmd/benchjson -diff BENCH_sort.json bench_sort_output.txt

# One iteration per cell: proves the harness runs, measures nothing.
bench-smoke:
	go test -run='^$$' -bench='$(BENCH)' -benchtime=1x .

# Native-fuzz bursts CI runs exactly, 20 seconds each: the public stream
# sort (arbitrary byte streams through SortStream must sort or fail with
# an error, never panic — torn streams and the reserved key included),
# the parallel-merge equivalence fuzzer (random runs, shard counts and
# data shapes, every shard placement byte-compared against the serial
# merge), the merge-kernel fuzzer (ltree.Kernel, fed in blocks down to
# one record, against a per-record merge and SortRecords in key,
# (key, val) and varlen order, then the SRM merge of the same runs sync
# and async), the two-width kernel fuzzer (the pointer-free Rec16 and
# wide Record instantiations must produce identical records and
# identical Stats), the codec round-trip fuzzer (truncated tails and
# bit-flips must surface as ErrCorrupt, never as a panic or silent
# corruption), the in-place varlen parser (CompareExt and VarParts must
# agree with the byte-slice reference parser on arbitrary bytes,
# malformed length prefixes included, and the prefix words must
# coarsen CompareExt), the block wire readers (fixed16 and varlen
# streams of arbitrary bytes, read in random chunks into random block
# sizes, must decode to exactly what per-record ReadRecord decodes and
# end the same way), and the loser tree's operations (random Push,
# Update and Remove on winner and non-winner players, with and without
# a tie hook, checked after every call against a brute-force Min, Len
# and Challenger; words 0, 1, 2^64-2 and 2^64-1 are drawn often, so a
# live player holding the maximal words meets retired ones). Each burst's
# -run names its own target: `go test -fuzz` runs every test of the
# package first otherwise, so each root burst re-ran the whole root
# suite; those tests run in `make check`.
fuzz-smoke:
	go test -run='^FuzzSortStream$$' -fuzz='^FuzzSortStream$$' -fuzztime=20s .
	go test -run='^FuzzParallelMergeEquiv$$' -fuzz='^FuzzParallelMergeEquiv$$' -fuzztime=20s .
	go test -run='^FuzzGallopMergeEquiv$$' -fuzz='^FuzzGallopMergeEquiv$$' -fuzztime=20s .
	go test -run='^FuzzTwoWidthKernelEquiv$$' -fuzz='^FuzzTwoWidthKernelEquiv$$' -fuzztime=20s .
	go test -run='^FuzzCodecRoundTrip$$' -fuzz='^FuzzCodecRoundTrip$$' -fuzztime=20s ./internal/record/
	go test -run='^FuzzCompareExt$$' -fuzz='^FuzzCompareExt$$' -fuzztime=20s ./internal/record/
	go test -run='^FuzzWireBlocks$$' -fuzz='^FuzzWireBlocks$$' -fuzztime=20s ./internal/record/
	go test -run='^FuzzTreeOps$$' -fuzz='^FuzzTreeOps$$' -fuzztime=20s ./internal/ltree/

tables:
	go run ./cmd/tables

tables-full:
	go run ./cmd/tables -full

# The artefacts EXPERIMENTS.md is written against.
verify:
	go test ./... 2>&1 | tee test_output.txt
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
