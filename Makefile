# DOoC reproduction — convenience targets.

GO ?= go

.PHONY: all build test race bench bench-smoke bench-check debugtag perf-gate vet fmt fuzz figures experiments clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/obs/ ./internal/storage/ ./internal/core/ ./internal/datacutter/ ./internal/simnet/ ./internal/mfdn/ ./internal/bfs/ ./internal/remote/ ./internal/scheduler/ ./internal/faults/ ./internal/compress/ ./internal/jobs/ ./internal/jobstore/ ./internal/cluster/ ./internal/proxy/ ./internal/sparse/ ./internal/lanczos/

# Short fuzz pass over every codec round trip, the frame decoder, the
# word-at-a-time delta-varint decoder against its byte-at-a-time oracle, the
# CRS block parser, the remote protocol's frame reader (both ends, after a
# valid hello), and the job journal's replay (arbitrary bytes as the WAL after
# a valid snapshot, raw and framed with a correct CRC). Minimizing an input — a new interesting one, or a crash —
# stops after 100 executions: Go's default is 60 s, so one KB-long input
# could take a target's whole 10 s budget.
fuzz:
	for target in FuzzRawRoundTrip FuzzDeltaVarint64RoundTrip FuzzDeltaVarint32RoundTrip FuzzFloatShuffleRoundTrip FuzzLZDecode FuzzDecodeFrame FuzzDeltaVarintDecodeInto; do \
		$(GO) test -run "^$$target$$" -fuzz "^$$target$$" -fuzztime 10s -fuzzminimizetime 100x ./internal/compress/ || exit 1; \
	done
	$(GO) test -run '^FuzzDecodeCRS$$' -fuzz '^FuzzDecodeCRS$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/sparse/
	$(GO) test -run '^FuzzReadFrame$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/remote/
	$(GO) test -run '^FuzzReplayWAL$$' -fuzz '^FuzzReplayWAL$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/jobstore/

bench:
	$(GO) test -bench=. -benchmem ./...

# One-iteration pass over every benchmark — catches benchmark bit-rot in CI
# without paying for stable timings. allocs/op is still reported and is the
# number the zero-copy hot path work tracks.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem ./...

# The regression benchmark (bench/, a module of its own that `go test ./...`
# never sees): its own tests — BENCHMARK.json against spec.go, the span and
# statistics code — then every workload once at smoke size against its
# oracle, so the benchmark's schema and oracles cannot rot between the PRs
# that run it in full. `go vet ./...` and gofmt at the root never descend into
# a nested module, so both run here too.
bench-check:
	(cd bench && $(GO) vet ./... && test -z "$$(gofmt -l .)" && $(GO) test ./...) && bash bench/run.sh -short

# View-lifetime enforcement build: the doocdebug tag turns zero-copy views
# (float64 views of lease bytes in storage, CRS block views in sparse) into
# private copies poisoned on lease release, so use-after-release reads fail
# loudly.
debugtag:
	$(GO) test -tags doocdebug ./internal/storage/ ./internal/core/ ./internal/sparse/

# Perf regression gate, ten allocation and ratio checks. The hot path's
# result is pinned bit for bit by TestHotPathResultPinned in internal/core,
# which `make test` runs. Its allocations are gated here: the same solve
# (BenchmarkIteratedSpMVRun/hotpath: 4000² at d = 8, K = 5 over 5 nodes,
# staged on scratch, a budget of K blocks + ½ block + 64 KiB, 4 iterations an
# op) may take at most 558 allocations an engine iteration ("allocs/iter",
# over 10 ops after a warm-up run). That ceiling is the highest reading at
# GOMAXPROCS 1 and 2 (539.8; the count repeats to within ±2) plus 3.5 %,
# rounded down; re-derive it, never upward, whenever the engine's
# allocations fall. The same ceiling holds for the same solve with every
# block's CRC checked in the I/O filter that read it
# (BenchmarkIteratedSpMVRun/hotpath-iofilter). Wall-clock is reported but
# deliberately not gated (CI runners have no stable clock). A view of a staged DOOCCRS2 block,
# multiplied, must report 0 allocs/op — every section of it aliases the
# block — and, the one time gate, take at most 1.05 × what the same loop takes
# over the same matrix as an uncompressed DOOCCRS1 block ("x-v1"): a ratio of
# two timings interleaved in one process, so it holds on any machine. The
# pair kernel of a mirrored (symmetric) set, one pass over a staged block for
# both partials of its pair, must report 0 allocs/op and take at most 1.15 ×
# the two gathers over the full grid's pair it replaces ("x-gathers", the
# same interleaving; ≈ 0.95 when calm). A worker's poll of the DAG's ready
# set (BenchmarkReadyAppend, at every wake-up) must report 0 allocs/op too,
# and so must a warm buffer-arena round trip at each of the workloads' block
# sizes (BenchmarkArenaGetPut): a Get that misses its class allocates. So
# must a copy-out read of a basis-vector block (BenchmarkReadBlockFloat64s),
# resident and from its slot on scratch: its request, I/O job and reply are
# pooled, and the scratch file is already open. So must a scheduling pick's
# residency question (BenchmarkResidentQuery: 8 candidate blocks, asked of a
# store holding 16 readable arrays and of one holding 256), and the 256-array
# store may take at most 1.25 × the 16-array one's time ("x-16", the same
# interleaving; ≈ 1.0 when calm): a pick costs its candidates, not what else
# is resident. Building a matrix is gated
# on memory, not time: generating the benchmark's 3000² matrix at d = 8
# (BenchmarkGapMatrix) may allocate at most 14,108,000 B in 5 allocations in
# its general form and 21,191,000 B in 11 in its symmetric one, and staging it
# on a K=4 grid over 2 nodes (BenchmarkStageMatrix) at most 2,017,000 B in 445
# allocations full and 1,455,000 B in 379 mirrored — each what the one-pass
# generator and stager measured (12,826,016 B / 5; 19,264,928 B / 10;
# 1,834,333 B / 405; 1,322,974 B / 345) plus 10 %, rounded down. ns/op is
# reported only. A triplet list, a sort, or a block built before it is
# encoded shows as megabytes. A peer push over a loopback connection
# (BenchmarkPeerPut, a 12 KB vector part and a 96 KB mapped-class block)
# may allocate at most 1,348 B an op at either size: its payload is read into
# an arena buffer and given back, so what is left is the frame's headers and
# bookkeeping. That is the highest reading at GOMAXPROCS 1 and 2 (1,226 B in
# 13 allocations at both sizes, since the headers' struct-valued fields became
# pointers; 3,318 B in 15 before) plus 10 %, rounded down; a payload back on
# the heap shows as 12 KB or 96 KB more (gob framing took 29,670 B and
# 208,665 B).
perf-gate:
	$(GO) test -run '^$$' -bench '^BenchmarkIteratedSpMVRun$$/^hotpath' -benchtime 10x -benchmem ./internal/core/ | \
		awk '{print} /^BenchmarkIteratedSpMVRun\/hotpath/ {seen++; for (i = 2; i <= NF; i++) if ($$i == "allocs/iter" && $$(i-1) > 558) bad = 1} END {exit seen != 2 || bad}'
	$(GO) test -run '^$$' -bench '^BenchmarkViewCRS2$$' -benchtime 200x -benchmem ./internal/sparse/ | \
		awk '{print} /^BenchmarkViewCRS2/ {seen = 1; if ($$(NF-1) > 0) bad = 1; for (i = 2; i <= NF; i++) if ($$i == "x-v1" && $$(i-1) > 1.05) bad = 1} END {exit !seen || bad}'
	$(GO) test -run '^$$' -bench '^BenchmarkMulVecPair$$' -benchtime 200x -benchmem ./internal/sparse/ | \
		awk '{print} /^BenchmarkMulVecPair/ {seen = 1; if ($$(NF-1) > 0) bad = 1; for (i = 2; i <= NF; i++) if ($$i == "x-gathers" && $$(i-1) > 1.15) bad = 1} END {exit !seen || bad}'
	$(GO) test -run '^$$' -bench '^BenchmarkReadyAppend$$' -benchmem ./internal/dag/ | \
		awk '{print} /^BenchmarkReadyAppend/ {seen++; if ($$(NF-1) > 0) bad = 1} END {exit seen != 2 || bad}'
	$(GO) test -run '^$$' -bench '^BenchmarkArenaGetPut$$' -benchtime 10000x -benchmem ./internal/storage/ | \
		awk '{print} /^BenchmarkArenaGetPut/ {seen++; if ($$(NF-1) > 0) bad = 1} END {exit seen != 4 || bad}'
	$(GO) test -run '^$$' -bench '^BenchmarkReadBlockFloat64s$$' -benchtime 2000x -benchmem ./internal/storage/ | \
		awk '{print} /^BenchmarkReadBlockFloat64s/ {seen++; if ($$(NF-1) > 0) bad = 1} END {exit seen != 2 || bad}'
	$(GO) test -run '^$$' -bench '^BenchmarkResidentQuery$$' -benchtime 20000x -benchmem ./internal/storage/ | \
		awk '{print} /^BenchmarkResidentQuery/ {seen = 1; if ($$(NF-1) > 0) bad = 1; for (i = 2; i <= NF; i++) if ($$i == "x-16" && $$(i-1) > 1.25) bad = 1} END {exit !seen || bad}'
	$(GO) test -run '^$$' -bench '^BenchmarkGapMatrix$$' -benchtime 10x -benchmem ./internal/sparse/ | \
		awk '{print} /^BenchmarkGapMatrix\/general/ {seen++; if ($$(NF-3) > 14108000 || $$(NF-1) > 5) bad = 1} \
			/^BenchmarkGapMatrix\/symmetric/ {seen++; if ($$(NF-3) > 21191000 || $$(NF-1) > 11) bad = 1} END {exit seen != 2 || bad}'
	$(GO) test -run '^$$' -bench '^BenchmarkStageMatrix$$' -benchtime 10x -benchmem ./internal/core/ | \
		awk '{print} /^BenchmarkStageMatrix\/full/ {seen++; if ($$(NF-3) > 2017000 || $$(NF-1) > 445) bad = 1} \
			/^BenchmarkStageMatrix\/mirrored/ {seen++; if ($$(NF-3) > 1455000 || $$(NF-1) > 379) bad = 1} END {exit seen != 2 || bad}'
	$(GO) test -run '^$$' -bench '^BenchmarkPeerPut$$' -benchtime 2000x -benchmem ./internal/remote/ | \
		awk '{print} /^BenchmarkPeerPut/ {seen++; if ($$(NF-3) > 1348) bad = 1} END {exit seen != 2 || bad}'

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Regenerate the figure artifacts committed under figures/.
figures:
	$(GO) run ./cmd/doocplot -out figures

# Print every table and figure, paper vs reproduction.
experiments:
	$(GO) run ./cmd/doocbench -exp all

clean:
	$(GO) clean ./...
