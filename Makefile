# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet loc flags test chaos chaos-cluster bench bench-json bench-check bench-yannakakis bench-stream bench-wcoj bench-e2e bench-e2e-quick fuzz experiments clean

all: build vet loc flags test

build:
	go build ./...

vet:
	go vet ./...
	gofmt -l .

# Non-test Go lines per package and in total (bench/ is its own module and
# is not counted): net lines removed is ROADMAP's headline metric, so the
# total is a ceiling. A PR that must grow it raises LOC_CEILING in the same
# diff, where a reviewer sees it; one that shrinks it lowers the ceiling
# to its own total. Raised 20697 -> 20797 by the kept connection (PR 24):
# 100 lines — the client's idle list, Close and its call sites, open_conns —
# for x0.6 p50 latency and x1.4-1.6 throughput on the paper's traffic
# through a server and through the fleet (CHANGES.md has every run).
# Lowered to 20730 by routing without knobs (PR 25). Raised 20730 -> 20799
# by the full reducer's seed walk (PR 26): 69 lines — the walk, its seed,
# EXPLAIN's seed and ⋉→ column — for x1.75 throughput on selective-acyclic
# (CHANGES.md has the runs). Raised 20799 -> 20884 by the late bag join
# (PR 27): 85 lines — per-atom views and counts, the join deferred until a
# bag is a semijoin's source, atom-wise filtering, EXPLAIN's per-atom
# column and the docs they change — for x0.20 server_peak_bytes_per_req
# on selective-acyclic (CHANGES.md has the runs). Lowered to 20851 in
# PR 28, but not by removing code: one structural analysis per query
# (jointree.Analyze) added about 68 lines, and moving about 101 lines of
# test-only helpers (treedec.IsChordal/IsPerfectEliminationOrder/FillIn,
# graph.MaxDegree/Connected, jointree.Tree.Nodes, core.InducedWidth) into
# the tests that call them took the total below the old ceiling.
# Lowered to 20727 by one key rule for every hash kernel
# (relation/key.go): it deleted the join keyer and its alignment, the
# byte packers of the dedup table, StreamTable and StreamFilter, and the
# semijoin probe; the bitmap key set the three semijoin kernels now share
# took back less than they freed. Raised 20727 -> 20740 by appending
# join rows without a dedup table: 13 lines — the append path and the
# bookkeeping helper it shares with commitStaged, net of the spill
# header's regime word and Load's eager table rebuild, which went — for
# x1.3 throughput on wide-answer (CHANGES.md has the runs). Lowered to
# 20709 by serving answers in the executor's order: the packed-key
# answer sort went, for one arena copy and a comparator SortedTuples.
# Lowered to 20631 by looking semijoin keys up in a per-arena column
# index: the index and its kernel paths took back less than deleting
# Select, SelectEq, Union, Intersect, Difference, Semijoin and
# SemijoinLimited freed.
# Lowered to 20110 by deleting the subplan cache: engine.Cache, its
# walker, pushdown and EXPLAIN hooks, and the harness's cache knobs.
# Raised 20110 -> 20130 by resident columnar leapfrog indexes: 20 lines
# (the per-arena sorted-index map, health's resident_index_bytes) net of
# the per-run dedupe map and the index's Limit plumbing, for x1.16
# throughput on cyclic-dense (CHANGES.md has the runs).
# Lowered to 19922 by deleting the harness's fleet, spill, admission-cap
# and resilient modes and their five cmd/experiments flags.
# Lowered to 18918 by deleting spill-to-disk, which no measured request needed.
# Raised 18918 -> 18942 by joins that probe a stored view's column index (x1.24 wide-answer throughput) and benchjson stamps blind to BENCH_*.json rewrites.
# Raised 18942 -> 19022 by pipeline builds that copy nothing their input
# holds: 80 lines — StreamTable's resident and adopted constructors and
# Freeze, streamJoin's build paths and their EXPLAIN mark, the probe
# table's full charge, and projpushd's -debug listener — for a lower
# server_peak_bytes_per_req on cyclic-dense (CHANGES.md has the runs).
# Lowered to 18592 by one path per job: the coordinator routes on a hash
# of (method, text) and no longer compiles what its workers compile (its
# routes memo went), cmd/sqlgen folded into projpush -sql, and the JSON
# workload suites (internal/workload, -suite, -emitsuite) went.
# Raised 18592 -> 18620 by writing answers from the result arena to the
# socket: 28 lines — the Answer's reference to its result relation, the
# frame-buffer pool WriteFrame and ReadFrame share and its 1 MiB cap, and
# the block written from the arena or a relay's rows — for no answer copy
# and no per-frame buffer on either end (CHANGES.md has the runs).
# Lowered to 18456 by one entry point per verb: each executor is one
# constructor returning an engine.Fallback, and the facade's 19 per-executor
# wrappers and uncalled re-exports went behind Run and Explain.
# Raised 18456 -> 18633 by the size-only rule's free-variable arm (177
# lines net of the deleted homomorphism helpers): the second bag walk and
# bag covers that walk only the atoms a bag touches, the union-find path of
# acyclic.IsAcyclic that keeps GYO off binary queries, route split into
# the rule, cascade and tierPlan, the leapfrog join's seek budget
# (ErrWorkLimit) with the cascade's pick behind it — without it a Boolean
# query with no witness backtracks through 3^n colorings — and the bounds
# in the verdict, explain and request log; for x2.5 throughput on
# structured-families (CHANGES.md has the runs).
# Lowered to 18621 by folding the stream routing tier (mid_width) into
# bucket elimination: streamWidth, core.StreamPlan and tierPlan went.
# Lowered to 18415 by one structural package: joingraph, acyclic and
# hypertree became files of jointree, and GYO's join forest, hypertree's
# Decomposition type, Estimate and unreachable errors, treedec.Trivial,
# Decomposition.Clone and Decomposition.Path, none of which non-test code
# called, went.
# Raised 18415 -> 18454 by preparing the leapfrog join once per compiled
# text: 39 lines — the plan a Fallback holds and revalidates per run
# (wplan, its lead atoms and its check against the run's database,
# relation.SameArena) net of the per-run prepare it replaces — for x1.55
# throughput on structured-families, x1.38 on fleet-structured and x1.15
# on cyclic-dense (CHANGES.md has the runs).
# Raised 18454 -> 18542 by run bitmaps in the sorted index: 88 lines — a
# two-column index keeps each depth-0 value's run as a bitmap when that is
# no bigger than its columns, and leapfrog ANDs them at levels of last
# columns (markBitLevels, intersectBits) and ends a last column's run at
# pos+1 without a seek, net of the wcojAtom pair it replaces — for the
# cyclic-dense throughput in CHANGES.md's paired runs.
# Raised 18542 -> 18642 by joins that read a stored view's sorted index:
# 100 lines — the index's start offsets and O(1) run lookup, the join's
# two-pass path over them with its exact-size arena, and the docs they
# change, net of SortedIndex.Depths, which only tests called — for the
# wide-answer throughput and server_peak_bytes_per_req in CHANGES.md's
# paired runs.
# Raised 18642 -> 18722 by a full reducer without waste: 80 lines — the
# bag tree held per compiled text and revalidated per run (the held tree,
# its bound views and seed, a run's per-bag state in slices indexed like
# it), the skip rule's per-bag change counts and per-edge records, phase
# 5's joins onto a subset schema run as semijoins or, between whole bags,
# not at all, EXPLAIN's per-phase semijoin counts, and the sorted index
# looked up without allocating — for the selective-acyclic
# server_peak_bytes_per_req in CHANGES.md's paired runs.
# Raised 18722 -> 18851 by projecting a join as it is written: 129 lines —
# JoinProjectLimited's dedup path on both key paths, its output sized once
# (min(J, R) rows, or within the join's arena on the doubling sequences),
# the full reducer's fused last joins and lone bags formed in phase 5, the
# tuple block appended in one helper, and their comments — for the
# wide-answer throughput and server_peak_bytes_per_req in CHANGES.md's
# paired runs.
LOC_CEILING = 18851
# The package count (cmd/, examples/ and the facade included), under the
# same rule: a package split out of another needs one folded or deleted,
# or PKG_CEILING raised in the same diff. Set to 35 when joingraph,
# acyclic and hypertree folded into jointree (ROADMAP item 27).
PKG_CEILING = 35
loc:
	@go list -f '{{.Dir}} {{.ImportPath}}' ./... | while read dir pkg; do \
		n=$$(ls $$dir/*.go | grep -v '_test\.go$$' | xargs cat | wc -l); \
		printf '%6d  %s\n' $$n $$pkg; \
	done | awk '{ print; total += $$1; pkgs++ } END { \
		printf "%6d  total (ceiling $(LOC_CEILING))\n", total; \
		printf "%6d  packages (ceiling $(PKG_CEILING))\n", pkgs; \
		exit total > $(LOC_CEILING) || pkgs > $(PKG_CEILING) }'

# projpushd's flags, under the same rule: a flag per feature is what the
# roadmap's design aim argues against, so a new one needs an old one
# deleted, or FLAG_CEILING raised in the same diff. Lowered 25 -> 22 when
# -method, -streamwidth and -wcojagm became constants (PR 25).
# Lowered 22 -> 20 when -spilldir and -maxspill went with spill-to-disk.
# Raised 20 -> 21 by -debug, the opt-in net/http/pprof and expvar listener
# (ROADMAP item 1's first slice): profiles come from the server itself
# instead of a harness, and it serves nothing unless it is set.
# cmd/experiments' flags have their own ceiling under the same rule: the
# harness measures the paper's figures, so a serving feature gets no flag
# there (projpushd, projpush and bench already serve, drill and measure
# them). Set to 13 when -connect, -spilldir, -maxspill, -maxwidth and
# -resilient went.
# cmd/projpush's flags get a ceiling under the same rule, set to its count
# when -suite and -emitsuite went with the JSON workload suites (24 -> 22),
# which cmd/experiments and -emitquery/-query already did: a new flag
# needs an old one deleted, or the ceiling raised in the same diff.
FLAG_CEILING = 21
EXP_FLAG_CEILING = 13
PROJPUSH_FLAG_CEILING = 22
flags:
	@n=$$(go run ./cmd/projpushd -h 2>&1 | grep -c '^  -'); \
		echo "$$n  projpushd flags (ceiling $(FLAG_CEILING))"; \
		test $$n -le $(FLAG_CEILING)
	@n=$$(go run ./cmd/experiments -h 2>&1 | grep -c '^  -'); \
		echo "$$n  cmd/experiments flags (ceiling $(EXP_FLAG_CEILING))"; \
		test $$n -le $(EXP_FLAG_CEILING)
	@n=$$(go run ./cmd/projpush -h 2>&1 | grep -c '^  -'); \
		echo "$$n  cmd/projpush flags (ceiling $(PROJPUSH_FLAG_CEILING))"; \
		test $$n -le $(PROJPUSH_FLAG_CEILING)

# bench/ is a frozen module that compiles against the engine's and the
# server's API: vetting it here makes an API change that breaks it fail
# locally, not in the pipeline's benchmark run.
test:
	go vet -C bench ./...
	go test ./...
	go test -race . ./internal/engine ./internal/resilience ./internal/relation ./internal/experiments ./internal/pgplanner ./internal/server/... ./internal/cluster

# The serving-layer acceptance drill: concurrent retrying clients vs a
# server with network + engine faults injected, under the race detector.
chaos:
	go test -race -run '^TestChaosDrill$$' -timeout 60s -count=1 -v ./internal/server

# The fleet acceptance drill: a 4-worker fleet under a coordinator with
# 2 workers hard-killed and restarted mid-run, the worker.kill chaos
# loop armed, and network faults tearing coordinator connections, plus
# the healthy-fleet differential check against the single-process
# oracle — all under the race detector.
chaos-cluster:
	go test -race -run '^TestWorkerLossChaosDrill$$|^TestFleetDifferentialAgainstOracle$$' -timeout 60s -count=1 -v ./internal/cluster

# One iteration per benchmark: regenerates every figure series quickly.
bench:
	go test -bench=. -benchmem -benchtime 1x .

# Kernel microbenchmarks (open-addressing join/dedup vs map baselines,
# zero-copy scan rename) recorded as JSON for trend tracking,
# plus the engine/harness suite: the iterator-join kernel port and the
# pull pipeline on a figure workload, harness scaling by worker count, the answer frame's encode/decode (wide and Boolean,
# with the frame size as frame-bytes), and one request/response pair on
# loopback over a kept connection against a dialed one. The planner suite covers the incremental bitset DP,
# island GEQO by worker count, and the bucket-queue/bitset elimination
# orders, each against the map-based baseline it replaced, plus the
# server's front end per request on the 16 structured texts — first seen
# (BenchmarkCompile/miss) and seen before (hit) — and the full reducer's
# join-tree build on augmented-ladder-40. The routing
# suite is the matrix of every server route × the cyclic shapes and the
# selective acyclic ones, each cell what that tier runs for a methodless
# request (both plan tiers on the pull pipeline), with the router's regret
# against each row's best (regret, regret-max, regret-total), plus the admission AGM bound on
# augmented-ladder-40 and the cost of the size-only routing rule (all of
# assess where its precheck skips it and where it fires). The matrix times
# each cell as the median of 21 samples of at least 10 ms, taken in rounds
# that interleave a row's routes, so a drift in the host's speed reaches a
# row's cells alike (two recordings of one commit agree within 5 % on a
# regret row unless two of its routes are within ~10 % of each other);
# -benchtime 1x is the one extra run per cell that measures its B/op and
# peak-bytes. Each series is
# written to an untracked .tmp file and renamed after: redirecting into the
# committed file truncates it before benchjson runs `git describe --dirty`,
# so the stamp would read dirty even on a clean tree.
bench-json:
	go test ./internal/relation -run '^$$' -bench '^BenchmarkKernel' -benchmem \
		| go run ./cmd/benchjson > BENCH_relation.json.tmp && mv BENCH_relation.json.tmp BENCH_relation.json
	@cat BENCH_relation.json
	go test ./internal/engine ./internal/experiments ./internal/server/... -run '^$$' \
		-bench '^BenchmarkEngine|^BenchmarkHarness|^BenchmarkServerAnswerFrame|^BenchmarkClientRoundTrip' -benchmem \
		| go run ./cmd/benchjson > BENCH_engine.json.tmp && mv BENCH_engine.json.tmp BENCH_engine.json
	@cat BENCH_engine.json
	go test ./internal/pgplanner ./internal/treedec ./internal/server ./internal/engine -run '^$$' \
		-bench '^BenchmarkPlanner|^BenchmarkOrder|^BenchmarkCompile|^BenchmarkJoinTreeBuild' -benchmem \
		| go run ./cmd/benchjson > BENCH_planner.json.tmp && mv BENCH_planner.json.tmp BENCH_planner.json
	@cat BENCH_planner.json
	go test . -run '^$$' -bench '^BenchmarkYannakakis' -benchmem -benchtime 3x \
		| go run ./cmd/benchjson > BENCH_yannakakis.json.tmp && mv BENCH_yannakakis.json.tmp BENCH_yannakakis.json
	@cat BENCH_yannakakis.json
	{ go test . -run '^$$' -bench '^BenchmarkStream(Chain|Spider|AugPath)' -benchmem -benchtime 3x; \
	  go test . -run '^$$' -bench '^BenchmarkStreamStructured' -benchmem -benchtime 200ms; } \
		| go run ./cmd/benchjson > BENCH_stream.json.tmp && mv BENCH_stream.json.tmp BENCH_stream.json
	@cat BENCH_stream.json
	{ go test . -run '^$$' -bench '^BenchmarkWCOJ(Triangle|FourCycle|Clique)' -benchmem -benchtime 3x; \
	  go test . -run '^$$' -bench '^BenchmarkWCOJEndToEndSize' -benchmem; } \
		| go run ./cmd/benchjson > BENCH_wcoj.json.tmp && mv BENCH_wcoj.json.tmp BENCH_wcoj.json
	@cat BENCH_wcoj.json
	{ go test ./internal/server -run '^$$' -bench '^BenchmarkRoutingMatrix' -benchmem -benchtime 1x; \
	  go test ./internal/server -run '^$$' -bench '^BenchmarkAdmission(AGM|Rule)' -benchmem; } \
		| go run ./cmd/benchjson > BENCH_routing.json.tmp && mv BENCH_routing.json.tmp BENCH_routing.json
	@cat BENCH_routing.json

# Every BENCH_*.json this Makefile names must be in the tree: a series
# that bench-json writes and nobody committed is a number nobody can
# compare against (one series went missing that way for four PRs). Each
# must also be stamped from a clean tree: a -dirty stamp names no commit
# that reproduces it.
bench-check:
	@for f in $$(grep -o 'BENCH_[a-z0-9]*\.json' Makefile | sort -u); do \
		test -f $$f || { echo "$$f is named in the Makefile but missing: run make bench-json and commit it" >&2; exit 1; }; \
		if grep -q '"commit": "[^"]*-dirty"' $$f; then \
			echo "$$f is stamped from a dirty tree: re-record it with make bench-json on a clean checkout of a code commit" >&2; exit 1; \
		fi; \
	done

# The full-reducer-vs-plan-method series on acyclic selective workloads
# (the stats-bytes metric in the text output is the peak Stats.Bytes
# acceptance signal; B/op tracks it in the JSON).
bench-yannakakis:
	go test . -run '^$$' -bench '^BenchmarkYannakakis' -benchmem -benchtime 3x

# The pushdown-on-vs-off peak-memory series of the pull pipeline on the
# same selective workloads (the acceptance signal is maxrows, the largest
# materialized state: stream at least 5x under the iterator arm on chain
# and spider at equal-or-better latency, with peak-bytes no higher; the
# iterator's builds over whole stored relations hold no bytes, so its
# peak-bytes no longer counts them), and BenchmarkStreamStructured, the other side: the augmented
# circular ladder at orders 5-40, where the phase skips itself and the
# stream arm has to match the iterator's, both at a fraction of the
# walker's peak-bytes (200 ms a cell, not 3 runs: its cells start at 0.2 ms).
bench-stream:
	go test . -run '^$$' -bench '^BenchmarkStream(Chain|Spider|AugPath)' -benchmem -benchtime 3x
	go test . -run '^$$' -bench '^BenchmarkStreamStructured' -benchmem -benchtime 200ms

# The worst-case-optimal-vs-binary-plan series on dense cyclic workloads
# (triangle, 4-cycle, clique coloring; the acceptance signal is wcoj
# latency or peak-bytes at least 5x under bucket elimination), and the
# triangle and 4-cycle at the end-to-end benchmark's size with the time
# split into index build and enumeration (build-ns, enumerate-ns).
bench-wcoj:
	go test . -run '^$$' -bench '^BenchmarkWCOJ' -benchmem -benchtime 3x

# The through-the-wire benchmark of BENCHMARK.json (bench/ is its own
# module): every workload against a real projpushd child and a 4-worker
# fleet, every answer verified; results land in bench/out/. The quick
# run is the same with 200 requests per workload (< 15 s).
bench-e2e:
	go run -C bench .

bench-e2e-quick:
	go run -C bench . -quick

fuzz:
	go test ./internal/cqparse -run '^$$' -fuzz 'FuzzParse$$' -fuzztime 30s
	go test ./internal/sqlparse -fuzz 'FuzzParse$$' -fuzztime 30s
	go test ./internal/sqlparse -fuzz 'FuzzParseNaive$$' -fuzztime 30s
	go test ./internal/server -run '^$$' -fuzz 'FuzzReadFrame$$' -fuzztime 30s
	go test ./internal/relation -run '^$$' -fuzz 'FuzzSortedIndexOrder$$' -fuzztime 30s
	go test ./internal/relation -run '^$$' -fuzz 'FuzzSemijoinKeys$$' -fuzztime 30s
	go test ./internal/relation -run '^$$' -fuzz 'FuzzJoinResident$$' -fuzztime 30s
	go test ./internal/relation -run '^$$' -fuzz 'FuzzJoinProject$$' -fuzztime 30s
	go test ./internal/relation -run '^$$' -fuzz 'FuzzStreamBuild$$' -fuzztime 30s

# Paper-scale sweeps with timeouts (slow; see -scale to shrink).
experiments:
	go run ./cmd/experiments -figure all

clean:
	go clean ./...
