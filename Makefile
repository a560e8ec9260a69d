# GraphCache build/test entry points. `make ci` runs the gates CI runs,
# so it passes locally exactly when CI would: vet + staticcheck + gofmt
# (`fmt-check`) + the capped kernel panic inventory (`panics`) + the
# capped inventory of exported code under internal/ that only tests call
# (`unused`), the capped count of core.Config's fields (`knobs`), every
# program under examples/ run to a zero exit (`examples`), plus
# the full test suite under the race detector (the concurrency stress and
# equivalence tests in internal/core and internal/server only earn
# their keep with -race armed) and its lock-sensitive core repeated ten
# times (`race-stress`: these runtime tests are what hold the kernel's
# locking, publication and context contracts, listed in
# internal/core/doc.go), the benchmark harness's own smoke test
# (`harness`), the coverage floor (`cover`), a short fuzzing pass
# (`fuzz-smoke`) and the profiled benchmarks (`profiles`, which fail when
# a profiled benchmark calls b.Fatal; CI uploads what they write as an
# artifact).
# Performance is measured by `bash benchmark/run.sh` (BENCHMARK.json),
# not here.

GO ?= go

# Coverage floor enforced by `make cover`. The suite sits at ~83%; the
# floor trails it so refactors have headroom, but a PR that tanks
# coverage fails CI. Raise it when the real number durably rises.
COVER_BASELINE ?= 80.0

.PHONY: build test race race-stress vet staticcheck fmt-check panics unused knobs examples harness cover fuzz-smoke profiles loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-stress repeats the kernel's lock-sensitive tests under the race
# detector — the concurrency gauntlets, the lock-free exact probe held
# against a taken mu, the exact hit's shared Result (published by racing
# first hits, never served across a mutation or to an older view), the
# snapshot writer blocked outside the locks, a restore whose workers
# re-run its patterns while mutations and queries land (none outliving
# ReadState, every entry then answering Method.Run), reconciliation, a query's
# filter and its containment tests kept out from under mu (the *HoldsNoMu
# tests), mutations that wait for no query
# and take no cache lock, a stale-view reader meeting an entry brought past
# its view, readers that must load a published value once re-run while
# another goroutine replaces it (tornread_test.go), and views of Method M
# read while a writer chains copy-on-write inserts behind them — so every
# lock or sharing change pays for many interleavings, not one — and the
# exact hit's lock-free crediting: hits counted in the caller's stripe
# (the credit tables, their fallback to the entry's cell and their drain
# at every fold point) and the stripe picker, so no hit is lost — and the
# matcher's first plan of a fresh pattern, raced by goroutines that bind
# it at once and must all search with the one packed plan published — and
# a graph's first feature vector, raced by goroutines that must all read
# the one vector catch-up memoizes (TestConcurrentFirstFeatures, in
# internal/graph, which the regex's Concurrent names).
race-stress:
	$(GO) test -race -count=10 -run 'Concurrent|ExactProbeTakesNoLock|SnapshotWriterHoldsNoLock|HoldsNoMu|MutationWaitsForNoQuery|MutationTakesNoCacheLock|StaleViewReaderSkipsAheadEntry|RestoreDuringChurn|ExactMemo|ExactHitCredits|CreditsFold|ReadSlot|CreditTable' ./internal/core ./internal/ftv ./internal/iso ./internal/graph

vet:
	$(GO) vet ./...

# staticcheck is optional locally (the sandbox image does not bundle it)
# but mandatory in CI, which installs it first and sets
# STATICCHECK_REQUIRED=1 so a missing binary is a hard failure there
# instead of a skip. A present binary's findings always fail the build.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ "$(STATICCHECK_REQUIRED)" = "1" ]; then \
		echo "staticcheck required but not installed (go install honnef.co/go/tools/cmd/staticcheck@2025.1)"; \
		exit 1; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# fmt-check fails when any tracked Go file is not gofmt-clean, listing
# the offenders, so a diff never mixes a change with a reformat and every
# checkout reads in one layout.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# panics lists every panic( call in the kernel's non-test files — each one
# a way a query, a mutation or a restore can take the daemon down instead
# of degrading to a miss — and fails when there are more than
# PANIC_CEILING. The one left is SelfCheck's, a test oracle that a query
# which disagrees with the uncached method must stop. The ceiling only
# ever comes down: lower it when a panic goes, never raise it to let one
# in.
PANIC_CEILING := 1
panics:
	@out=$$(grep -n 'panic(' $$(ls internal/core/*.go | grep -v '_test\.go$$')); \
	echo "$$out"; \
	n=$$(echo "$$out" | grep -c 'panic('); \
	echo "internal/core: $$n panic call(s)"; \
	if [ "$$n" -gt $(PANIC_CEILING) ]; then \
		echo "internal/core: $$n panic call(s) exceed the committed ceiling of $(PANIC_CEILING)"; exit 1; \
	fi

# unused lists every exported function or method declared in a non-test
# file under internal/ that no non-test .go file calls (benchmark/ counts
# as a caller) — code production carries for its tests alone, which
# staticcheck's U1000 never reports because it skips exported names — and
# fails when there are more than UNUSED_CEILING. A top-level function
# counts as called only through a pkg.Name selector outside its package
# or an unqualified Name inside it, so a function whose name another
# package's function shares is still seen. A method counts as called when
# its name appears on any other non-comment line, so a method whose name
# some other declaration's caller shares passes unseen: ftv.Method's
# Candidates, VerifyCandidate, LiveCount and Epoch had only test callers
# and passed because DatasetView's namesakes are called, until they went;
# Filter.IndexBytes and Method.Filter have no caller outside tests and
# stay for the index bytes of the benefit ledger (ROADMAP item 27). The
# two listed have reasons: graph.InducedSubgraph extracts test patterns
# in the tests of core, ftv, graph and iso, and internal/gen cannot host
# it (gen imports ftv, and through it iso, whose internal tests use it);
# gen.Molecule is the reference TestMoleculesBuiltWithIDs holds
# gen.Molecules to. The ceiling only ever comes down.
UNUSED_CEILING := 2
unused:
	@out=$$(git grep -nE '^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*[[(]' -- 'internal/*.go' ':!*_test.go' | \
	while IFS= read -r decl; do \
		file=$${decl%%:*}; dir=$${file%/*}; \
		name=$$(echo "$$decl" | sed -E 's/^[^:]*:[0-9]+:func (\([^)]*\) )?([A-Za-z0-9_]+).*/\2/'); \
		if echo "$$decl" | grep -qE '^[^:]*:[0-9]+:func \('; then \
			git grep -hwe "$$name" -- '*.go' ':!*_test.go' | grep -vE '^[[:space:]]*//' | \
				sed -E 's/^func (\([^)]*\) )?[A-Za-z0-9_]+//' | grep -qw -e "$$name" && continue; \
		else \
			pkg=$$(sed -n 's/^package //p' "$$file"); \
			git grep -hwE "$$pkg\.$$name" -- '*.go' ':!*_test.go' ":!$$dir/*.go" | grep -qvE '^[[:space:]]*//' && continue; \
			git grep -hE "(^|[^.A-Za-z0-9_])$$name([^A-Za-z0-9_]|$$)" -- "$$dir/*.go" ':!*_test.go' | grep -vE '^[[:space:]]*//' | \
				sed -E 's/^func (\([^)]*\) )?[A-Za-z0-9_]+//' | grep -qE "(^|[^.A-Za-z0-9_])$$name([^A-Za-z0-9_]|$$)" && continue; \
		fi; \
		echo "$${decl%%:func*}: $$name"; \
	done); \
	echo "$$out"; \
	n=$$(echo "$$out" | grep -c ':'); \
	echo "internal/: $$n exported function(s) only tests call"; \
	if [ "$$n" -gt $(UNUSED_CEILING) ]; then \
		echo "internal/: $$n exported function(s) only tests call exceed the committed ceiling of $(UNUSED_CEILING)"; exit 1; \
	fi

# knobs lists every field of core.Config — each a way a caller turns the
# cache, so each owes a caller that sets it, a test and a doc — and fails
# when there are more than CONFIG_CEILING. A line declaring several names
# (`Serialized, SharedWindow, IndexOff, LazyReconcile bool`) counts each.
# The ceiling only ever comes down: ROADMAP item 1(a) takes it to 4
# (Capacity, Window, Policy, SelfCheck) once the four inert fields go
# with the benchmark rows that assign them.
CONFIG_CEILING := 8
knobs:
	@out=$$(awk '/^type Config struct/ { f = 1; next } f && /^}/ { exit } f && !/^[[:space:]]*(\/\/|$$)/' internal/core/core.go | \
		sed -E 's/^[[:space:]]*([A-Za-z_][A-Za-z0-9_]*(, *[A-Za-z_][A-Za-z0-9_]*)*)[[:space:]].*/\1/' | tr ',' '\n' | tr -d ' \t'); \
	echo "$$out"; \
	n=$$(echo "$$out" | grep -c .); \
	echo "core.Config: $$n field(s)"; \
	if [ "$$n" -gt $(CONFIG_CEILING) ]; then \
		echo "core.Config: $$n field(s) exceed the committed ceiling of $(CONFIG_CEILING)"; exit 1; \
	fi

# examples runs every program under examples/ with go run and fails on
# the first that exits non-zero: tier-1 only builds them, so an example
# whose config the cache refuses, or that hits a log.Fatal, would
# otherwise pass. Each runs in well under a second.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d || { echo "$$d exited non-zero"; exit 1; }; \
	done

# Full-suite coverage with a floor: fails when total statement coverage
# drops below COVER_BASELINE percent.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { \
		if (t+0 < b+0) { printf "coverage %.1f%% is below the %.1f%% baseline\n", t, b; exit 1 } \
		printf "coverage %.1f%% (baseline %.1f%%)\n", t, b }'

# pprof on demand: CPU + heap profiles of the kernel's three query
# classes (an exact hit, single and parallel, an indexed miss, a
# sub/super hit and a miss exploiting a dozen hits), of hit detection's
# scan alone (BenchmarkScanIndex: 1 000 resident entries, reporting
# ns/probe and the derefs/probe whose keys pass), of a dataset add and
# remove on a warm cache (each the Method's copy-on-write mutation, no
# pass over the entries), of an add followed by every entry's catch-up on
# it (the containment tests the add leaves for readers), of a window
# turn (the one stop-the-world pass) and of a snapshot restore
# (BenchmarkReadState: 1 000 patterns re-run into a fresh cache), a CPU profile of the daemon's handler on an exact hit and on a
# miss (decode, parse, probe, encode — no transport), one of the
# verification stage alone (a bound subgraph query and one-shot VF2 over
# Method M's candidates on the 5 000-molecule index), one of a pattern's
# first match plan (BenchmarkFirstPlan: graph.MatchPlan on fresh copies
# of those molecules, with B/op and allocs/op), one of the filter's
# query side (GGSX Candidates for subgraph and supergraph queries on that
# index: the trie walk, the posting ANDs and the bloom and forward-row
# scan), CPU + heap profiles of the filter's copy-on-write insert on
# that index, an alloc_space profile of an index build (build_mem.pprof,
# the bytes the index is made of) and a heap profile of the graph layer
# (BenchmarkBuildMolecules, graph_mem.pprof: one Builder.Build per
# harness molecule, a header and a block, 2 allocations a graph), from the
# stock benchmark runner. Inspect with
# `go tool pprof profiles/core.test profiles/core_cpu.pprof` (narrow with
# `-focus 'AddGraph|turnWindow'`; the removal is in `remove_{cpu,mem}.pprof`,
# at a fixed 20 000 removals: each one consumes a live graph the
# benchmark adds back untimed at ~100× a removal's cost, so a b.N sized
# by time never finishes),
# `go tool pprof profiles/server.test profiles/server_cpu.pprof`,
# `go tool pprof profiles/ftv.test profiles/verify_cpu.pprof`,
# `go tool pprof profiles/ftv.test profiles/plan_cpu.pprof`,
# `go tool pprof profiles/ftv.test profiles/filter_cpu.pprof`,
# `go tool pprof profiles/ftv.test profiles/insert_cpu.pprof` or, for the
# bytes an insert allocates,
# `go tool pprof -sample_index=alloc_space profiles/ftv.test profiles/insert_mem.pprof`,
# and, for the bytes an index build allocates (BenchmarkGGSXBuild, every
# allocation sampled: trie nodes, packed posting lists and bitmap blocks,
# the packed forward rows and the walk's scratch),
# `go tool pprof -sample_index=alloc_space profiles/ftv.test profiles/build_mem.pprof`,
# or, for the bytes the last index built still holds (the benchmark keeps
# it in a sink), the same with `-sample_index=inuse_space`,
# `go tool pprof -sample_index=alloc_space profiles/graph.test profiles/graph_mem.pprof`;
# a live daemon serves the same through `gcd -pprof`.
PROFILE_DIR ?= profiles
profiles:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'Benchmark(Execute(ExactHit(Parallel)?|IndexedMiss|SubSuperHit|ManyHits)|ScanIndex|AddGraphWarm|AddThenCatchUp|WindowTurn|ReadState)$$' \
		-cpuprofile $(PROFILE_DIR)/core_cpu.pprof -memprofile $(PROFILE_DIR)/core_mem.pprof \
		-o $(PROFILE_DIR)/core.test ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkRemoveGraphWarm$$' -benchtime 20000x -benchmem \
		-cpuprofile $(PROFILE_DIR)/remove_cpu.pprof -memprofile $(PROFILE_DIR)/remove_mem.pprof \
		-o $(PROFILE_DIR)/core.test ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkHandleQuery(Exact|Miss)$$' -benchmem \
		-cpuprofile $(PROFILE_DIR)/server_cpu.pprof -o $(PROFILE_DIR)/server.test ./internal/server/
	$(GO) test -run '^$$' -bench 'BenchmarkVerifyCandidates$$' -benchtime 1000000x \
		-cpuprofile $(PROFILE_DIR)/verify_cpu.pprof -o $(PROFILE_DIR)/ftv.test ./internal/ftv/
	$(GO) test -run '^$$' -bench 'BenchmarkFirstPlan$$' -benchtime 200000x -benchmem \
		-cpuprofile $(PROFILE_DIR)/plan_cpu.pprof -o $(PROFILE_DIR)/ftv.test ./internal/ftv/
	$(GO) test -run '^$$' -bench 'BenchmarkGGSXCandidates$$' -benchtime 20000x -benchmem \
		-cpuprofile $(PROFILE_DIR)/filter_cpu.pprof -o $(PROFILE_DIR)/ftv.test ./internal/ftv/
	$(GO) test -run '^$$' -bench 'BenchmarkGGSXWithGraph$$' -benchtime 4000x -benchmem \
		-cpuprofile $(PROFILE_DIR)/insert_cpu.pprof -memprofile $(PROFILE_DIR)/insert_mem.pprof \
		-o $(PROFILE_DIR)/ftv.test ./internal/ftv/
	$(GO) test -run '^$$' -bench 'BenchmarkGGSXBuild$$' -benchtime 50x -benchmem \
		-memprofile $(PROFILE_DIR)/build_mem.pprof -memprofilerate 1 \
		-o $(PROFILE_DIR)/ftv.test ./internal/ftv/
	$(GO) test -run '^$$' -bench 'BenchmarkBuildMolecules$$' -benchmem \
		-memprofile $(PROFILE_DIR)/graph_mem.pprof -o $(PROFILE_DIR)/graph.test ./internal/graph/

# loc prints the size of the program: lines of non-test Go outside
# benchmark/ and testdata, per package directory and in total — the one
# number a simplicity change quotes before and after — followed by the
# distance to ROADMAP's two size targets.
LOC_TARGET_CORE := 3500
LOC_TARGET_TOTAL := 14000
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' ! -path './.*' -print0 \
		| xargs -0 awk '{ d = FILENAME; sub(/\/[^\/]*$$/, "", d); n[d]++ } END { for (d in n) printf "%7d %s\n", n[d], d }' \
		| sort -k2 | awk -v tc=$(LOC_TARGET_CORE) -v tt=$(LOC_TARGET_TOTAL) \
			'{ print; t += $$1 } $$2 == "./internal/core" { c = $$1 } \
			END { printf "%7d total\n", t; \
				printf "targets: internal/core %d toward %d (%+d), total %d toward %d (%+d)\n", c, tc, c - tc, t, tt, t - tt }'

# Short native-fuzzing smoke passes: the snapshot reader (every snapshot
# it accepts must restore entries that answer what Method.Run answers),
# the adaptive-bitset differential target (random op sequences vs a naive
# []bool reference, across both containers, sparse and dense), the GGSX layout
# oracle (build + WithGraph chains vs brute-force path counts), the row
# screens' soundness oracle (rows walked across insert chains that create
# trie nodes, every contained pair passing both screens), the
# matcher oracle (VF2 against brute-force enumeration, with a test-only
# Ullmann as second opinion, over all four graph kinds) and the graph
# text parser (never panics; what it accepts survives WriteAll and a
# second parse); the last four have seeds only, no committed corpus.
# The committed corpora under internal/core/testdata/fuzz and
# internal/bitset/testdata/fuzz replay in every plain `go test`; this
# target additionally mutates for a few seconds per target so CI keeps
# probing fresh inputs.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^FuzzReadSnapshot$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^FuzzBitsetOps$$' -fuzz '^FuzzBitsetOps$$' -fuzztime $(FUZZTIME) ./internal/bitset/
	$(GO) test -run '^FuzzGGSXCandidates$$' -fuzz '^FuzzGGSXCandidates$$' -fuzztime $(FUZZTIME) ./internal/ftv/
	$(GO) test -run '^FuzzRowScreens$$' -fuzz '^FuzzRowScreens$$' -fuzztime $(FUZZTIME) ./internal/ftv/
	$(GO) test -run '^FuzzVF2$$' -fuzz '^FuzzVF2$$' -fuzztime $(FUZZTIME) ./internal/iso/
	$(GO) test -run '^FuzzReadAll$$' -fuzz '^FuzzReadAll$$' -fuzztime $(FUZZTIME) ./internal/graph/

# The benchmark harness is a module of its own (benchmark/go.mod) that
# drives internal/* through their public functions, so `./...` from the
# root never compiles it: build and smoke-test it here (all four
# workloads, both modes, 1/20 scale), so an internal API change that
# breaks it fails CI instead of the benchmark driver.
harness:
	$(GO) test -C benchmark ./...

ci: vet staticcheck fmt-check panics unused knobs examples race race-stress harness cover fuzz-smoke profiles
