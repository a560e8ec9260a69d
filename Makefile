# GraphCache build/test entry points. `make ci` is what every PR must
# pass: vet + staticcheck + gofmt (`fmt-check`) + the gclint concurrency
# and hot-path contract analyzers (`lint`, see cmd/gclint), plus the
# full test suite under the race detector (the concurrency stress and
# equivalence tests in internal/core and internal/server only earn
# their keep with -race armed), the benchmark harness's own smoke test
# (`harness`) and a short fuzzing pass (`fuzz-smoke`). Performance is
# measured by `bash benchmark/run.sh` (BENCHMARK.json), not here.

GO ?= go

# Coverage floor enforced by `make cover`. The suite sits at ~83%; the
# floor trails it so refactors have headroom, but a PR that tanks
# coverage fails CI. Raise it when the real number durably rises.
COVER_BASELINE ?= 80.0

.PHONY: build test race vet staticcheck fmt-check lint lint-waivers harness cover fuzz-smoke profiles ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

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
# the offenders. gclint's annotation grammar depends on gofmt layout
# (directives must sit on their own comment line), so this gate runs
# before lint in `make ci`.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# lint runs the repo's own static analyzers (lockorder, cowpublish,
# leaflock, noalloc, snapshotonce, determinism, ctxflow) over every
# package; any finding fails the build. -timings prints the shared
# load/typecheck cost plus per-analyzer wall time to stderr, so a slow
# analyzer is visible the moment it lands. The annotation grammar is
# documented in internal/lint and internal/core/doc.go.
lint:
	$(GO) run ./cmd/gclint -timings ./...

# lint-waivers prints the inventory of every //gclint:ignore in the tree
# with its mandatory reason — the audit surface CI uploads as an artifact.
lint-waivers:
	$(GO) run ./cmd/gclint -waivers ./...

# Full-suite coverage with a floor: fails when total statement coverage
# drops below COVER_BASELINE percent.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { \
		if (t+0 < b+0) { printf "coverage %.1f%% is below the %.1f%% baseline\n", t, b; exit 1 } \
		printf "coverage %.1f%% (baseline %.1f%%)\n", t, b }'

# pprof on demand: CPU + heap profiles of the kernel's two expensive
# query paths (an indexed miss and a sub/super hit) and of its two
# stop-the-world passes (a dataset add and remove on a warm cache, a
# window turn), a CPU profile of the daemon's handler on an exact hit
# and on a miss (decode, parse, probe, encode — no transport), and one of
# the verification stage alone (a bound subgraph query and one-shot VF2
# over Method M's candidates on the 5 000-molecule index), from the
# stock benchmark runner. Inspect with
# `go tool pprof profiles/core.test profiles/core_cpu.pprof` (narrow with
# `-focus 'AddGraph|turnWindow'`),
# `go tool pprof profiles/server.test profiles/server_cpu.pprof` or
# `go tool pprof profiles/ftv.test profiles/verify_cpu.pprof`; a live
# daemon serves the same through `gcd -pprof`.
PROFILE_DIR ?= profiles
profiles:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'Benchmark(Execute(IndexedMiss|SubSuperHit)|(Add|Remove)GraphWarm|WindowTurn)$$' \
		-cpuprofile $(PROFILE_DIR)/core_cpu.pprof -memprofile $(PROFILE_DIR)/core_mem.pprof \
		-o $(PROFILE_DIR)/core.test ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkHandleQuery(Exact|Miss)$$' -benchmem \
		-cpuprofile $(PROFILE_DIR)/server_cpu.pprof -o $(PROFILE_DIR)/server.test ./internal/server/
	$(GO) test -run '^$$' -bench 'BenchmarkVerifyCandidates$$' -benchtime 1000000x \
		-cpuprofile $(PROFILE_DIR)/verify_cpu.pprof -o $(PROFILE_DIR)/ftv.test ./internal/ftv/

# Short native-fuzzing smoke passes: the persistence v2 parser, the
# adaptive-bitset differential target (random op sequences vs a naive
# []bool reference, across every container mix), the GGSX layout
# oracle (build + WithGraph chains vs brute-force path counts), the
# matcher oracle (VF2 / Ullmann / brute-force enumeration over all four
# graph kinds) and the graph text parser (never panics; what it accepts
# survives WriteAll and a second parse); the last three have seeds only,
# no committed corpus. The committed corpora under
# internal/core/testdata/fuzz and internal/bitset/testdata/fuzz replay in
# every plain `go test`; this target additionally mutates for a few
# seconds per target so CI keeps probing fresh inputs.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^FuzzReadState$$' -fuzz '^FuzzReadState$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^FuzzReadSnapshot$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^FuzzBitsetOps$$' -fuzz '^FuzzBitsetOps$$' -fuzztime $(FUZZTIME) ./internal/bitset/
	$(GO) test -run '^FuzzParseAnnotation$$' -fuzz '^FuzzParseAnnotation$$' -fuzztime $(FUZZTIME) ./internal/lint/
	$(GO) test -run '^FuzzGGSXCandidates$$' -fuzz '^FuzzGGSXCandidates$$' -fuzztime $(FUZZTIME) ./internal/ftv/
	$(GO) test -run '^FuzzVF2$$' -fuzz '^FuzzVF2$$' -fuzztime $(FUZZTIME) ./internal/iso/
	$(GO) test -run '^FuzzReadAll$$' -fuzz '^FuzzReadAll$$' -fuzztime $(FUZZTIME) ./internal/graph/

# The benchmark harness is a module of its own (benchmark/go.mod) that
# drives internal/* through their public functions, so `./...` from the
# root never compiles it: build, smoke-test (all four workloads, both
# modes, 1/20 scale) and lint it here, so an internal API change that
# breaks it fails CI instead of the benchmark driver.
harness:
	$(GO) test -C benchmark ./...
	$(GO) run ./cmd/gclint -C benchmark ./...

ci: vet staticcheck fmt-check lint race harness fuzz-smoke
