# Build and verification tiers. Tier-1 is the gate every change must pass
# (see ROADMAP.md); race adds vet and the race detector over the measured
# plane's real goroutines (sched.Pool, which Lab.RunAll and the tuner run
# on, its trace.Recorder, and the serve daemon).

GO ?= go

.PHONY: all build test lint fix fix-clean race fuzz bench quick smoke examples clean

all: test

build:
	$(GO) build ./...

# Tier-1 verify: must stay green.
test: build
	$(GO) test ./...

# Formatting gate, then waste-mode static analysis (internal/lint via
# cmd/wastevet): determinism guards plus the W1/W5/W7/W8/W9/W10 source-level
# mirrors. Fails on any tracked Go file gofmt would change (build output such
# as .bench_build/ is not walked) or any unsuppressed finding;
# LINT_JSON=<path> additionally writes the machine-readable findings report.
lint:
	@unformatted=$$(git ls-files -z '*.go' | xargs -0 gofmt -l); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need gofmt -w:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/wastevet $(if $(LINT_JSON),-json $(LINT_JSON)) ./...

# Apply every suggested fix in place (fix), or assert that doing so changes
# nothing (fix-clean — the CI gate: a tree where wastevet -fix would edit
# files means a mechanical cleanup was committed half-done).
fix:
	$(GO) run ./cmd/wastevet -fix ./...

fix-clean: fix
	git diff --exit-code

# Tier-2 verify: static analysis + race detector. The last two lines rerun
# at GOMAXPROCS 1, 2 and 4: the engine's default-worker tests exercise the
# window loop with 0, 1 and 3 helper goroutines, the obs instruments, the
# daemon's request accounting and the replay of T12's simulated decisions
# against the daemon see 1, 2 and 4 Ps, and so does the one sched.Pool
# that Lab.RunAll and the tuner's batch evaluation share: its own tests,
# which drive every loop through its one instrument, the trace.Recorder,
# and the RunAll and ParallelEval tests of core and tune.
race: lint
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 ./internal/pdes ./internal/obs ./internal/sched ./internal/serve ./internal/serve/sim
	$(GO) test -race -short -cpu 1,2,4 -run 'RunAll|ParallelEval' ./internal/core ./internal/tune

# Native fuzzing: run every Fuzz* target of the module for FUZZTIME each
# (go test fuzzes one target per invocation). Seed corpora live under each
# package's testdata/fuzz/ and also run as plain tests in make test; a
# failing input the fuzzer finds is written there too.
FUZZTIME ?= 10s
fuzz:
	@for dir in $$($(GO) list -f '{{.Dir}}' ./...); do \
		for f in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$dir/*_test.go 2>/dev/null); do \
			echo "== $$f ($$dir)"; \
			$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) $$dir || exit 1; \
		done; \
	done

# Go benchmarks (use BENCH=<regex> to narrow). The end-to-end benchmark is
# cmd/tenbench; scripts/bench-gate.sh <base-ref> compares it across commits.
BENCH ?= .
bench:
	$(GO) test -bench '$(BENCH)' -benchmem ./...

# Daemon smoke test: build cmd/wastelabd, start it, probe /healthz, run one
# quick experiment twice, and assert the repeat is served from the cache.
smoke: build
	sh scripts/smoke-wastelabd.sh

# Build every example and run each binary from the module root; the first
# non-zero exit fails the target. simulate is the runtime user of the public
# Put/PutSignal path. About 7 s with the build on two cores.
EXAMPLES_BIN ?= .examples_build
examples:
	$(GO) build -o $(EXAMPLES_BIN)/ ./examples/...
	@for b in $(EXAMPLES_BIN)/*; do echo "== $$b"; $$b || { echo "examples: $$b failed" >&2; exit 1; }; done

# Fast iteration: shrunken sweeps.
quick:
	$(GO) test -short ./...

clean:
	$(GO) clean ./...
