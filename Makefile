# Build and verification tiers. Tier-1 is the gate every change must pass
# (see ROADMAP.md); race adds vet and the race detector over the measured
# plane's real goroutines (sched.Pool, chaos.HostJitter).

GO ?= go

.PHONY: all build test lint fix fix-clean race bench quick smoke clean

all: test

build:
	$(GO) build ./...

# Tier-1 verify: must stay green.
test: build
	$(GO) test ./...

# Waste-mode static analysis (internal/lint via cmd/wastevet): determinism
# guards plus the W1/W5/W7/W8/W9/W10 source-level mirrors. Fails on any
# unsuppressed finding; LINT_JSON=<path> additionally writes the machine-
# readable findings report.
lint:
	$(GO) run ./cmd/wastevet $(if $(LINT_JSON),-json $(LINT_JSON)) ./...

# Apply every suggested fix in place (fix), or assert that doing so changes
# nothing (fix-clean — the CI gate: a tree where wastevet -fix would edit
# files means a mechanical cleanup was committed half-done).
fix:
	$(GO) run ./cmd/wastevet -fix ./...

fix-clean: fix
	git diff --exit-code

# Tier-2 verify: static analysis + race detector.
race: lint
	$(GO) vet ./...
	$(GO) test -race ./...

# Go benchmarks (use BENCH=<regex> to narrow). The end-to-end benchmark is
# cmd/tenbench; scripts/bench-gate.sh <base-ref> compares it across commits.
BENCH ?= .
bench:
	$(GO) test -bench '$(BENCH)' -benchmem ./...

# Daemon smoke test: build cmd/wastelabd, start it, probe /healthz, run one
# quick experiment twice, and assert the repeat is served from the cache.
smoke: build
	sh scripts/smoke-wastelabd.sh

# Fast iteration: shrunken sweeps.
quick:
	$(GO) test -short ./...

clean:
	$(GO) clean ./...
