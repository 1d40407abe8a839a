# Build and verification tiers. Tier-1 is the gate every change must pass
# (see ROADMAP.md); race adds vet and the race detector over the measured
# plane's real goroutines (sched.Pool, chaos.HostJitter).

GO ?= go

.PHONY: all build test lint fix fix-clean race bench bench-json bench-diff quick smoke clean

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

# Tier-2 verify: static analysis + race detector. The pdes package runs
# again under its non-default disciplines (binary-heap queue +
# chan-broadcast barrier) so every engine hot path stays race-clean and
# result-identical.
race: lint
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -race ./internal/pdes -args -pdes-queue=heap -pdes-barrier=chan

# Full benchmark suite (use BENCH=<regex> to narrow).
BENCH ?= .
bench:
	$(GO) test -bench '$(BENCH)' -benchmem ./...

# Benchmarks plus a quick parallel lab run, merged into one dated JSON
# report. cmd/benchjson keeps each raw benchmark line in the record, so
# benchstat input can be recovered with
#   jq -r '.benchmarks[].raw' BENCH_<date>.json
# and the full lab report (tables, figures, per-experiment metrics) rides
# along under ".lab".
bench-json:
	$(GO) run ./cmd/wastelab -run all -quick -parallel 4 -json LAB_$$(date +%Y-%m-%d).json > /dev/null
	$(GO) test -bench '$(BENCH)' -benchmem ./... | $(GO) run ./cmd/benchjson -lab LAB_$$(date +%Y-%m-%d).json > BENCH_$$(date +%Y-%m-%d).json
	@echo "wrote LAB_$$(date +%Y-%m-%d).json and BENCH_$$(date +%Y-%m-%d).json"

# Regression gate: run the Go benchmarks fresh and compare them against the
# newest committed BENCH_*.json snapshot with benchjson -diff. The comparison
# is suite-relative (log-ratios centered on their median, flag band widened
# under global noise), so a uniformly slower host passes; the exit is
# non-zero only when a benchmark got slower relative to the rest of the
# suite. The snapshot's BenchmarkLab/* pseudo-benchmarks are deliberately not
# regenerated here: quick lab wall times under -parallel 4 depend on which
# experiments are co-scheduled and are too noisy to gate on, so the diff
# covers only the real benchmarks the two reports share. Narrow with
# BENCH=<regex>; compare against a different snapshot with BASELINE=<file>.
BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
bench-diff:
	@test -n "$(BASELINE)" || { echo "bench-diff: no committed BENCH_*.json baseline found"; exit 2; }
	$(GO) test -bench '$(BENCH)' -benchmem ./... | $(GO) run ./cmd/benchjson > /tmp/bench-diff-new.json
	$(GO) run ./cmd/benchjson -diff $(BASELINE) /tmp/bench-diff-new.json

# Daemon smoke test: build cmd/wastelabd, start it, probe /healthz, run one
# quick experiment twice, and assert the repeat is served from the cache.
smoke: build
	sh scripts/smoke-wastelabd.sh

# Fast iteration: shrunken sweeps.
quick:
	$(GO) test -short ./...

clean:
	$(GO) clean ./...
