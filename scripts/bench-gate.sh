#!/usr/bin/env bash
# Benchmark gate: runs every tenbench workload on the merge base of
# <base-ref> and HEAD, then on the working tree, and exits with
# tenbench -compare's code: 0 when no metric is worse than its bound,
# 1 on a worse metric or a rise in fail_ratio, 2 on a missing workload or
# metric. Run it from a checkout with history back to the merge base:
#
#   bash scripts/bench-gate.sh origin/main
#
# The change's cmd/tenbench measures both sides; if it does not build
# against the base, the gate exits 2. The results files and the comparison
# stay in .bench_build/gate; the comparison ends with both sides' suite
# tables digest and "tables: identical" or "tables: differ", which does not
# change the exit code.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: bash scripts/bench-gate.sh <base-ref>" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git merge-base "$1" HEAD)
wt="$root/.bench_build/base"
out="$root/.bench_build/gate"
rm -rf "$wt" "$out"
git worktree prune
git worktree add -q --detach "$wt" "$base"
trap 'git -C "$root" worktree remove --force "$wt" || true' EXIT
rm -rf "$wt/cmd/tenbench"
cp -R cmd/tenbench "$wt/cmd/tenbench"

# bench <checkout> <out-dir> succeeds when it leaves a results file: a run
# whose checks failed exits 1 but still writes one, and -compare judges it.
bench() {
	(cd "$1" && bash cmd/tenbench/bench.sh --workload all --seed 1 --trace 0 -out "$2") ||
		[ -f "$2/all-seed1.json" ]
}
bench "$wt" "$out/base" || {
	echo "bench-gate: no results for base $base; does this cmd/tenbench build against it?" >&2
	exit 2
}
bench "$root" "$out/change" || { echo "bench-gate: no results for the change" >&2; exit 2; }
status=0
.bench_build/bin/tenbench -compare "$out/base/all-seed1.json" "$out/change/all-seed1.json" \
	>"$out/compare.txt" || status=$?

# The lab tables must stay byte-identical unless a change explains why;
# the suite's digest of them goes on record next to the comparison.
tables() {
	grep -o '"suite.tables_sha256": *"[0-9a-f]*"' "$1" | grep -o '[0-9a-f]\{64\}' || echo missing
}
bt=$(tables "$out/base/all-seed1.json")
ct=$(tables "$out/change/all-seed1.json")
{
	echo "suite.tables_sha256 base   $bt"
	echo "suite.tables_sha256 change $ct"
	if [ "$bt" = "$ct" ] && [ "$bt" != missing ]; then echo "tables: identical"; else echo "tables: differ"; fi
} >>"$out/compare.txt"
cat "$out/compare.txt"
exit "$status"
