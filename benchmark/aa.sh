#!/usr/bin/env bash
# A/A check: two sets (A, B) of three full runs of the same binary, the sets
# alternating run by run, on every workload. Prints, per (workload, metric),
# the two medians, their relative difference and the metric's bound, and
# exits non-zero if any difference exceeds its bound.
#   bash benchmark/aa.sh > benchmark/AA.md
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/eclipse-aa.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")"

for w in $workloads; do
	for rep in 1 2 3; do
		for set in A B; do
			bash "$here/run.sh" --workload "$w" --seed "$rep" --seconds "$seconds" --trace 0 | tail -n 1 >"$tmp/$w.$set.$rep.json"
		done
	done
done

python3 - "$root/BENCHMARK.json" "$tmp" <<'EOF'
import json, statistics, sys

bench, tmp = json.load(open(sys.argv[1])), sys.argv[2]
print("# A/A: two alternating sets of three runs of one binary\n")
print("Seeds 1, 2, 3 in both sets; `diff` is (B - A) / A on the medians.\n")
print("| workload | metric | median A | median B | diff | bound | |")
print("|---|---|---:|---:|---:|---:|---|")
breaches = 0
for w in (x["name"] for x in bench["workloads"]):
    runs = {s: [json.load(open(f"{tmp}/{w}.{s}.{r}.json")) for r in (1, 2, 3)] for s in "AB"}
    for s in "AB":
        for r in runs[s]:
            if not r["correct"]:
                sys.exit(f"{w}: a run of set {s} reported incorrect output")
    for m in bench["end_to_end"]:
        a, b = (statistics.median(r["metrics"][m["name"]]["value"] for r in runs[s]) for s in "AB")
        diff = (b - a) / a
        ok = abs(diff) <= m["bound"]
        breaches += not ok
        print(f"| {w} | {m['name']} | {a:.5g} | {b:.5g} | {diff:+.2%} | {m['bound']:.3g} | {'' if ok else 'BREACH'} |")
print(f"\n{breaches} breach(es).")
sys.exit(1 if breaches else 0)
EOF
