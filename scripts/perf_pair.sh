#!/usr/bin/env bash
# Interleaved before/after runs of one lpa-perf workload, or of all of them.
#
#   scripts/perf_pair.sh <parent-ref> <workload>|all <pairs> [lpa-perf options]
#
# Builds `crates/lpa-perf` of <parent-ref> and of the change, each from its
# own `git archive` export into its own target directory, then runs <pairs>
# pairs of (parent, change), alternating which side goes first. Prints one
# JSON object on stdout: per metric, each side's runs, median and quartiles
# and the pairs the change won (ties count for neither side); a table goes
# to stderr. With `all`, every workload BENCHMARK.json names is measured in
# turn (its pairs interleaved as above) and the object is keyed by workload.
# Anything after <pairs> is handed to lpa-perf unchanged (`--seed 12`,
# `--trace 1`, `--size tiny`, `--seconds 5`).
#
# The change is the work tree as git sees it (index plus edits to tracked
# files — `git add` new files first), or HEAD when the tree is clean;
# PERF_PAIR_CHANGE=<ref> picks another commit. Exports and builds are kept
# per commit under PERF_PAIR_DIR (default: $TMPDIR/lpa-perf-pair) and reused.
set -euo pipefail

if [ "$#" -lt 3 ]; then
    # The comment block above is the usage text.
    awk 'NR > 1 && /^#/ { sub(/^# ?/, ""); print; next } NR > 1 { exit }' "$0" >&2
    exit 2
fi
parent_ref=$1
workload=$2
pairs=$3
shift 3

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=${PERF_PAIR_DIR:-${TMPDIR:-/tmp}/lpa-perf-pair}
mkdir -p "$work"
work=$(cd "$work" && pwd)

parent=$(git -C "$repo" rev-parse --verify "$parent_ref^{commit}")
if [ -n "${PERF_PAIR_CHANGE:-}" ]; then
    change=$(git -C "$repo" rev-parse --verify "$PERF_PAIR_CHANGE^{commit}")
else
    change=$(git -C "$repo" stash create)
    change=${change:-$(git -C "$repo" rev-parse HEAD)}
fi

# Export one commit and build its benchmark; echoes the executable's path.
build() {
    local sha=$1 dir=$work/$1
    local bin=$dir/target/release/lpa-perf
    if [ ! -x "$bin" ]; then
        rm -rf "$dir"
        mkdir -p "$dir/src"
        git -C "$repo" archive "$sha" | tar -x -C "$dir/src"
        # From inside the export, so its own .cargo/config.toml applies.
        (cd "$dir/src" && CARGO_TARGET_DIR=$dir/target cargo build --release --quiet \
            --offline --manifest-path crates/lpa-perf/Cargo.toml) >&2
    fi
    echo "$bin"
}
parent_bin=$(build "$parent")
change_bin=$(build "$change")

if [ "$workload" = all ]; then
    workloads=$(python3 -c 'import json, sys
print(*(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$repo/BENCHMARK.json")
else
    workloads=$workload
fi

runs=$(mktemp "$work/runs.XXXXXX")
trap 'rm -f "$runs"' EXIT
run_side() {
    local side=$1 bin=$2 name=$3 pair=$4 line
    line=$("$bin" --workload "$name" "${@:5}" 2>/dev/null | tail -n 1) || true
    case $line in
    '{'*)
        printf '{"workload":"%s","side":"%s","pair":%d,"result":%s}\n' \
            "$name" "$side" "$pair" "$line" >>"$runs"
        ;;
    *)
        echo "perf_pair: $side run of $name pair $pair printed no result line" >&2
        exit 1
        ;;
    esac
}
for name in $workloads; do
    for ((i = 0; i < pairs; i++)); do
        echo "perf_pair: $name pair $((i + 1))/$pairs" >&2
        if ((i % 2 == 0)); then
            run_side parent "$parent_bin" "$name" "$i" "$@"
            run_side change "$change_bin" "$name" "$i" "$@"
        else
            run_side change "$change_bin" "$name" "$i" "$@"
            run_side parent "$parent_bin" "$name" "$i" "$@"
        fi
    done
done

python3 - "$runs" "$repo/BENCHMARK.json" "$parent" "$change" "$workload" "$*" <<'PY'
import json, statistics, sys

runs_path, bench_path, parent, change, requested, options = sys.argv[1:7]
all_runs = [json.loads(line) for line in open(runs_path)]
bench = json.load(open(bench_path))
better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

def side_summary(values):
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1
        else [values[0]] * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "runs": values}

def summarise(workload, runs):
    """One workload's report, its table on stderr; (report, all runs correct)."""
    sides = {"parent": {}, "change": {}}
    ok = True
    for run in runs:
        result = run["result"]
        ok &= result["correct"] and result["failed"] == 0
        sides[run["side"]][run["pair"]] = result

    metrics = {}
    names = list(next(iter(sides["parent"].values()))["metrics"])
    for name in names:
        p = [sides["parent"][i]["metrics"][name]["value"] for i in sorted(sides["parent"])]
        c = [sides["change"][i]["metrics"][name]["value"] for i in sorted(sides["change"])]
        lower = better.get(name, "lower") == "lower"
        won = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        lost = sum((b > a) if lower else (b < a) for a, b in zip(p, c))
        metrics[name] = {
            "unit": sides["parent"][0]["metrics"][name]["unit"],
            "better": "lower" if lower else "higher",
            "parent": side_summary(p),
            "change": side_summary(c),
            "pairs_won": won,
            "pairs_lost": lost,
        }

    report = {
        "parent": parent,
        "change": change,
        "workload": workload,
        "options": options,
        "pairs": len(sides["parent"]),
        "all_correct": bool(ok),
        "attempted": {s: [sides[s][i]["attempted"] for i in sorted(sides[s])] for s in sides},
        "failed": {s: [sides[s][i]["failed"] for i in sorted(sides[s])] for s in sides},
        "metrics": metrics,
    }

    w = max(len(n) for n in names)
    print(f"{workload}\n{'metric':<{w}}  {'parent median [q1, q3]':>36}  {'change median [q1, q3]':>36}  won/lost", file=sys.stderr)
    for name, m in metrics.items():
        cell = lambda s: f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
        print(
            f"{name:<{w}}  {cell(m['parent']):>36}  {cell(m['change']):>36}  "
            f"{m['pairs_won']}/{m['pairs_lost']} of {report['pairs']}  ({m['unit']}, {m['better']} is better)",
            file=sys.stderr,
        )
    return report, ok

by_workload = {}
for run in all_runs:
    by_workload.setdefault(run["workload"], []).append(run)
reports = {workload: summarise(workload, runs) for workload, runs in by_workload.items()}
if requested == "all":
    print(json.dumps({workload: report for workload, (report, _) in reports.items()}))
else:
    print(json.dumps(reports[requested][0]))
sys.exit(0 if all(ok for _, ok in reports.values()) else 1)
PY
