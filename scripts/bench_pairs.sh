#!/usr/bin/env bash
# Judge the working tree against <base-rev> on the repo benchmark by
# alternating pairs and BENCHMARK.json's own bounds.
#
# The base is exported with `git archive` into a temporary directory, and
# each side builds into its own target dir (a target dir shared by two
# checkouts can hand one side the other's binary). Each workload (default:
# all) runs ten pairs, seeds 1-10, `run_seconds` each, untraced; which side
# goes first alternates. Every run's result line is printed. Then, per
# (workload, end-to-end metric): both medians, the base's quartile
# distance (`statistics.quantiles(values, n=4)`, as benchmark/README.md
# uses), the pairs the change won (ties count for neither), and a verdict:
#   worse       the change's median is worse by more than the bound;
#   gain        >= 9 of 10 pairs won, medians apart by more than the
#               base's quartile distance;
#   unresolved  a side's quartile distance exceeds the bound (as a share
#               of its median) and not every change run beats every base run;
#   same        otherwise.
# Exits 1 on any `worse` or failed run (non-zero exit, or `failed` > 0).
# Appends a "benchmark_pairs" line to results/bench_history.jsonl; its
# "commit" is HEAD, or `<HEAD>+dirty-<hash>` when the working tree differs
# from HEAD (the hash is of `git diff HEAD` and `git status --porcelain`).
# The line also records how busy the host was over the runs, so noisy
# pairs can be told apart from the code: "steal_share", the share of all
# CPU time the hypervisor stole (the `/proc/stat` steal delta over the
# total delta), and "loadavg1_start"/"loadavg1_end", the 1-minute load
# average before the first run and after the last.
#
# Usage: scripts/bench_pairs.sh <base-rev> [workload...]
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/bench_pairs.sh <base-rev> [workload...]"
[ $# -ge 1 ] || { echo "$usage" >&2; exit 2; }
base=$(git rev-parse --short "$1^{commit}")
shift
change=$(git rev-parse --short HEAD)
if [ -n "$(git status --porcelain)" ]; then
    change="$change+dirty-$({ git diff HEAD; git status --porcelain; } | git hash-object --stdin | cut -c1-7)"
fi
pairs=10

# BENCHMARK.json holds one key per line: "seconds S", "workload W" and
# "metric NAME BETTER BOUND" lines.
spec=$(awk -F'"' '
    /"run_seconds"/    { v = $3; gsub(/[^0-9.]/, "", v); print "seconds", v }
    /"workloads": \[/  { sec = "workload" }
    /"end_to_end": \[/ { sec = "metric" }
    /"per_layer": \[/  { sec = "" }
    sec != "" && $2 == "name" { name = $4; if (sec == "workload") print sec, name }
    sec == "metric" && $2 == "better" { better = $4 }
    sec == "metric" && $2 == "bound" { v = $3; gsub(/[^0-9.]/, "", v); print sec, name, better, v }
' BENCHMARK.json)
seconds=$(awk '$1 == "seconds" { print $2 }' <<<"$spec")
metrics=$(awk '$1 == "metric" { print $2 }' <<<"$spec")
workloads=("$@")
[ $# -gt 0 ] || mapfile -t workloads < <(awk '$1 == "workload" { print $2 }' <<<"$spec")
for w in "${workloads[@]}"; do
    awk -v w="$w" '$1 == "workload" && $2 == w { found = 1 } END { exit !found }' <<<"$spec" \
        || { echo "bench_pairs.sh: unknown workload $w" >&2; echo "$usage" >&2; exit 2; }
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
: >"$tmp/runs"
: >"$tmp/medians"
git archive "$base" | tar -x -C "$tmp/base"
declare -A dir=([base]="$tmp/base" [change]="$(pwd)")

# "<steal> <total>" CPU ticks of the host, and its 1-minute load average.
cpu_ticks() {
    awk '$1 == "cpu" { for (i = 2; i <= 9; i++) t += $i; print $9 + 0, t + 0; exit }' /proc/stat
}
loadavg1() { awk '{ print $1 }' /proc/loadavg; }
read -r steal_start ticks_start < <(cpu_ticks)
load_start=$(loadavg1)

fail=0
for w in "${workloads[@]}"; do
    for ((seed = 1; seed <= pairs; seed++)); do
        order=(base change)
        ((seed % 2)) || order=(change base)
        for side in "${order[@]}"; do
            status=0
            out=$(cd "${dir[$side]}" && CARGO_TARGET_DIR="${dir[$side]}/benchmark/target" \
                bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0) \
                || status=$?
            # The result line is the run's last: record "workload metric
            # side seed value" per end-to-end metric, or fail the run.
            awk -v tag="$side $w seed $seed" -v status="$status" -v names="$metrics" \
                -v runs="$tmp/runs" '
                { last = $0 }
                END {
                    printf "%s: %s\n", tag, last
                    failed = match(last, /"failed": [0-9]+/) ? substr(last, RSTART + 10, RLENGTH - 10) : "none"
                    if (status != 0 || failed != "0") {
                        printf "bench_pairs.sh: FAILED run %s (exit %s, failed %s)\n", tag, status, failed > "/dev/stderr"
                        exit 1
                    }
                    split(tag, t, " ")
                    n = split(names, m, "\n")
                    for (i = 1; i <= n; i++)
                        if (match(last, "\"" m[i] "\": \\{\"value\": [^,}]+")) {
                            v = substr(last, RSTART, RLENGTH)
                            sub(/.*: /, "", v)
                            print t[2], m[i], t[1], t[4], v >>runs
                        }
                }' <<<"$out" || fail=1
        done
    done
done

read -r steal_end ticks_end < <(cpu_ticks)
load_end=$(loadavg1)
steal_share=$(awk -v s=$((steal_end - steal_start)) -v t=$((ticks_end - ticks_start)) \
    'BEGIN { printf "%.4f", (t > 0 ? s / t : 0) }')
echo "host: steal share $steal_share, loadavg1 $load_start at start, $load_end at end"

cores=$(nproc 2>/dev/null || echo 0)
cpu=$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || echo unknown)
status=0
awk -v pairs="$pairs" -v medians="$tmp/medians" '
    function sort(a, n,   i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    function median(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
    # Quartile i of statistics.quantiles(a, n=4, method="exclusive").
    function quartile(a, n, i,   j, d) {
        if (n < 2) return a[1]
        j = int(i * (n + 1) / 4)
        j = j < 1 ? 1 : j > n - 1 ? n - 1 : j
        d = i * (n + 1) - 4 * j
        return (a[j] * (4 - d) + a[j + 1] * d) / 4
    }
    FNR == NR { if ($1 == "metric") { better[$2] = $3; bound[$2] = $4 } next }
    {
        key = $1 " " $2
        if (!(key in seen)) { seen[key] = 1; keys[++nk] = key }
        val[key, $3, $4] = $5
    }
    END {
        printf "%-13s %-26s %12s %12s %12s %6s  %s\n", "workload", "metric", "base", "change", "base q-dist", "won", "verdict"
        for (k = 1; k <= nk; k++) {
            split(keys[k], f, " ")
            m = f[2]; lower = better[m] == "lower"; nb = nc = np = won = 0
            for (s = 1; s <= pairs; s++) {
                hb = (keys[k], "base", s) in val; hc = (keys[k], "change", s) in val
                if (hb) b[++nb] = val[keys[k], "base", s] + 0
                if (hc) c[++nc] = val[keys[k], "change", s] + 0
                if (!hb || !hc) continue
                np++
                x = val[keys[k], "base", s] + 0; y = val[keys[k], "change", s] + 0
                won += lower ? y < x : y > x
            }
            if (nb == 0 || nc == 0) { printf "%-13s %-26s no runs on one side\n", f[1], m; worse = 1; continue }
            sort(b, nb); sort(c, nc)
            pm = median(b, nb); cm = median(c, nc)
            pq = quartile(b, nb, 3) - quartile(b, nb, 1); cq = quartile(c, nc, 3) - quartile(c, nc, 1)
            gap = lower ? pm - cm : cm - pm
            beats = lower ? c[nc] < b[1] : c[1] > b[nb]
            if (-gap > bound[m] * pm) { verdict = "worse"; worse = 1 }
            else if (np > 0 && won >= 0.9 * np && gap > pq) verdict = "gain"
            else if ((pq > bound[m] * pm || cq > bound[m] * cm) && !beats) verdict = "unresolved"
            else verdict = "same"
            printf "%-13s %-26s %12.6g %12.6g %12.6g %3d/%-2d  %s\n", f[1], m, pm, cm, pq, won, np, verdict
            printf "%s\"%s/%s\": {\"base\": %.10g, \"change\": %.10g, \"verdict\": \"%s\"}", \
                nm++ ? ", " : "", f[1], m, pm, cm, verdict >medians
        }
        exit worse
    }' <(printf '%s\n' "$spec") "$tmp/runs" || status=1

printf '{"commit": "%s", "recorded": "%s", "bench": "benchmark_pairs", "base": "%s", "cores": %s, "cpu": "%s", "pairs": %s, "seconds": %s, "steal_share": %s, "loadavg1_start": %s, "loadavg1_end": %s, "medians": {%s}}\n' \
    "$change" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$base" "$cores" "$cpu" \
    "$pairs" "$seconds" "$steal_share" "$load_start" "$load_end" \
    "$(<"$tmp/medians")" >>results/bench_history.jsonl

if [ "$fail" -ne 0 ] || [ "$status" -ne 0 ]; then
    echo "bench_pairs.sh: a run failed or a metric is worse than its bound" >&2
    exit 1
fi
echo "bench_pairs.sh: no metric worse than its bound, no failed run"
