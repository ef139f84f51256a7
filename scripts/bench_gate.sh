#!/usr/bin/env bash
# Session-throughput regression gate.
#
# Runs the `session_throughput` bench and compares events/sec per
# protocol against the most recent entry in results/bench_history.jsonl
# that carries a session_throughput record. A protocol more than 15%
# below its recorded baseline fails the gate — that is well outside
# normal same-machine noise for this bench and catches accidental
# hot-path regressions before they land.
#
# The box drifts about ±10 % run to run, so one reading below a floor is
# not yet a regression: that protocol is re-measured up to twice more,
# and it fails only when all three readings are below its floor. Every
# reading is printed.
#
# Opt out with MSS_SKIP_BENCH_GATE=1 (e.g. on a busy, throttled, or
# different-class machine where absolute events/sec are not comparable
# to the recorded baseline).
#
# Usage: scripts/bench_gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

history="results/bench_history.jsonl"

if [ "${MSS_SKIP_BENCH_GATE:-0}" = "1" ]; then
    echo "bench_gate.sh: skipped (MSS_SKIP_BENCH_GATE=1)"
    exit 0
fi

if [ ! -s "$history" ]; then
    echo "bench_gate.sh: no $history — nothing to gate against"
    exit 0
fi

# Latest history line with a *parseable* session_throughput record; its
# events/sec live in the first {...} after "session_throughput". Entries
# whose schema we can't parse are skipped with a loud warning — a
# malformed or future-format line must not brick the gate.
baseline=""
while IFS= read -r line; do
    candidate=$(sed -e 's/.*"session_throughput"[^{]*{[^{]*{//' -e 's/}.*//' <<<"$line")
    if grep -Eq '"[A-Za-z0-9_-]+": *[0-9]+' <<<"$candidate"; then
        baseline="$candidate"
        break
    fi
    echo "bench_gate.sh: WARNING — skipping unparseable session_throughput entry:" >&2
    echo "bench_gate.sh: WARNING —   ${line:0:160}" >&2
done < <(grep '"session_throughput"' "$history" | tac)

if [ -z "$baseline" ]; then
    echo "bench_gate.sh: no parseable session_throughput entry in $history"
    exit 0
fi

# One bench run, as "<protocol> <events/s>" lines:
# "  DCoP/n100   13.68 ms/iter (0.657 Melem/s)" -> "DCoP <eps>"
measure() {
    cargo bench -p mss-bench --bench session_throughput </dev/null | awk '
    /Melem\/s/ {
        name = $1
        sub(/\/.*/, "", name)
        melem = $(NF-1)
        sub(/^\(/, "", melem)
        printf "%s %.0f\n", name, melem * 1e6
    }'
}

current=$(measure)

if [ -z "$current" ]; then
    echo "bench_gate.sh: no session_throughput lines parsed from bench output" >&2
    exit 1
fi

fail=0
while read -r proto eps; do
    base=$(sed -n "s/.*\"$proto\": *\([0-9][0-9]*\).*/\1/p" <<<"$baseline")
    if [ -z "$base" ]; then
        echo "bench_gate.sh: $proto — no recorded baseline, skipping"
        continue
    fi
    floor=$((base * 85 / 100))
    readings="$eps"
    for _ in 1 2; do
        [ "$eps" -lt "$floor" ] || break
        echo "bench_gate.sh: $proto read $eps events/s, below floor $floor; re-measuring"
        eps=$(measure | awk -v p="$proto" '$1 == p { print $2 }')
        eps=${eps:-0}
        readings="$readings $eps"
    done
    if [ "$eps" -lt "$floor" ]; then
        echo "bench_gate.sh: FAIL $proto — readings $readings events/s all >15% below baseline $base (floor $floor)" >&2
        fail=1
    else
        echo "bench_gate.sh: ok   $proto — readings $readings events/s vs baseline $base (floor $floor)"
    fi
done <<<"$current"

if [ "$fail" -ne 0 ]; then
    echo "bench_gate.sh: session throughput regressed; rerun on a quiet machine or set MSS_SKIP_BENCH_GATE=1 to bypass" >&2
    exit 1
fi
echo "bench_gate.sh: all protocols within 15% of the recorded baseline"
