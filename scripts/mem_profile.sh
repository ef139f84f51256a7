#!/usr/bin/env bash
# Population-scale recorder: run `examples/large_world.rs` (the sim
# substrate's per-point measuring tool) at a configurable population
# and record peak RSS, events/sec and the event digest into the bench
# history (`mem_scale` entry). It records what is; regressions are
# judged by scripts/bench_pairs.sh.
#
# The example itself reports peak RSS (`VmHWM` from procfs) and
# events/sec on stdout; this script parses those lines and appends one
# compact JSON line to results/bench_history.jsonl, tagged with commit,
# core count, and CPU model (machine-checkable provenance for the
# "1-core CI box" caveat).
#
# Usage: scripts/mem_profile.sh [n] [shards] [protocol]
#   Defaults: n=100000, shards=4, protocol=dcop.
#   MEM_NOTE="context string" scripts/mem_profile.sh   # annotate
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

n="${1:-100000}"
shards="${2:-4}"
protocol="${3:-dcop}"
history="results/bench_history.jsonl"

cargo build --release --example large_world

out=$(./target/release/examples/large_world "$n" "$shards" "$protocol")
echo "$out"

eps=$(awk '/^events\/sec/ {print $NF}' <<<"$out")
rss_mib=$(awk '/^peak RSS/ {print $(NF-1)}' <<<"$out")
events=$(awk '/^events dispatched/ {print $NF}' <<<"$out")
wall=$(awk '/^wall clock/ {print $(NF-1)}' <<<"$out")
activated=$(awk -F'[ /]+' '/^peers activated/ {print $4}' <<<"$out")
digest=$(awk '/^event digest/ {print $NF}' <<<"$out")

if [ -z "$eps" ] || [ -z "$rss_mib" ]; then
    echo "mem_profile.sh: could not parse events/sec or peak RSS from the run" >&2
    exit 1
fi

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
cores=$(nproc 2>/dev/null || echo 0)
cpu=$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || echo unknown)

{
    printf '{"commit": "%s", "recorded": "%s", "bench": "mem_scale", "cores": %s, "cpu": "%s"' \
        "$commit" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$cores" "$cpu"
    if [ -n "${MEM_NOTE:-}" ]; then
        printf ', "note": "%s"' "$MEM_NOTE"
    fi
    printf ', "n": %s, "shards": %s, "protocol": "%s"' "$n" "$shards" "$protocol"
    printf ', "activated": %s, "events": %s, "wall_s": %s' \
        "${activated:-0}" "${events:-0}" "${wall:-0}"
    if [ -n "$digest" ]; then
        printf ', "event_digest": "%s"' "$digest"
    fi
    case "$protocol" in
        dcop) proto_key="DCoP" ;;
        tcop) proto_key="TCoP" ;;
        *) proto_key="$protocol" ;;
    esac
    printf ', "peak_rss_mib": %s, "events_per_sec": {"%s/n%s/shards%s": %s}}\n' \
        "$rss_mib" "$proto_key" "$n" "$shards" "$eps"
} >>"$history"

echo "mem_profile.sh: mem_scale entry appended to $history"
