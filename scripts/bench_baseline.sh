#!/usr/bin/env bash
# Record the harness sweeps in results/bench_history.jsonl, one compact
# JSON line each, tagged with commit, core count and CPU model:
#
#   - `scaling`: events/sec of the sharded kernel (bench "scaling");
#   - `view_bytes`: control-plane bytes per peer per round (bench
#     "view_bytes");
#   - `live_scale`: events/sec of the live plane on loopback UDP (bench
#     "live_scale").
#
# A sweep that fails or writes no CSV is a hard error — no silent skips.
# Regressions are judged by scripts/bench_pairs.sh, not here: this
# script records what is.
#
# Usage: scripts/bench_baseline.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

history="results/bench_history.jsonl"

# Hardware provenance for every recorded entry: the ROADMAP's
# "re-measure scaling on real hardware" caveat is machine-checkable
# when each line says how many cores it had (shards>1 speedups on a
# 1-core box are working-set effects, not parallelism).
cores=$(nproc 2>/dev/null || echo 0)
cpu=$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || echo unknown)
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

record_live_scale() {
    # Live network plane: the live host on real loopback UDP
    # up to n=2·10^3, appended to the history as its own line
    # (events/sec per point). Works without sendmmsg/recvmmsg too — the
    # runtime falls back to single-syscall I/O when the batched calls
    # are unavailable (or when MSS_NO_MMSG=1 forces the fallback), so
    # this entry records numbers on every kernel. Opt out with
    # MSS_SKIP_LIVE=1.
    if [ "${MSS_SKIP_LIVE:-0}" = "1" ]; then
        echo "bench_baseline.sh: live-plane sweep skipped (MSS_SKIP_LIVE=1)"
        return 0
    fi
    if ! cargo run --release -q -p mss-harness -- live_scale; then
        echo "bench_baseline.sh: live-plane sweep failed" >&2
        exit 1
    fi
    local points="results/live_scale.csv"
    if [ ! -s "$points" ]; then
        echo "bench_baseline.sh: live-plane sweep wrote no CSV" >&2
        exit 1
    fi
    {
        printf '{"commit": "%s", "recorded": "%s", "bench": "live_scale", "cores": %s, "cpu": "%s", "mmsg": %s, "events_per_sec": {' \
            "$commit" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$cores" "$cpu" \
            "$([ "${MSS_NO_MMSG:-0}" = "1" ] && echo false || echo true)"
        # protocol,n,wall_s,done_s,msgs,events_per_sec,... (keys keep the
        # "ready/" prefix of the older history lines)
        awk -F, 'NR > 1 {
            key = sprintf("ready/%s/n%s", $1, $2)
            printf "%s\"%s\": %.0f", (n++ ? ", " : ""), key, $6
        }' "$points"
        printf '}}\n'
    } >>"$history"
    echo "bench_baseline.sh: live-plane sweep appended to $history"
}

record_view_bytes() {
    # Control-plane byte curve: per-peer-per-round bytes of the same
    # session under the fixed-bitmap model and the adaptive codec
    # actually framed on the wire. Seconds of wall clock (three
    # deterministic sessions per protocol). Opt out with
    # MSS_SKIP_VIEW_BYTES=1.
    if [ "${MSS_SKIP_VIEW_BYTES:-0}" = "1" ]; then
        echo "bench_baseline.sh: view-bytes sweep skipped (MSS_SKIP_VIEW_BYTES=1)"
        return 0
    fi
    if ! cargo run --release -q -p mss-harness -- view_bytes; then
        echo "bench_baseline.sh: view-bytes sweep failed" >&2
        exit 1
    fi
    local csv="results/view_bytes.csv"
    if [ ! -s "$csv" ]; then
        echo "bench_baseline.sh: view-bytes sweep wrote no $csv" >&2
        exit 1
    fi
    {
        printf '{"commit": "%s", "recorded": "%s", "bench": "view_bytes", "cores": %s, "cpu": "%s", "bytes_per_peer_round": {' \
            "$commit" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$cores" "$cpu"
        # protocol,n,rounds,model_B,wire_B,model_B_ppr,wire_B_ppr,adaptive_cut
        awk -F, 'NR > 1 {
            key = sprintf("%s/n%s", $1, $2)
            printf "%s\"%s/model\": %s, \"%s/wire\": %s", \
                (n++ ? ", " : ""), key, $6, key, $7
        }' "$csv"
        printf '}}\n'
    } >>"$history"
    echo "bench_baseline.sh: view-bytes sweep appended to $history"
}

# Sharded-kernel scaling sweep: events/sec for DCoP and TCoP at
# n ∈ {100, 10^3, 10^4, 10^5} × shards ∈ {1, 4, max cores}, appended to
# the history as its own line. Minutes of wall-clock at n=10^5 — opt out
# with MSS_SKIP_SCALING=1 when only the other two sweeps matter, or
# MSS_SCALING_FULL=0 to keep the sweep but stop at n=10^4 (slow boxes:
# the single-shard TCoP baseline at 10^5 runs tens of minutes).
if [ "${MSS_SKIP_SCALING:-0}" = "1" ]; then
    echo "bench_baseline.sh: scaling sweep skipped (MSS_SKIP_SCALING=1)"
    record_view_bytes
    record_live_scale
    exit 0
fi
scaling_args=(scaling)
if [ "${MSS_SCALING_FULL:-1}" = "1" ]; then
    scaling_args+=(--full)
fi
if ! cargo run --release -q -p mss-harness -- "${scaling_args[@]}"; then
    echo "bench_baseline.sh: scaling sweep failed" >&2
    exit 1
fi
scaling_csv="results/scaling.csv"
if [ ! -s "$scaling_csv" ]; then
    echo "bench_baseline.sh: scaling sweep wrote no $scaling_csv" >&2
    exit 1
fi
{
    printf '{"commit": "%s", "recorded": "%s", "bench": "scaling", "cores": %s, "cpu": "%s", "events_per_sec": {' \
        "$commit" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$cores" "$cpu"
    # protocol,n,shards,events,wall_s,events_per_sec,activated,complete,imbalance
    awk -F, 'NR > 1 {
        key = sprintf("%s/n%s/shards%s", $1, $2, $3)
        printf "%s\"%s\": %.0f", (n++ ? ", " : ""), key, $6
    }' "$scaling_csv"
    printf '}}\n'
} >>"$history"
echo "bench_baseline.sh: scaling sweep appended to $history"

record_view_bytes
record_live_scale
