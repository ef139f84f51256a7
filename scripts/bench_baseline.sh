#!/usr/bin/env bash
# Record the performance baseline in BENCH_kernel.json.
#
# Runs two benches and converts the shim's stable stdout lines into one
# JSON document:
#
#   - `session_throughput` (one full n=100 streaming session per
#     iteration): "DCoP/n100  13.68 ms/iter (0.657 Melem/s)" becomes
#     events/sec per protocol;
#   - `coding_kernels` (word-wide XOR / nibble-table GF(256) vs their
#     scalar baselines): "kernel_h7/1024  1.23 µs/iter (5678.9 MiB/s)"
#     becomes MiB/s per case, so kernel-vs-scalar speedups can be read
#     straight out of the JSON.
#
# Run it before and after kernel changes and diff the JSON to judge
# hot-loop work. A missing or broken bench binary is a hard error — no
# silent skips.
#
# Every run is also appended as one compact JSON line to
# results/bench_history.jsonl, so the trend across kernel changes
# survives; the output file (BENCH_kernel.json by default) always holds
# the latest run.
#
# Usage: scripts/bench_baseline.sh [output.json]
#   BENCH_NOTE="context string" scripts/bench_baseline.sh   # annotate
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

out="${1:-BENCH_kernel.json}"
history="results/bench_history.jsonl"

# Hardware provenance for every recorded entry: the ROADMAP's
# "re-measure scaling on real hardware" caveat is machine-checkable
# when each line says how many cores it had (shards>1 speedups on a
# 1-core box are working-set effects, not parallelism).
cores=$(nproc 2>/dev/null || echo 0)
cpu=$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || echo unknown)

# Benches run with stderr passed through: a missing bench target or a
# compile error must fail this script, not vanish into a null redirect.
run_bench() {
    local name="$1"
    if ! cargo bench -p mss-bench --bench "$name"; then
        echo "bench_baseline.sh: bench '$name' failed to build or run" >&2
        exit 1
    fi
}

session_raw=$(run_bench session_throughput)
kernels_raw=$(run_bench coding_kernels)
views_raw=$(run_bench view_codec)

{
    printf '{\n'
    printf '  "recorded": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "cores": %s,\n' "$cores"
    printf '  "cpu": "%s",\n' "$cpu"
    if [ -n "${BENCH_NOTE:-}" ]; then
        printf '  "note": "%s",\n' "$BENCH_NOTE"
    fi

    printf '  "session_throughput": {\n'
    printf '    "events_per_sec": {\n'
    awk '
    /Melem\/s/ {
        # "  DCoP/n100   13.68 ms/iter (0.657 Melem/s)"
        name = $1
        sub(/\/.*/, "", name)
        melem = $(NF-1)
        sub(/^\(/, "", melem)
        protos[++n] = name
        eps[n] = melem * 1e6
    }
    END {
        if (n == 0) {
            print "bench_baseline.sh: no session_throughput lines parsed" > "/dev/stderr"
            exit 1
        }
        for (i = 1; i <= n; i++)
            printf "      \"%s\": %.0f%s\n", protos[i], eps[i], (i < n ? "," : "")
    }' <<<"$session_raw"
    printf '    }\n'
    printf '  },\n'

    printf '  "coding_kernels": {\n'
    printf '    "mib_per_sec": {\n'
    awk '
    # Group headers are unindented single-word lines; entries look like
    # "  kernel_h7/1024   1.23 us/iter (5678.901 MiB/s)".
    /^[a-z_]+$/ { group = $1; next }
    /MiB\/s/ {
        rate = $(NF-1)
        sub(/^\(/, "", rate)
        names[++n] = group "/" $1
        mibs[n] = rate
    }
    END {
        if (n == 0) {
            print "bench_baseline.sh: no coding_kernels lines parsed" > "/dev/stderr"
            exit 1
        }
        for (i = 1; i <= n; i++)
            printf "      \"%s\": %.1f%s\n", names[i], mibs[i], (i < n ? "," : "")
    }' <<<"$kernels_raw"
    printf '    }\n'
    printf '  },\n'

    printf '  "view_codec": {\n'
    printf '    "mib_per_sec": {\n'
    awk '
    # Same stdout shape as coding_kernels: a "view_codec" group header
    # then "  encode_sparse/1000  1.2 us/iter (345.6 MiB/s)" entries
    # (apply_delta reports Melem/s and is skipped here).
    /^[a-z_]+$/ { group = $1; next }
    /MiB\/s/ {
        rate = $(NF-1)
        sub(/^\(/, "", rate)
        names[++n] = group "/" $1
        mibs[n] = rate
    }
    END {
        if (n == 0) {
            print "bench_baseline.sh: no view_codec lines parsed" > "/dev/stderr"
            exit 1
        }
        for (i = 1; i <= n; i++)
            printf "      \"%s\": %.1f%s\n", names[i], mibs[i], (i < n ? "," : "")
    }' <<<"$views_raw"
    printf '    }\n'
    printf '  }\n'
    printf '}\n'
} >"$out"

# Before appending, flag regressions against the previous recorded run
# (same 15% floor as scripts/bench_gate.sh, but non-fatal here: this
# script's job is to record what is, not to reject it).
if [ -s "$history" ] && [ "${MSS_SKIP_BENCH_GATE:-0}" != "1" ]; then
    prev=$(grep '"session_throughput"' "$history" | tail -1 |
        sed -e 's/.*"session_throughput"[^{]*{[^{]*{//' -e 's/}.*//')
    if [ -n "$prev" ]; then
        awk -v prev="$prev" '
        # Protocol lines in the fresh JSON look like:  "DCoP": 3250000,
        match($0, /^      "[A-Za-z]+": [0-9]+/) {
            split($0, f, /[":,]+/)
            proto = f[2]; eps = f[3] + 0
            if (match(prev, "\"" proto "\": *[0-9]+")) {
                base = substr(prev, RSTART, RLENGTH)
                sub(/.*: */, "", base)
                if (eps < base * 0.85)
                    printf "bench_baseline.sh: WARNING %s %d events/s is >15%% below previous %d\n", \
                        proto, eps, base > "/dev/stderr"
            }
        }' "$out"
    fi
fi

# Append the same run to the history log as a single line, tagged with
# the current commit so runs can be correlated with kernel changes.
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
tr -d '\n' <"$out" | sed -e 's/  */ /g' -e "s/^{/{\"commit\": \"$commit\",/" >>"$history"
printf '\n' >>"$history"

echo "wrote $out (history: $history):"
cat "$out"

# Sharded-kernel scaling sweep: events/sec for DCoP and TCoP at
# n ∈ {100, 10^3, 10^4, 10^5} × shards ∈ {1, 4, max cores}, appended to
# the history as its own line. Minutes of wall-clock at n=10^5 — opt out
# with MSS_SKIP_SCALING=1 when only the kernel microbenches matter, or
# MSS_SCALING_FULL=0 to keep the sweep but stop at n=10^4 (slow boxes:
# the single-shard TCoP baseline at 10^5 runs tens of minutes).
record_live_scale() {
    # Live network plane: the ready-queue runtime on real loopback UDP
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
    # session under the fixed-bitmap model, the adaptive codec with
    # full views, and the delta piggybacks actually framed. Seconds of
    # wall clock (three deterministic sessions per protocol). Opt out
    # with MSS_SKIP_VIEW_BYTES=1.
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
        # protocol,n,rounds,model_B,full_B,delta_B,model_B_ppr,full_B_ppr,delta_B_ppr,...
        awk -F, 'NR > 1 {
            key = sprintf("%s/n%s", $1, $2)
            printf "%s\"%s/model\": %s, \"%s/full\": %s, \"%s/delta\": %s", \
                (n++ ? ", " : ""), key, $7, key, $8, key, $9
        }' "$csv"
        printf '}}\n'
    } >>"$history"
    echo "bench_baseline.sh: view-bytes sweep appended to $history"
}

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
