#!/usr/bin/env bash
# Full local verification: tier-1 (build + tests) plus lints and
# formatting. Everything runs offline — the workspace has no external
# dependencies (crates/compat/ vendors the few third-party APIs used),
# so no network access or pre-populated registry cache is needed.
#
# Each test runs once. The workspace step (every crate but the root
# package, whose tests tier-1 just ran) already includes these
# invariants, so they have no step of their own:
#   - event memory plane: the `size_regression` tests of mss-core::msg
#     and mss-sim::event re-measure `Msg` / `Event` / `NodeKey` /
#     `PacketId` at runtime behind the compile-time asserts;
#   - the coordination path's allocation budget (blocks per coordination
#     message of a Figure 10 DCoP and TCoP session, per activated peer
#     of an n=10^4 DCoP session on 2 shards): mss-core's `alloc_budget`
#     test, alone in its binary behind a counting global allocator;
#   - a parity coverage's one canonical form (one seq inline) from every
#     constructor and from codec decode: mss-net's `codec_properties`;
#   - calendar queue vs reference model: mss-sim's `properties` test;
#   - view forms (sparse ids, dense bitmap) vs the seed bitmap, view
#     frames under hostile input (truncated, flipped, arbitrary varint
#     bodies), and each view's size vs its three forced encodings:
#     mss-overlay's `properties` test;
#   - the schedule merge vs the seed union, on ordered tails (binary
#     search) and unordered ones, and the soundness of the order flag:
#     mss-media's `seq_properties` test, with `union_in_place`'s
#     `debug_assert` that a tail flagged ordered is ordered;
#   - word-wide coding kernels vs scalar loops, and payload synthesis
#     vs a test-side splitmix64 reference and three golden FNV-1a
#     digests: mss-media's `kernel_equivalence` test;
#   - the metric declaration table (unique names, every id its own
#     row, name-ordered iteration): mss-sim's
#     `the_declaration_table_is_one_row_per_name_in_id_order`, and,
#     since this step is a debug build, the `debug_assertions` in
#     `Metrics` that fail a write of the wrong kind or a read by an
#     undeclared name on every path a test reaches.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Never touch the network, even if a registry is configured.
export CARGO_NET_OFFLINE=true

echo "==> shell syntax (scripts this gate never runs, e.g. bench_pairs.sh)"
for f in scripts/*.sh; do
    bash -n "$f" || { echo "verify.sh: syntax error in $f" >&2; exit 1; }
done

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests (every crate but the root package)"
cargo test -q --workspace --exclude mss

echo "==> scheduler determinism: fig10/fig12 CSVs must be byte-identical"
echo "    (and independent of --threads: sweep parallelism must not leak)"
for t in 1 2 8; do
    cargo run --release -q -p mss-harness -- fig10 --seeds 16 --threads "$t" >/dev/null
    cargo run --release -q -p mss-harness -- fig12 --seeds 16 --threads "$t" >/dev/null
    git diff --exit-code -- results/fig10_dcop.csv results/fig12_rate.csv \
        || { echo "verify.sh: simulation results changed (--threads $t)" >&2; exit 1; }
done

echo "==> every cheap results CSV must be byte-identical (fig11 and the extensions), flash_crowd"
# Each of these experiments takes well under a second; shardcheck.csv
# is diffed after its own step below.
for e in fig11 compare multileaf overrun hetero startup faults loss coding ablation \
    membership view_bytes; do
    cargo run --release -q -p mss-harness -- "$e" --seeds 16 >/dev/null
done
git diff --exit-code -- results/fig11_tcop.csv results/compare_protocols.csv \
    results/multileaf_scalability.csv results/overrun_rho.csv \
    results/hetero_allocation_1.csv results/hetero_allocation_2.csv \
    results/startup_latency.csv results/faults_crash.csv results/loss_channels.csv \
    results/coding_crash.csv results/ablation_dcop.csv results/membership_gossip.csv \
    results/view_bytes.csv \
    || { echo "verify.sh: simulation results changed" >&2; exit 1; }
# The only m = 32 multi-leaf run; it asserts that every leaf completes.
cargo run --release -q --example flash_crowd >/dev/null \
    || { echo "verify.sh: flash_crowd example failed" >&2; exit 1; }

echo "==> sharded-kernel determinism gate (n=10^4 smoke, shards {1,2,4})"
# Within a run, each cell panics unless two identical runs agree; the
# CSV (digests, event counts, coverage; no timings) then pins the cells
# across commits.
cargo run --release -q -p mss-harness -- shardcheck >/dev/null
git diff --exit-code -- results/shardcheck.csv \
    || { echo "verify.sh: sharded-kernel digests changed" >&2; exit 1; }

echo "==> live-plane smoke (loopback UDP, time-bounded, mmsg + fallback)"
# The live workers' own tests (`live.rs`: a worker is a simulator world
# on a wall clock) host real loopback sessions (DCoP, TCoP, a baseline,
# 3 % injected send loss closed by parity + NACK repair, the forced
# single-syscall fallback, TCoP on two workers — bundled datagrams and
# every send crossing the wire — and the ignored n=5000
# beyond-the-old-bitmap-cap smoke that only the adaptive view codec
# makes hostable); `timeout` bounds the step so a wedged worker loop
# fails the gate instead of hanging it. The same tests assert
# `net.rx_decode_err` 0, so an undecodable frame fails this step on
# both paths. `--test bundle` is the datagram format under hostile input
# (round trip, every truncation point, malformed records, golden
# bytes). The MSS_NO_MMSG=1 pass proves the sendmmsg/recvmmsg fallback
# stays live on kernels without the batched syscalls.
live_plane() {
    timeout 300 cargo test --release -q -p mss-net --lib live -- --include-ignored \
        && timeout 60 cargo test --release -q -p mss-net --test bundle
}
live_plane || { echo "verify.sh: live-plane smoke failed" >&2; exit 1; }
MSS_NO_MMSG=1 live_plane || { echo "verify.sh: live-plane fallback smoke failed" >&2; exit 1; }

echo "==> large-world smoke (n=10^4, 2 shards, time-bounded)"
# Exercises the compact memory plane end to end: the example asserts
# >=99.5% peer activation and prints peak RSS, so a queue-layout or
# payload-sharing bug that only shows at scale fails here rather than
# in the (slow) n=10^6 profiling run. Both protocols: TCoP's probe
# and commit rounds otherwise first meet n > 10^3 in the benchmark.
cargo build --release -q --example large_world
timeout 120 sh -c 'for p in dcop tcop; do
    ./target/release/examples/large_world 10000 2 "$p" >/dev/null || exit 1
done' || { echo "verify.sh: large-world smoke failed" >&2; exit 1; }

echo "==> repo benchmark smoke (one reduced round per workload, all output checks on)"
# benchmark/ is its own workspace (built into benchmark/target); the
# smoke exits non-zero if any session fails, a figure CSV moves, two
# same-seed sharded digests differ, or a traced session is not the
# plain one.
timeout 600 benchmark/run.sh --smoke >/dev/null \
    || { echo "verify.sh: repo benchmark smoke failed" >&2; exit 1; }

echo "==> clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustfmt check"
cargo fmt --check

echo "==> rustdoc (warnings are errors: a link to a deleted or private item fails here)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "verify.sh: all checks passed in $SECONDS s"
