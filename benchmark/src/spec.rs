//! The metric names, units and directions the benchmark prints — the
//! Rust-side copy of `BENCHMARK.json`, held equal to it by a unit test.

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by
    /// (`None` for per-layer metrics, which have no bound).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// `--seconds` when the command line gives none (`run_seconds` of
/// `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// The end-to-end metrics, reported for every workload by an untraced
/// run. One bound per metric covers all four workloads, so each is sized
/// by its noisiest workload; the spreads measured per workload on the box
/// that defined the benchmark are in `benchmark/README.md`.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("round_ms_p50", "ms", Lower, 0.25),
    e2e("sessions_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.12),
    e2e("stream_done_ms", "ms", Lower, 0.25),
    e2e("coord_msgs_per_peer", "msgs", Lower, 0.10),
    e2e("coord_wire_bytes_per_peer", "B", Lower, 0.10),
    e2e("sync_rounds", "rounds", Lower, 0.15),
    e2e("data_overhead", "ratio", Lower, 0.05),
    e2e("activated_share", "ratio", Higher, 0.05),
];

/// The model metrics: counts and simulated times the deterministic
/// kernel repeats exactly for a fixed seed on the sim workloads.
pub const MODEL: &[&str] = &[
    "stream_done_ms",
    "coord_msgs_per_peer",
    "coord_wire_bytes_per_peer",
    "sync_rounds",
    "data_overhead",
    "activated_share",
];

/// The per-layer metrics, reported for every workload by a traced run.
/// `_s` and counts are per round (mean over the rounds measured); `_ns`
/// are per call.
pub const PER_LAYER: &[Metric] = &[
    // sim
    layer("sim.world.run_s", "s", Lower),
    layer("sim.world.self_s", "s", Lower),
    layer("sim.world.events", "count", Lower),
    layer("sim.world.ns_per_event", "ns", Lower),
    layer("sim.world.events_per_s", "1/s", Higher),
    layer("sim.world.queue_high_water", "count", Lower),
    layer("sim.runtime.send_s", "s", Lower),
    layer("sim.runtime.send_calls", "count", Lower),
    layer("sim.runtime.timer_s", "s", Lower),
    layer("sim.runtime.timer_calls", "count", Lower),
    layer("sim.link.busy_s", "s", Lower),
    layer("sim.link.calls", "count", Lower),
    layer("sim.link.ns_per_call", "ns", Lower),
    layer("sim.queue.push_ns", "ns", Lower),
    layer("sim.queue.pop_ns", "ns", Lower),
    layer("sim.queue.hold_ns", "ns", Lower),
    layer("sim.shard.windows", "count", Lower),
    layer("sim.shard.cross_sent", "count", Lower),
    layer("sim.shard.cross_share", "ratio", Lower),
    layer("sim.shard.imbalance", "ratio", Lower),
    layer("sim.shard.clamped", "count", Lower),
    layer("sim.shard.handler_busy_max_s", "s", Lower),
    layer("sim.shard.nonhandler_s", "s", Lower),
    layer("sim.shard.speedup_vs_single", "ratio", Higher),
    // core
    layer("core.session.build_s", "s", Lower),
    layer("core.session.summarize_s", "s", Lower),
    layer("core.session.drop_s", "s", Lower),
    layer("core.session.build_share", "ratio", Lower),
    layer("core.handlers.self_s", "s", Lower),
    layer("core.handlers.calls", "count", Lower),
    layer("core.handlers.ns_per_call", "ns", Lower),
    layer("core.leaf.self_s", "s", Lower),
    layer("core.leaf.calls", "count", Lower),
    layer("core.leaf.ns_per_accepted_pkt", "ns", Lower),
    layer("core.dcop.session_ms_p50", "ms", Lower),
    layer("core.tcop.session_ms_p50", "ms", Lower),
    layer("core.coord.msgs", "count", Lower),
    layer("core.coord.bytes_tx", "B", Lower),
    layer("core.data.msgs", "count", Lower),
    layer("core.repair.rounds", "count", Lower),
    layer("core.schedule.merge_ns", "ns", Lower),
    layer("core.schedule.derive_ns", "ns", Lower),
    // media
    layer("media.parity.enhance_ns", "ns", Lower),
    layer("media.parity.div_ns", "ns", Lower),
    layer("media.decoder.insert_ns", "ns", Lower),
    layer("media.decoder.recovered", "count", Lower),
    layer("media.kernels.xor_mib_s", "MiB/s", Higher),
    layer("media.packet.synth_mib_s", "MiB/s", Higher),
    // overlay
    layer("overlay.view.union_ns", "ns", Lower),
    layer("overlay.select.pick_ns", "ns", Lower),
    layer("overlay.wire.encode_ns", "ns", Lower),
    layer("overlay.wire.decode_ns", "ns", Lower),
    layer("overlay.wire.bytes_per_view", "B", Lower),
    // net
    layer("net.codec.encode_ns", "ns", Lower),
    layer("net.codec.decode_ns", "ns", Lower),
    layer("net.codec.bytes_per_frame", "B", Lower),
    layer("net.live.setup_s", "s", Lower),
    layer("net.live.done_s", "s", Lower),
    layer("net.live.sent", "count", Lower),
    layer("net.live.msgs_per_s", "1/s", Higher),
    layer("net.live.rx_batch_mean", "count", Higher),
    layer("net.live.tx_batch_mean", "count", Higher),
    layer("net.live.rx_dropped", "count", Lower),
    layer("net.live.rx_decode_err", "count", Lower),
    layer("net.live.mailbox_hwm", "count", Lower),
    layer("net.live.view_resync_fallbacks", "count", Lower),
    // harness
    layer("harness.figs.pass_s", "s", Lower),
    layer("harness.figs.csv_identical", "count", Higher),
    // bench
    layer("bench.failed_share", "ratio", Lower),
    layer("bench.trace.overhead_share", "ratio", Lower),
    layer("bench.trace.reconcile_gap_share", "ratio", Lower),
    layer("bench.trace.clock_ns", "ns", Lower),
    layer("bench.round_ms_tail", "ms", Lower),
    layer("bench.round_samples", "count", Higher),
    layer("bench.host.nproc", "count", Higher),
    layer("bench.host.loadavg1", "ratio", Lower),
];

/// True if `name` may name a workload or a metric: 1–64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// True if `unit` may be a metric's unit: 1–16 of `[A-Za-z0-9_/%.-]`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::Workload;

    fn benchmark_json() -> Value {
        json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        doc.get(key).and_then(Value::as_arr).expect(key)
    }

    #[test]
    fn names_and_units_are_well_formed_unique_and_within_the_limits() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && seen.insert(w.name()));
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics are bounded");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)) && valid_name(&"x".repeat(64)));
        assert!(valid_unit("1/s") && valid_unit("MiB/s") && !valid_unit("") && !valid_unit("a b"));
        assert!(MODEL
            .iter()
            .all(|m| END_TO_END.iter().any(|e| e.name == *m)));
    }

    /// Every printed name is in `BENCHMARK.json` and vice versa, with the
    /// same unit, direction and bound, in the same order.
    #[test]
    fn benchmark_json_lists_exactly_what_is_printed() {
        let doc = benchmark_json();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS as f64)
        );
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = entries(&doc, key);
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (j, m) in listed.iter().zip(table) {
                let s = |k: &str| j.get(k).and_then(Value::as_str);
                assert_eq!(s("name"), Some(m.name), "{key} order");
                assert_eq!(s("unit"), Some(m.unit), "{}", m.name);
                assert_eq!(s("better"), Some(m.better.as_str()), "{}", m.name);
                assert_eq!(
                    j.get("bound").and_then(Value::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
                let width = if m.bound.is_some() { 4 } else { 3 };
                assert_eq!(j.as_obj().unwrap().len(), width, "{} keys", m.name);
            }
        }
        let listed = entries(&doc, "workloads");
        assert_eq!(listed.len(), Workload::ALL.len());
        for (j, w) in listed.iter().zip(Workload::ALL) {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(w.name()));
            let why = j.get("why").and_then(Value::as_str).expect("why");
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{why:?}"
            );
            assert_eq!(j.as_obj().unwrap().len(), 2);
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
