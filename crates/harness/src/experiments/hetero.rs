//! Heterogeneous bandwidth — §2's time-slot allocation and the paper's
//! announced future work ("each contents peer may support different
//! transmission rate").
//!
//! The table shows, for several bandwidth mixes, how the §2 algorithm
//! splits a content across channels, that the loads track the bandwidth
//! ratios, and that the packet allocation property (in-order delivery
//! without reordering) holds.

use mss_core::prelude::*;
use mss_media::slots::allocate;
use mss_sim::link::{FixedLatency, PerSenderBandwidth};

use super::{ExperimentOutput, RunOpts};
use crate::sweep::{mean, run_parallel};
use crate::table::{f, Table};

/// One allocation scenario.
#[derive(Clone, Debug)]
pub struct HeteroRow {
    /// Bandwidth vector.
    pub bandwidths: Vec<u64>,
    /// Packets per channel.
    pub loads: Vec<usize>,
    /// Largest relative deviation of a channel's load share from its
    /// bandwidth share.
    pub max_share_error: f64,
    /// Whether the in-order property held.
    pub property: bool,
}

/// Evaluate the allocation for each bandwidth mix.
pub fn sweep(mixes: &[Vec<u64>], packets: u64) -> Vec<HeteroRow> {
    mixes
        .iter()
        .map(|bws| {
            let a = allocate(bws, packets);
            let loads: Vec<usize> = (0..bws.len()).map(|i| a.channel_load(i)).collect();
            let total_bw: u64 = bws.iter().sum();
            let max_share_error = bws
                .iter()
                .zip(loads.iter())
                .map(|(&bw, &load)| {
                    let want = bw as f64 / total_bw as f64;
                    let got = load as f64 / packets as f64;
                    (got - want).abs() / want
                })
                .fold(0.0f64, f64::max);
            HeteroRow {
                bandwidths: bws.clone(),
                loads,
                max_share_error,
                property: a.allocation_property_holds(),
            }
        })
        .collect()
}

/// One row of the heterogeneous *streaming* comparison.
#[derive(Clone, Debug)]
pub struct StreamRow {
    /// "uniform" or "weighted".
    pub division: &'static str,
    /// Capacity spread (max/min).
    pub spread: u64,
    /// Fraction of runs completing.
    pub complete: f64,
    /// Mean time to full reconstruction, milliseconds.
    pub complete_ms: f64,
    /// Completion time over the content duration (1.0 = real time).
    pub stretch: f64,
}

/// Stream through per-peer uplink caps with uniform vs
/// bandwidth-proportional initial division (leaf-schedule protocol, so
/// the initial division is the whole story).
pub fn streaming_sweep(spreads: &[u64], opts: &RunOpts) -> Vec<StreamRow> {
    let n = 20usize;
    let points: Vec<(u64, bool, u64)> = spreads
        .iter()
        .flat_map(|&sp| {
            [false, true]
                .into_iter()
                .flat_map(move |w| (0..opts.seeds).map(move |s| (sp, w, s)))
        })
        .collect();
    let outcomes = run_parallel(&points, opts.threads, |&(spread, weighted, seed)| {
        let mut cfg = SessionConfig::small(n, 4, 0x8E7_0000 + seed * 4099 + spread);
        cfg.content = ContentDesc::small(seed + 41, 600);
        // Peer i's relative bandwidth ramps linearly from 1 to `spread`.
        let weights: Vec<u64> = (0..n as u64)
            .map(|i| 1 + i * (spread - 1) / (n as u64 - 1))
            .collect();
        if weighted {
            cfg.bandwidths = Some(weights.as_slice().into());
        }
        // Absolute uplink caps: aggregate capacity = 2× the content byte
        // rate (comfortable in aggregate; tight for overloaded slow peers
        // under uniform division).
        let total_needed = cfg.content.rate_bps as f64 / 8.0;
        let wsum: u64 = weights.iter().sum();
        let caps: Vec<u64> = weights
            .iter()
            .map(|&w| ((total_needed * 2.0) * w as f64 / wsum as f64).max(1.0) as u64)
            .collect();
        let duration = cfg.content.duration_secs();
        let o = Session::new(cfg, Protocol::LeafSchedule)
            .link(PerSenderBandwidth::new(
                caps,
                10_000_000,
                FixedLatency::new(SimDuration::from_millis(1)),
            ))
            .time_limit(SimDuration::from_secs(300))
            .run();
        (o, duration)
    });
    points
        .chunks(opts.seeds as usize)
        .zip(outcomes.chunks(opts.seeds as usize))
        .map(|(pts, runs)| {
            let complete_ms: Vec<f64> = runs
                .iter()
                .map(|(o, _)| o.complete_nanos.unwrap_or(300_000_000_000) as f64 / 1e6)
                .collect();
            let stretch: Vec<f64> = runs
                .iter()
                .zip(&complete_ms)
                .map(|((_, d), ms)| ms / (d * 1e3))
                .collect();
            StreamRow {
                division: if pts[0].1 { "weighted" } else { "uniform" },
                spread: pts[0].0,
                complete: mean(
                    &runs
                        .iter()
                        .map(|(o, _)| o.complete as u8 as f64)
                        .collect::<Vec<_>>(),
                ),
                complete_ms: mean(&complete_ms),
                stretch: mean(&stretch),
            }
        })
        .collect()
}

/// Run the heterogeneous-allocation experiment.
pub fn run(_opts: &RunOpts) -> ExperimentOutput {
    let mixes = vec![
        vec![4, 2, 1],
        vec![1, 1, 1, 1],
        vec![10, 1],
        vec![3, 7, 11],
        vec![100, 50, 25, 10, 5, 1],
        vec![9, 9, 2, 13, 1, 30, 4],
    ];
    let rows = sweep(&mixes, 10_000);
    let mut t = Table::new(
        "Heterogeneous time-slot allocation (§2) — 10000 packets",
        &["bandwidths", "loads", "max_share_err_%", "in_order"],
    );
    for r in &rows {
        t.push(vec![
            format!("{:?}", r.bandwidths),
            format!("{:?}", r.loads),
            f(r.max_share_error * 100.0, 3),
            r.property.to_string(),
        ]);
    }
    let srows = streaming_sweep(&[1, 2, 4, 8], _opts);
    let mut st = Table::new(
        "Heterogeneous streaming — uniform vs §2-weighted division          (leaf-schedule, n=20, aggregate capacity 2×τ)",
        &["division", "cap_spread", "complete_frac", "complete_ms", "stretch"],
    );
    for r in &srows {
        st.push(vec![
            r.division.to_owned(),
            r.spread.to_string(),
            f(r.complete, 2),
            f(r.complete_ms, 1),
            f(r.stretch, 2),
        ]);
    }
    ExperimentOutput {
        name: "hetero_allocation",
        tables: vec![t, st],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_track_bandwidth_within_a_percent() {
        let rows = sweep(&[vec![4, 2, 1], vec![3, 7, 11]], 10_000);
        for r in &rows {
            assert!(r.property, "{:?} broke in-order delivery", r.bandwidths);
            assert!(
                r.max_share_error < 0.01,
                "{:?}: share error {}",
                r.bandwidths,
                r.max_share_error
            );
        }
    }

    #[test]
    fn weighted_division_beats_uniform_under_spread() {
        let opts = RunOpts {
            seeds: 2,
            threads: 2,
            shards: 0,
            full: false,
        };
        let rows = streaming_sweep(&[8], &opts);
        let uniform = rows.iter().find(|r| r.division == "uniform").unwrap();
        let weighted = rows.iter().find(|r| r.division == "weighted").unwrap();
        assert_eq!(weighted.complete, 1.0, "weighted division must complete");
        assert!(
            weighted.stretch < uniform.stretch * 0.8,
            "weighted stretch {} not clearly better than uniform {}",
            weighted.stretch,
            uniform.stretch
        );
    }

    #[test]
    fn figure_1_ratios() {
        let rows = sweep(&[vec![4, 2, 1]], 7_000);
        assert_eq!(rows[0].loads, vec![4_000, 2_000, 1_000]);
    }
}
