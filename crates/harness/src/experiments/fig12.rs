//! Figure 12 — receipt rate of the leaf peer vs `H`.
//!
//! Paper setup: `n = 100` peers streaming to one leaf, one parity packet
//! per `H − h` packets with `h = H − 1` (a single parity packet per
//! recovery segment of `H − 1` data packets), `H` swept. "rate = 1" is
//! the content rate. Anchor points: `H = 60` → 1.019 (DCoP) and 1.226
//! (TCoP); the smaller `H`, the more parity.
//!
//! We report the *received-volume ratio* (payload bytes the leaf accepted
//! over content bytes): for a complete stream delivered in one content
//! window this equals the normalized receipt rate, and unlike a mean-rate
//! estimate it is insensitive to coordination ramp-up and tail pacing.
//! The mean-rate estimate is included as a secondary column.

use mss_core::config::{Piggyback, Reenhance};
use mss_core::prelude::*;

use super::{ExperimentOutput, RunOpts};
use crate::sweep::{mean, run_parallel, stddev};
use crate::table::{f, Table};

/// Fan-outs used for the (heavier, data-plane) Figure 12 sweep.
pub fn rate_grid(full: bool) -> Vec<usize> {
    if full {
        (2..=100).step_by(2).collect()
    } else {
        vec![2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    }
}

/// One aggregated Figure 12 row.
#[derive(Clone, Debug)]
pub struct RateRow {
    /// Fan-out `H`.
    pub fanout: usize,
    /// Mean received-volume ratio (≈ normalized receipt rate).
    pub volume: f64,
    /// Std-dev of the volume ratio across seeds.
    pub volume_sd: f64,
    /// Mean of the leaf's mean-rate estimate.
    pub mean_rate: f64,
    /// Fraction of runs that fully reconstructed the content.
    pub complete: f64,
    /// Mean duplicate packets.
    pub duplicates: f64,
}

/// Sweep one protocol's receipt rate over `H` (h = H−1, data plane on).
pub fn sweep(protocol: Protocol, opts: &RunOpts) -> Vec<RateRow> {
    let grid = rate_grid(opts.full);
    let points: Vec<(usize, u64)> = grid
        .iter()
        .flat_map(|&h| (0..opts.seeds).map(move |s| (h, s)))
        .collect();
    let outcomes = run_parallel(&points, opts.threads, |&(fanout, seed)| {
        let mut cfg =
            SessionConfig::paper_eval(fanout, 0xF12_0000 + seed * 104_729 + fanout as u64);
        cfg.data_plane = true;
        cfg.content = ContentDesc::small(seed + 1, 600);
        if protocol == Protocol::Tcop {
            // Literal pseudocode piggybacking (the Figure 11 reading) and
            // per-arity re-protection (`Esq(pkt_j[m_j⟩, c2.n)`).
            cfg.piggyback = Piggyback::SelectionsOnly;
        } else {
            // The paper's DCoP receipt-rate numbers (exactly H/(H−1) at
            // H=60) are only consistent with divisions that preserve the
            // initial parity density.
            cfg.reenhance = Reenhance::None;
        }
        Session::new(cfg, protocol)
            .time_limit(SimDuration::from_secs(60))
            .run()
    });
    grid.iter()
        .enumerate()
        .map(|(gi, &fanout)| {
            let runs = &outcomes[gi * opts.seeds as usize..(gi + 1) * opts.seeds as usize];
            let vols: Vec<f64> = runs.iter().map(|o| o.receipt_volume_ratio).collect();
            RateRow {
                fanout,
                volume: mean(&vols),
                volume_sd: stddev(&vols),
                mean_rate: mean(
                    &runs
                        .iter()
                        .map(|o| o.receipt_rate_measured.unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                ),
                complete: mean(
                    &runs
                        .iter()
                        .map(|o| o.complete as u8 as f64)
                        .collect::<Vec<_>>(),
                ),
                duplicates: mean(
                    &runs
                        .iter()
                        .map(|o| o.leaf_duplicates as f64)
                        .collect::<Vec<_>>(),
                ),
            }
        })
        .collect()
}

/// Run the Figure 12 reproduction.
pub fn run(opts: &RunOpts) -> ExperimentOutput {
    let dcop = sweep(Protocol::Dcop, opts);
    let tcop = sweep(Protocol::Tcop, opts);
    let mut t = Table::new(
        "Figure 12 — leaf receipt rate vs H (n=100, h=H-1; rate=1 is the content rate)",
        &[
            "H",
            "DCoP_rate",
            "DCoP_sd",
            "TCoP_rate",
            "TCoP_sd",
            "DCoP_meanrate",
            "TCoP_meanrate",
            "DCoP_complete",
            "TCoP_complete",
        ],
    );
    for (d, c) in dcop.iter().zip(tcop.iter()) {
        t.push(vec![
            d.fanout.to_string(),
            f(d.volume, 3),
            f(d.volume_sd, 3),
            f(c.volume, 3),
            f(c.volume_sd, 3),
            f(d.mean_rate, 3),
            f(c.mean_rate, 3),
            f(d.complete, 2),
            f(c.complete, 2),
        ]);
    }
    ExperimentOutput {
        name: "fig12_rate",
        tables: vec![t],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> RunOpts {
        RunOpts {
            seeds: 2,
            threads: 2,
            shards: 0,
            full: false,
        }
    }

    /// A two-seed pass over the quick grid (kept light; the full figure
    /// is exercised by the harness binary and the repo benchmark).
    #[test]
    fn rates_have_the_papers_shape() {
        let dcop = sweep(Protocol::Dcop, &quick_opts());
        let tcop = sweep(Protocol::Tcop, &quick_opts());
        let d = |h: usize| dcop.iter().find(|r| r.fanout == h).unwrap();
        let t = |h: usize| tcop.iter().find(|r| r.fanout == h).unwrap();
        // Everything streams to completion.
        assert!(dcop.iter().all(|r| r.complete == 1.0));
        assert!(tcop.iter().all(|r| r.complete == 1.0));
        // Rates exceed 1 (parity overhead) and decrease with H.
        assert!(d(2).volume > d(60).volume);
        assert!(t(2).volume > t(60).volume);
        // The paper's H = 60 anchor: DCoP at exactly H/(H-1) (paper
        // 1.019), TCoP above it (paper 1.226).
        assert!(
            (d(60).volume - 60.0 / 59.0).abs() < 0.01,
            "DCoP rate {} != H/(H-1)",
            d(60).volume
        );
        assert!(
            t(60).volume > d(60).volume,
            "TCoP {} <= DCoP {} at H = 60",
            t(60).volume,
            d(60).volume
        );
        // TCoP pays more redundancy than DCoP in the mid range (its
        // small-arity subtree divisions re-protect aggressively).
        assert!(
            t(10).volume > d(10).volume,
            "TCoP {} <= DCoP {}",
            t(10).volume,
            d(10).volume
        );
        // At H = n both collapse to the plain (h+1)/h overhead ≈ 1.01.
        assert!((d(100).volume - 1.01).abs() < 0.02);
        assert!((t(100).volume - 1.01).abs() < 0.02);
    }
}
