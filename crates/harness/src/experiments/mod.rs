//! One module per reproduced figure plus the beyond-paper experiments.
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig10`] | Figure 10: DCoP rounds & control packets vs `H` |
//! | [`fig11`] | Figure 11: TCoP rounds & control packets vs `H` |
//! | [`fig12`] | Figure 12: leaf receipt rate vs `H` (both protocols) |
//! | [`compare`] | all six protocols side by side (extends §3.1) |
//! | [`faults`] | crash-stop peers mid-stream (the reliability claim) |
//! | [`loss`] | i.i.d. and bursty packet loss (parity recovery) |
//! | [`overrun`] | leaf buffer overrun `ρ_s` (broadcast vs DCoP) |
//! | [`hetero`] | §2 heterogeneous time-slot allocation + streaming (future work) |
//! | [`multileaf`] | many leaves over one shared swarm (the §2 model at scale) |
//! | [`startup`] | minimal zero-stall playout delay vs fan-out |
//! | [`coding`] | XOR parity vs Reed–Solomon under peer crashes |
//! | [`membership`] | gossip bootstrap of the CP set (O(log n) rounds) |
//! | [`ablation`] | design-choice ablations (piggybacking, re-enhancement) |
//! | [`shardcheck`] | sharded-kernel determinism gate (n=10⁴) |
//! | [`view_bytes`] | control bytes/peer/round: fixed bitmap vs adaptive |

pub mod ablation;
pub mod coding;
pub mod compare;
pub mod faults;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod hetero;
pub mod loss;
pub mod membership;
pub mod multileaf;
pub mod overrun;
pub mod shardcheck;
pub mod startup;
pub mod view_bytes;

use crate::table::Table;

/// Common knobs for every experiment run.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Seeds per sweep point (more = smoother curves, slower).
    pub seeds: u64,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Simulation shards per session for `shardcheck` (0 = its default
    /// grid; every other experiment runs single-world).
    pub shards: usize,
    /// Sweep the full `H = 2..=100` grid instead of the default subset.
    pub full: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            seeds: 8,
            threads: 0,
            shards: 0,
            full: false,
        }
    }
}

/// The default fan-out grid: dense at small `H` where the curves bend,
/// sparser above (or every value with `--full`).
pub fn fanout_grid(full: bool) -> Vec<usize> {
    if full {
        (2..=100).collect()
    } else {
        let mut g: Vec<usize> = (2..=10).collect();
        g.extend((15..=100).step_by(5));
        g
    }
}

/// An experiment's rendered output: one or more tables.
pub struct ExperimentOutput {
    /// Machine-readable stem for CSV files.
    pub name: &'static str,
    /// Result tables, in presentation order.
    pub tables: Vec<Table>,
}

impl ExperimentOutput {
    /// Print all tables to stdout and write CSVs under `results/`.
    pub fn emit(&self) {
        for (i, t) in self.tables.iter().enumerate() {
            println!("{}", t.to_text());
            let path = if self.tables.len() == 1 {
                format!("results/{}.csv", self.name)
            } else {
                format!("results/{}_{}.csv", self.name, i + 1)
            };
            if let Err(e) = t.write_csv(std::path::Path::new(&path)) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                println!("[written {path}]\n");
            }
        }
    }
}
