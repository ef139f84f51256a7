//! # mss-harness — the experiment harness
//!
//! Regenerates every figure of the ICPP 2006 evaluation (Figures 10–12)
//! plus the beyond-paper experiments DESIGN.md commits to: protocol
//! comparison, crash faults, lossy channels, leaf buffer overrun,
//! heterogeneous allocation, and design ablations.
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p mss-harness -- all
//! ```
//!
//! or a single experiment (`fig10`, `fig11`, `fig12`, `compare`,
//! `faults`, `loss`, `overrun`, `hetero`, `multileaf`, `startup`,
//! `coding`, `membership`, `ablation`, `shardcheck`, `view_bytes`) with
//! options `--seeds N`, `--threads N`, `--shards N`, `--full`. Tables
//! print to stdout and CSVs land under `results/`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod sweep;
pub mod table;
pub mod timeline;

pub use experiments::{ExperimentOutput, RunOpts};

/// An experiment entry point.
pub type ExperimentFn = fn(&RunOpts) -> ExperimentOutput;

/// Every experiment by CLI name, in presentation order.
pub const EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("fig10", experiments::fig10::run),
    ("fig11", experiments::fig11::run),
    ("fig12", experiments::fig12::run),
    ("compare", experiments::compare::run),
    ("faults", experiments::faults::run),
    ("loss", experiments::loss::run),
    ("overrun", experiments::overrun::run),
    ("hetero", experiments::hetero::run),
    ("multileaf", experiments::multileaf::run),
    ("startup", experiments::startup::run),
    ("coding", experiments::coding::run),
    ("membership", experiments::membership::run),
    ("ablation", experiments::ablation::run),
    ("shardcheck", experiments::shardcheck::run),
    ("view_bytes", experiments::view_bytes::run),
];

/// Look up an experiment by CLI name.
pub fn experiment_by_name(name: &str) -> Option<ExperimentFn> {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| *f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"fig10"));
        assert!(names.contains(&"fig11"));
        assert!(names.contains(&"fig12"));
        names.sort();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
        assert!(experiment_by_name("fig12").is_some());
        assert!(experiment_by_name("nope").is_none());
    }
}
