//! `mss-benchmark` — the benchmark `BENCHMARK.json` names. See
//! `benchmark/README.md` for the workloads, the metrics and how to read
//! the output; `benchmark/run.sh` builds this binary and passes its
//! arguments through.
//!
//! With `--workload` it measures one workload in this process and prints
//! one JSON result as its last line. Without, it runs every workload,
//! each in a fresh child process of itself, and prints a summary.

mod json;
mod probes;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Value;
use spec::{Better, END_TO_END, MODEL, RUN_SECONDS};
use workloads::{Host, Workload};

const USAGE: &str = "usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] \
[--trace [0|1]] [--smoke] [--agree]
  --workload W   measure one workload (paper_sweep, stream_video, scale_1e5, live_1e4)
                 in this process; without it, every workload in a child process each
  --seed N       benchmark seed the inputs derive from (default 1)
  --seconds S    how long one run measures (default: run_seconds of BENCHMARK.json)
  --trace [0|1]  1 (or bare): the traced run, printing the per-layer metrics;
                 0: the untraced run, printing the end-to-end metrics
  --smoke        one round per workload at reduced size, all checks on
  --agree        two untraced sets with the same seed; fail if an end-to-end
                 metric moves by more than its bound";

/// What this process was started to do.
enum Mode {
    /// Every workload, each in a child process.
    Set,
    /// Two sets, compared.
    Agree,
    /// Measure one workload here (what the driver and a set's children run).
    Measure(Workload),
    /// Child of a measuring run: set the workload up, print how long it took.
    SetupOnly(Workload),
    /// Child of a measuring run: the figure gate.
    FigsOnly,
}

pub struct Args {
    mode: Mode,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Set,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut workload = None;
    let (mut agree, mut setup_only, mut figs_only) = (false, false, false);
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|e| format!("--seed {v:?}: {e}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v.parse().map_err(|e| format!("--seconds {v:?}: {e}"))?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err(format!("--seconds {v} is outside 0..=600"));
                }
            }
            "--trace" => {
                // The driver writes `--trace 0|1`; by hand a bare `--trace` is 1.
                args.trace = it.next_if(|v| v == "0").is_none();
                it.next_if(|v| v == "1");
            }
            "--smoke" => args.smoke = true,
            "--agree" => agree = true,
            "--setup-only" => setup_only = true,
            "--figs-only" => figs_only = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.smoke {
        args.seconds = 0.0;
    }
    args.mode = match workload {
        _ if figs_only => Mode::FigsOnly,
        Some(w) if setup_only => Mode::SetupOnly(w),
        Some(w) => Mode::Measure(w),
        None if setup_only => return Err("--setup-only needs --workload".to_owned()),
        None if agree => Mode::Agree,
        None => Mode::Set,
    };
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("error: {why}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.mode {
        Mode::FigsOnly => {
            // For the parent: seconds, then one 0/1 per figure file.
            let figs = probes::figs();
            let same: Vec<String> = figs
                .files
                .iter()
                .map(|(_, same)| u8::from(*same).to_string())
                .collect();
            println!("{} {}", figs.pass_s, same.join(" "));
            true
        }
        Mode::SetupOnly(w) => {
            // For the parent: seconds from this process's start to ready.
            let setup = run::set_up(w, &args);
            println!("{}", started.elapsed().as_secs_f64());
            setup.failed == 0
        }
        Mode::Measure(w) => run::workload(w, &args, started),
        Mode::Agree => agree(&args),
        Mode::Set => {
            let set = run_set(&args, args.trace || args.smoke);
            print_set(&set);
            set.ok
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run this binary again as a child with `extra` arguments; its stderr
/// passes through, its stdout is returned (and echoed when `echo`).
pub fn child(extra: &[String], echo: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    if echo {
        print!("{text}");
    }
    // Exit code 1 is a run that printed a result with failed checks; the
    // caller reads that from the result.
    match out.status.code() {
        Some(0 | 1) => Ok(text),
        other => Err(format!("child exited with {other:?}")),
    }
}

/// One workload's parsed result lines from a set.
struct SetRow {
    workload: Workload,
    /// The untraced and, if asked for, the traced run's result object.
    results: Vec<Value>,
}

struct Set {
    rows: Vec<SetRow>,
    ok: bool,
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Run every workload in a fresh child process each (so peak RSS and
/// allocator state are per workload): the untraced run, then the traced
/// one if `traced`.
fn run_set(args: &Args, traced: bool) -> Set {
    let mut set = Set {
        rows: Vec::new(),
        ok: true,
    };
    for w in Workload::ALL {
        let mut row = SetRow {
            workload: w,
            results: Vec::new(),
        };
        for trace in [false, true] {
            if trace && !traced {
                continue;
            }
            let mut extra: Vec<String> = [
                "--workload",
                w.name(),
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ]
            .map(str::to_owned)
            .to_vec();
            if args.smoke {
                extra.push("--smoke".to_owned());
            }
            println!("== {} (trace {}) ==", w.name(), u8::from(trace));
            let parsed = child(&extra, true).and_then(|text| {
                let last = text.lines().last().unwrap_or_default();
                json::parse(last).map_err(|e| format!("result line: {e}"))
            });
            match parsed {
                Ok(result) => {
                    set.ok &= result.get("correct").and_then(Value::as_bool) == Some(true);
                    row.results.push(result);
                }
                Err(why) => {
                    println!("!! {} produced no result: {why}", w.name());
                    set.ok = false;
                }
            }
        }
        set.rows.push(row);
    }
    set
}

/// The end-to-end table of a set: one row per metric, one column per
/// workload.
fn print_set(set: &Set) {
    println!("\n== end-to-end metrics ==");
    print!("{:<28}", "metric");
    for row in &set.rows {
        print!(" {:>14}", row.workload.name());
    }
    println!("  unit");
    for m in END_TO_END {
        print!("{:<28}", m.name);
        for row in &set.rows {
            match row.results.first().and_then(|r| metric(r, m.name)) {
                Some(v) => print!(" {v:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!("  {} ({} is better)", m.unit, m.better.as_str());
    }
    for row in &set.rows {
        for r in &row.results {
            let n = |k: &str| r.get(k).and_then(Value::as_f64).unwrap_or(-1.0);
            if n("failed") != 0.0 {
                println!(
                    "!! {}: {} of {} sessions or checks failed",
                    row.workload.name(),
                    n("failed"),
                    n("attempted")
                );
            }
        }
    }
    println!(
        "{}",
        if set.ok {
            "all output checks passed"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
}

/// Two full untraced sets back to back with the same seed. Prints both
/// values and the relative distance per (metric, workload); fails if an
/// end-to-end metric is worse in either set than in the other by more
/// than its bound, or if a model metric of a sim workload is not
/// bit-equal between the sets.
fn agree(args: &Args) -> bool {
    let sets = [run_set(args, false), run_set(args, false)];
    let mut ok = sets.iter().all(|s| s.ok);
    println!("\n== agreement of two sets, seed {} ==", args.seed);
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "distance", "bound"
    );
    for (a, b) in sets[0].rows.iter().zip(&sets[1].rows) {
        for m in END_TO_END {
            let value = |row: &SetRow| row.results.first().and_then(|r| metric(r, m.name));
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                println!("{:<14} {:<28} missing", a.workload.name(), m.name);
                ok = false;
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics are bounded");
            // Worsening of the worse set against the better one.
            let (best, worst) = match m.better {
                Better::Lower => (x.min(y), x.max(y)),
                Better::Higher => (x.max(y), x.min(y)),
            };
            let distance = stats::rel(worst, best).abs();
            let exact = MODEL.contains(&m.name) && a.workload.host() != Host::Live;
            let verdict = if exact && x.to_bits() != y.to_bits() {
                ok = false;
                "NOT BIT-EQUAL"
            } else if distance > bound {
                ok = false;
                "BEYOND BOUND"
            } else {
                ""
            };
            println!(
                "{:<14} {:<28} {x:>14.5} {y:>14.5} {:>8.2}% {:>6.1}% {verdict}",
                a.workload.name(),
                m.name,
                distance * 100.0,
                bound * 100.0
            );
        }
    }
    println!(
        "{}",
        if ok {
            "the two sets agree within every bound"
        } else {
            "THE TWO SETS DISAGREE"
        }
    );
    ok
}
