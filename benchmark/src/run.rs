//! Measuring one workload in this process: set-up, the timed rounds, the
//! traced rounds and layer probes of a `--trace 1` run, the metrics, and
//! the result line.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use mss::core::config::{Protocol, SessionConfig};

use crate::json::Value;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{mean, median, tail};
use crate::trace::Tracer;
use crate::workloads::{
    derive_seed, round_inputs, run_session, Host, LiveStats, SessionResult, SessionSpec, Workload,
};
use crate::{child, probes, Args};

/// Set-ups measured per run (this process's own plus child processes
/// that only set up); `setup_s` is their median.
const SETUP_SAMPLES: usize = 3;

/// Failure messages kept for printing; the count is exact regardless.
const FAILURES_SHOWN: usize = 8;

/// Sessions attempted, and what failed, across a run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < FAILURES_SHOWN {
            eprintln!("FAILED: {what}");
            self.failures.push(what);
        }
    }

    /// Count one check that is not a session (a digest or CSV compare).
    fn check(&mut self, passed: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !passed {
            self.fail(what());
        }
    }

    fn sessions(&mut self, results: &[SessionResult]) {
        for r in results {
            self.attempted += 1;
            if let Some(why) = &r.failed {
                self.fail(format!("{} n={} session: {why}", r.protocol.name(), r.n));
            }
        }
    }
}

fn run_round(specs: &[SessionSpec], host: Host) -> Vec<SessionResult> {
    specs.iter().map(|s| run_session(s, host, None)).collect()
}

/// [`run_round`] through the decorators, under one `round` span.
fn run_round_traced(specs: &[SessionSpec], host: Host, tracer: &mut Tracer) -> Vec<SessionResult> {
    let span = tracer.open(0, "round");
    let results = specs
        .iter()
        .map(|s| run_session(s, host, Some((&mut *tracer, span))))
        .collect();
    tracer.close(span);
    results
}

/// Summed wall time of `results`, seconds.
fn wall_s(results: &[SessionResult]) -> f64 {
    results.iter().map(|r| r.wall.as_secs_f64()).sum()
}

/// Input generation for the warm-up rounds, the warm-up rounds
/// themselves, and the workload's own light output probe. Everything
/// here is `setup_s`.
pub fn set_up(w: Workload, args: &Args) -> Tally {
    let mut tally = Tally::default();
    for round in 0..w.warmup_rounds() {
        let specs = round_inputs(w, args.seed, round, args.smoke);
        tally.sessions(&run_round(&specs, w.host()));
    }
    if w == Workload::Scale1e5 {
        // The sharded kernel's contract: the same (seed, shards) gives
        // the same event stream. One n=10⁴ session, twice.
        let n = if args.smoke { 1_000 } else { 10_000 };
        let cfg = SessionConfig::large(n, 8, derive_seed(args.seed, w, u64::MAX, 0));
        let spec = SessionSpec {
            cfg,
            protocol: Protocol::Dcop,
            crash: None,
            limit: None,
        };
        let pair = run_round(&[spec.clone(), spec], Host::Sharded);
        tally.sessions(&pair);
        let digest = |r: &SessionResult| r.shard.as_ref().map(|s| (s.digest, r.events));
        tally.check(digest(&pair[0]) == digest(&pair[1]), || {
            format!(
                "two runs of one n={n} 2-shard session disagree: {:?} vs {:?}",
                digest(&pair[0]),
                digest(&pair[1])
            )
        });
    }
    tally
}

/// The timed rounds' samples and sums.
#[derive(Default)]
struct Rounds {
    round_ms: Vec<f64>,
    dcop_ms: Vec<f64>,
    tcop_ms: Vec<f64>,
    sessions: u64,
    // Model quantities, over the first `model_rounds` rounds only.
    stream_done_ms: Vec<f64>,
    msgs_per_peer: Vec<f64>,
    bytes_per_peer: Vec<f64>,
    sync_rounds: Vec<f64>,
    data_overhead: Vec<f64>,
    activated_share: Vec<f64>,
    // Layer counters, over every round.
    coord_msgs: u64,
    coord_bytes_tx: u64,
    data_msgs: u64,
    repair_rounds: u64,
    recovered: u64,
    accepted: u64,
    events: u64,
    queue_high_water: usize,
    live: Vec<LiveStats>,
    sharded: Vec<SessionResult>,
}

impl Rounds {
    fn push(&mut self, results: &[SessionResult], model: bool) {
        let ms = |p: Option<Protocol>| -> f64 {
            results
                .iter()
                .filter(|r| p.is_none_or(|p| r.protocol == p))
                .map(|r| r.wall.as_secs_f64() * 1e3)
                .sum()
        };
        self.round_ms.push(ms(None));
        self.dcop_ms.push(ms(Some(Protocol::Dcop)));
        self.tcop_ms.push(ms(Some(Protocol::Tcop)));
        self.sessions += results.len() as u64;
        for r in results {
            if model {
                let n = r.n as f64;
                self.msgs_per_peer
                    .push(r.coord_msgs_until_active as f64 / n);
                self.bytes_per_peer.push(r.coord_bytes_tx as f64 / n);
                self.sync_rounds.push(f64::from(r.rounds));
                self.activated_share.push(r.activated as f64 / n);
                if r.data_plane {
                    self.data_overhead
                        .push(r.data_msgs as f64 / r.packets as f64);
                    self.stream_done_ms.extend(r.stream_done_ms);
                }
            }
            self.coord_msgs += r.coord_msgs;
            self.coord_bytes_tx += r.coord_bytes_tx;
            self.data_msgs += r.data_msgs;
            self.repair_rounds += r.repair_rounds;
            self.recovered += r.recovered;
            self.accepted += r.leaf_accepted;
            self.events += r.events;
            self.queue_high_water = self.queue_high_water.max(r.queue_high_water);
            self.live.extend(r.live);
            if r.shard.is_some() {
                self.sharded.push(r.clone());
            }
        }
    }

    fn count(&self) -> f64 {
        self.round_ms.len() as f64
    }

    fn wall_s(&self) -> f64 {
        self.round_ms.iter().sum::<f64>() / 1e3
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn loadavg1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Warn (never fail) when something else is using the box: every host
/// time below is then suspect.
fn warn_if_loaded(when: &str, load: f64) {
    if load > nproc() as f64 - 0.5 {
        eprintln!(
            "WARNING: 1-min load average {load:.2} at {when} exceeds nproc - 0.5 = {:.1}; \
             host-time metrics of this run are not trustworthy",
            nproc() as f64 - 0.5
        );
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn file_line(path: &str, key: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(key))?.to_owned();
            Some(
                line.split_once(':')
                    .map_or(line.clone(), |(_, v)| v.trim().to_owned()),
            )
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Measure workload `w`; prints the metrics and, as the last line, the
/// result object. Returns whether every output check passed.
pub fn workload(w: Workload, args: &Args, started: Instant) -> bool {
    let load_start = loadavg1();
    warn_if_loaded("start", load_start);

    // ---- set-up ------------------------------------------------------
    let mut tally = set_up(w, args);
    let mut setups = vec![started.elapsed().as_secs_f64()];
    if !args.smoke {
        let extra = [
            "--setup-only".to_owned(),
            "--workload".to_owned(),
            w.name().to_owned(),
            "--seed".to_owned(),
            args.seed.to_string(),
        ];
        while setups.len() < SETUP_SAMPLES {
            match child(&extra, false).map(|text| text.trim().parse::<f64>()) {
                Ok(Ok(s)) => setups.push(s),
                other => {
                    tally.check(false, || format!("set-up sample process: {other:?}"));
                    break;
                }
            }
        }
    }
    let setup_s = median(&setups);

    // The paper-figure gate belongs to the workload that runs the paper's
    // sessions; a traced run of any workload times it as the harness
    // layer's number (a smoke set runs it for `paper_sweep` only — it
    // checks, it does not measure).
    let figs =
        (w == Workload::PaperSweep || (args.trace && !args.smoke)).then(|| figs_pass(&mut tally));

    // ---- rounds ------------------------------------------------------
    let host = w.host();
    let decorated = args.trace && host != Host::Live;
    let model_rounds = if args.smoke { 1 } else { w.model_rounds() };
    let mut plain = Rounds::default();
    let mut traced = Rounds::default();
    let mut tracer = Tracer::default();
    let timing = Instant::now();
    let mut round = 0u64;
    while round < model_rounds || timing.elapsed().as_secs_f64() < args.seconds {
        let specs = round_inputs(w, args.seed, w.warmup_rounds() + round, args.smoke);
        // Nothing repeats exactly over real sockets, so the live workload's
        // model metrics may as well use every round it ran.
        let model = round < model_rounds || host == Host::Live;
        // A traced run does every round both ways on the same inputs,
        // alternating which goes first, so the two sums compare.
        let (a, b) = if !decorated {
            (run_round(&specs, host), None)
        } else if round.is_multiple_of(2) {
            let a = run_round(&specs, host);
            (a, Some(run_round_traced(&specs, host, &mut tracer)))
        } else {
            let b = run_round_traced(&specs, host, &mut tracer);
            (run_round(&specs, host), Some(b))
        };
        tally.sessions(&a);
        plain.push(&a, model);
        if let Some(b) = b {
            tally.sessions(&b);
            traced.push(&b, model);
            check_equivalent(&mut tally, &a, &b);
        }
        round += 1;
    }

    // ---- metrics -----------------------------------------------------
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut notes: Vec<String> = Vec::new();
    if args.trace {
        layer_metrics(
            w,
            args,
            &plain,
            &traced,
            tracer,
            &mut tally,
            &mut metrics,
            &mut notes,
        );
        match &figs {
            Some(figs) => {
                metrics.insert("harness.figs.pass_s", figs.pass_s);
                metrics.insert(
                    "harness.figs.csv_identical",
                    f64::from(u8::from(figs.identical())),
                );
            }
            None => {
                metrics.insert("harness.figs.pass_s", 0.0);
                metrics.insert("harness.figs.csv_identical", 0.0);
                notes.push(
                    "harness.figs.* not run: a smoke set runs it under paper_sweep".to_owned(),
                );
            }
        }
        let (label, value) = match tail(&plain.round_ms) {
            Some((p, v)) => (format!("p{p}"), v),
            None => (
                "max (under 20 samples: no percentile has 10 beyond it)".to_owned(),
                plain.round_ms.iter().copied().fold(0.0, f64::max),
            ),
        };
        notes.push(format!("bench.round_ms_tail is {label}"));
        metrics.insert("bench.round_ms_tail", value);
        metrics.insert("bench.round_samples", plain.count());
        metrics.insert("bench.host.nproc", nproc() as f64);
        metrics.insert("bench.host.loadavg1", loadavg1());
        // The tally is final only after the probes above.
        metrics.insert(
            "bench.failed_share",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        );
    } else {
        metrics.insert("setup_s", setup_s);
        metrics.insert("round_ms_p50", median(&plain.round_ms));
        metrics.insert("sessions_per_s", plain.sessions as f64 / plain.wall_s());
        metrics.insert("peak_rss_mib", peak_rss_mib());
        metrics.insert("stream_done_ms", median(&plain.stream_done_ms));
        metrics.insert("coord_msgs_per_peer", mean(&plain.msgs_per_peer));
        metrics.insert("coord_wire_bytes_per_peer", mean(&plain.bytes_per_peer));
        metrics.insert("sync_rounds", mean(&plain.sync_rounds));
        metrics.insert("data_overhead", mean(&plain.data_overhead));
        metrics.insert("activated_share", mean(&plain.activated_share));
        notes.push(format!(
            "round_ms_p50 over {} rounds of {} sessions; model metrics over {}",
            plain.round_ms.len(),
            plain.sessions / plain.round_ms.len().max(1) as u64,
            if host == Host::Live {
                "all of them".to_owned()
            } else {
                format!("the first {model_rounds}")
            },
        ));
        notes.push(format!("setup_s is the median of {setups:?}"));
        notes.push(match host {
            Host::Live => "stream_done_ms is WALL ms (time_to_done); traffic crosses the host \
                           loopback, not a real link"
                .to_owned(),
            _ => "stream_done_ms is SIMULATED ms (complete_nanos)".to_owned(),
        });
    }

    // ---- report ------------------------------------------------------
    let load_end = loadavg1();
    warn_if_loaded("end", load_end);
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    for m in wanted {
        tally.check(metrics.get(m.name).is_some_and(|v| v.is_finite()), || {
            format!("metric {} was not measured", m.name)
        });
    }
    println!(
        "# {} seed {} trace {}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    for m in wanted {
        let v = metrics.get(m.name).copied().unwrap_or(0.0);
        println!("{:<36} {v:>16.6} {}", m.name, m.unit);
    }
    for note in &notes {
        println!("# {note}");
    }
    let correct = tally.failed == 0;
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(tally.attempted as f64)),
        ("failed", Value::Num(tally.failed as f64)),
        (
            "metrics",
            Value::obj(wanted.iter().map(|m| {
                let v = metrics.get(m.name).copied().filter(|v| v.is_finite());
                (
                    m.name,
                    Value::obj([
                        ("value", Value::Num(v.unwrap_or(0.0))),
                        ("unit", Value::str(m.unit)),
                    ]),
                )
            })),
        ),
    ]);

    let mmsg = plain.live.first().map(|l| l.mmsg_active);
    let provenance = Value::obj([
        ("workload", Value::str(w.name())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("smoke", Value::Bool(args.smoke)),
        (
            "git_commit",
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::str(command_line("rustc", &["-V"]))),
        (
            "kernel",
            Value::str(file_line("/proc/sys/kernel/osrelease", "")),
        ),
        ("cpu", Value::str(file_line("/proc/cpuinfo", "model name"))),
        ("nproc", Value::Num(nproc() as f64)),
        ("warmup_rounds", Value::Num(w.warmup_rounds() as f64)),
        ("model_rounds", Value::Num(model_rounds as f64)),
        ("timed_rounds", Value::Num(plain.count())),
        ("n", Value::Num(w.n(args.smoke) as f64)),
        (
            "mmsg",
            Value::str(match mmsg {
                Some(true) => "active",
                Some(false) => "fallback",
                None => "not used by this run",
            }),
        ),
        ("loadavg1_start", Value::Num(load_start)),
        ("loadavg1_end", Value::Num(load_end)),
        (
            "failures",
            Value::Arr(tally.failures.iter().map(Value::str).collect()),
        ),
        ("notes", Value::Arr(notes.iter().map(Value::str).collect())),
        (
            "round_ms",
            Value::Arr(plain.round_ms.iter().map(|v| Value::Num(*v)).collect()),
        ),
        ("result", result.clone()),
    ]);
    let out_dir = std::path::Path::new("benchmark/out");
    let file = format!(
        "result-{}-trace{}-seed{}.json",
        w.name(),
        u8::from(args.trace),
        args.seed
    );
    if let Err(e) = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(out_dir.join(file), format!("{provenance}\n")))
    {
        eprintln!("warning: could not write the result file under benchmark/out: {e}");
    }

    println!("{result}");
    correct
}

/// The figure gate, in a child process: its two sweep threads and the
/// two thousand sessions they allocate stay out of this process's peak
/// RSS and allocator state.
fn figs_pass(tally: &mut Tally) -> probes::FigsPass {
    let parsed = child(&["--figs-only".to_owned()], false).and_then(|text| {
        let mut fields = text.split_whitespace();
        let pass_s: f64 = fields
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or(format!("unreadable figure-gate output {text:?}"))?;
        let files: Vec<(&'static str, bool)> = probes::FIG_FILES
            .into_iter()
            .zip(fields.map(|f| f == "1"))
            .collect();
        Ok(probes::FigsPass { pass_s, files })
    });
    let figs = parsed.unwrap_or_else(|why| {
        eprintln!("figure gate: {why}");
        probes::FigsPass {
            pass_s: 0.0,
            files: Vec::new(),
        }
    });
    for path in probes::FIG_FILES {
        let same = figs.files.iter().any(|(p, same)| *p == path && *same);
        tally.check(same, || {
            format!("{path} is not byte-identical to the regenerated figure")
        });
    }
    figs
}

/// A decorated round must be the plain round: same events dispatched,
/// same digest (sharded), same outcome — every model metric included.
fn check_equivalent(tally: &mut Tally, plain: &[SessionResult], traced: &[SessionResult]) {
    for (p, t) in plain.iter().zip(traced) {
        let digest = |r: &SessionResult| r.shard.as_ref().map(|s| s.digest);
        let same = p.events == t.events && digest(p) == digest(t) && p.outcome == t.outcome;
        tally.check(same, || {
            format!(
                "traced {} n={} session differs from the plain one: events {} vs {}, \
                 digest {:?} vs {:?}, outcomes equal: {}",
                p.protocol.name(),
                p.n,
                t.events,
                p.events,
                digest(t),
                digest(p),
                p.outcome == t.outcome
            )
        });
    }
}

/// One session per protocol, from the first timed round, that stands for
/// the workload in the probes of layers its own rounds do not exercise.
fn probe_specs(w: Workload, args: &Args) -> Vec<SessionSpec> {
    let round = round_inputs(w, args.seed, w.warmup_rounds(), args.smoke);
    let pick = |p: Protocol| -> SessionSpec {
        // The last session of a protocol's half: the workload's only one,
        // or `paper_sweep`'s H = 100 data-plane point.
        round
            .iter()
            .rev()
            .find(|s| s.protocol == p)
            .expect("both protocols in a round")
            .clone()
    };
    vec![pick(Protocol::Dcop), pick(Protocol::Tcop)]
}

/// The sums the sharded-kernel metrics come from.
#[derive(Default)]
struct ShardView {
    /// Rounds (or probe passes) the sums cover.
    passes: f64,
    windows: u64,
    cross_sent: u64,
    sent: u64,
    clamped: u64,
    imbalance: Vec<f64>,
    busy_max_ns: u64,
    run_ns: u64,
    /// Wall of the same sessions on the single world and on the shards.
    single_s: f64,
    sharded_s: f64,
}

impl ShardView {
    fn count(&mut self, results: &[SessionResult]) {
        for r in results {
            let Some(s) = &r.shard else { continue };
            self.windows += s.stats.first().map_or(0, |k| k.windows);
            self.cross_sent += s.stats.iter().map(|k| k.cross_sent).sum::<u64>();
            self.clamped += s.stats.iter().map(|k| k.clamped).sum::<u64>();
            self.sent += s.sent;
            let loads: Vec<f64> = s.stats.iter().map(|k| k.dispatched as f64).collect();
            self.imbalance
                .push(loads.iter().copied().fold(0.0, f64::max) / mean(&loads).max(1.0));
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    w: Workload,
    args: &Args,
    plain: &Rounds,
    traced: &Rounds,
    mut tracer: Tracer,
    tally: &mut Tally,
    out: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) {
    let host = w.host();
    let specs = probe_specs(w, args);
    // The shape the function-level probes run at.
    let cfg = &specs[0].cfg;
    let single_plain = |tally: &mut Tally| -> Vec<SessionResult> {
        let r = run_round(&specs, Host::Single);
        tally.sessions(&r);
        r
    };

    // ---- sim and core: where the decorated sessions come from ---------
    // Single and sharded workloads decorated their own rounds. The live
    // workload cannot be decorated from outside (`LiveSession` builds its
    // own peers): its sim/core numbers are its own configuration run once
    // per protocol on the single world, plain and decorated.
    let (sim_plain_s, sim_plain_events, sim_traced_s, sim_passes, accepted, queue_hw);
    let mut base_single: Option<Vec<SessionResult>> = None;
    match host {
        Host::Single | Host::Sharded => {
            sim_plain_s = plain.wall_s();
            sim_plain_events = plain.events;
            sim_traced_s = traced.wall_s();
            sim_passes = traced.count();
            accepted = traced.accepted;
            queue_hw = plain.queue_high_water;
        }
        Host::Live => {
            let p = single_plain(tally);
            let t = run_round_traced(&specs, Host::Single, &mut tracer);
            tally.sessions(&t);
            check_equivalent(tally, &p, &t);
            sim_plain_s = wall_s(&p);
            sim_plain_events = p.iter().map(|r| r.events).sum();
            sim_traced_s = wall_s(&t);
            sim_passes = 1.0;
            accepted = t.iter().map(|r| r.leaf_accepted).sum();
            queue_hw = p.iter().map(|r| r.queue_high_water).max().unwrap_or(0);
            base_single = Some(p);
            notes.push(
                "sim.* and core.* (bar the counters) are the live configuration on the \
                 single-world kernel: a live session cannot be decorated from outside"
                    .to_owned(),
            );
        }
    }
    let totals = tracer.totals;
    let per = |ns: u64| ns as f64 / 1e9 / sim_passes;
    let traced_events = match host {
        Host::Live => sim_plain_events,
        _ => traced.events,
    };

    // ---- sim.shard: own rounds on the sharded workload, else a probe --
    let mut shard = ShardView::default();
    let mut queue_population = queue_hw;
    match host {
        Host::Sharded => {
            shard.passes = plain.count();
            shard.count(&plain.sharded);
            shard.busy_max_ns = totals.busy_max_ns;
            shard.run_ns = totals.run_ns;
            // The first timed round's DCoP session once more, on the
            // single world: the speed-up's base, and the only view of the
            // queue depth at this n (the sharded world reports none).
            let single = run_round(&specs[..1], Host::Single);
            tally.sessions(&single);
            shard.single_s = single[0].wall.as_secs_f64();
            shard.sharded_s = plain.sharded[0].wall.as_secs_f64();
            queue_population = single[0].queue_high_water;
            notes.push(format!(
                "sim.shard.speedup_vs_single: one DCoP session, {:.3} s on the single world / \
                 {:.3} s on {} shards",
                shard.single_s,
                shard.sharded_s,
                crate::workloads::SHARDS
            ));
        }
        Host::Single | Host::Live => {
            let single = base_single.unwrap_or_else(|| single_plain(tally));
            let sharded = run_round(&specs, Host::Sharded);
            tally.sessions(&sharded);
            let mut shard_tracer = Tracer::default();
            let decorated = run_round_traced(&specs, Host::Sharded, &mut shard_tracer);
            tally.sessions(&decorated);
            check_equivalent(tally, &sharded, &decorated);
            shard.passes = 1.0;
            shard.count(&sharded);
            shard.busy_max_ns = shard_tracer.totals.busy_max_ns;
            shard.run_ns = shard_tracer.totals.run_ns;
            shard.single_s = wall_s(&single);
            shard.sharded_s = wall_s(&sharded);
            notes.push(format!(
                "sim.shard.* is a probe: this workload's {} session per protocol on {} shards \
                 ({:.4} s single world / {:.4} s sharded)",
                describe(cfg),
                crate::workloads::SHARDS,
                shard.single_s,
                shard.sharded_s
            ));
        }
    }

    // ---- net.live: own rounds on the live workload, else a probe ------
    let (live, live_passes): (Vec<LiveStats>, f64) = match host {
        Host::Live => (plain.live.clone(), plain.count()),
        _ => {
            let n = cfg.n.min(1_000);
            let live_specs: Vec<SessionSpec> = specs
                .iter()
                .map(|s| SessionSpec {
                    cfg: SessionConfig::live(n, cfg.fanout.min(n), s.cfg.seed),
                    protocol: s.protocol,
                    crash: None,
                    limit: None,
                })
                .collect();
            let results = run_round(&live_specs, Host::Live);
            tally.sessions(&results);
            notes.push(format!(
                "net.live.* is a probe: one SessionConfig::live(n={n}) session per protocol \
                 over loopback UDP"
            ));
            (results.iter().filter_map(|r| r.live).collect(), 1.0)
        }
    };
    notes.push("live traffic crosses the host loopback, not a real link".to_owned());

    // ---- the layer tables ---------------------------------------------
    let send = totals.send();
    let timer = totals.timer();
    let nonhandler_ns = shard.run_ns.saturating_sub(shard.busy_max_ns);
    let world_self_ns = match host {
        // Parallel shards: the kernel's share of the critical path.
        Host::Sharded => totals.run_ns.saturating_sub(totals.busy_max_ns),
        _ => totals.dispatch_self_ns() + totals.runtime_self_ns(),
    };
    out.insert("sim.world.run_s", per(totals.run_ns));
    out.insert("sim.world.self_s", per(world_self_ns));
    out.insert("sim.world.events", traced_events as f64 / sim_passes);
    out.insert(
        "sim.world.ns_per_event",
        totals.run_ns as f64 / traced_events.max(1) as f64,
    );
    out.insert(
        "sim.world.events_per_s",
        sim_plain_events as f64 / sim_plain_s,
    );
    out.insert("sim.world.queue_high_water", queue_population as f64);
    out.insert("sim.runtime.send_s", per(send.ns));
    out.insert("sim.runtime.send_calls", send.calls as f64 / sim_passes);
    out.insert("sim.runtime.timer_s", per(timer.ns));
    out.insert("sim.runtime.timer_calls", timer.calls as f64 / sim_passes);
    out.insert("sim.link.busy_s", per(totals.link.ns));
    out.insert("sim.link.calls", totals.link.calls as f64 / sim_passes);
    out.insert(
        "sim.link.ns_per_call",
        totals.link.ns as f64 / totals.link.calls.max(1) as f64,
    );

    let q = probes::queue(queue_population);
    out.insert("sim.queue.push_ns", q.push_ns);
    out.insert("sim.queue.pop_ns", q.pop_ns);
    out.insert("sim.queue.hold_ns", q.hold_ns);
    notes.push(format!(
        "sim.queue.* at {} pending events",
        queue_population.max(16)
    ));

    out.insert("sim.shard.windows", shard.windows as f64 / shard.passes);
    out.insert(
        "sim.shard.cross_sent",
        shard.cross_sent as f64 / shard.passes,
    );
    out.insert(
        "sim.shard.cross_share",
        shard.cross_sent as f64 / shard.sent.max(1) as f64,
    );
    out.insert("sim.shard.imbalance", mean(&shard.imbalance));
    out.insert("sim.shard.clamped", shard.clamped as f64 / shard.passes);
    out.insert(
        "sim.shard.handler_busy_max_s",
        shard.busy_max_ns as f64 / 1e9 / shard.passes,
    );
    out.insert(
        "sim.shard.nonhandler_s",
        nonhandler_ns as f64 / 1e9 / shard.passes,
    );
    out.insert(
        "sim.shard.speedup_vs_single",
        shard.single_s / shard.sharded_s,
    );

    out.insert("core.session.build_s", per(totals.build_ns));
    out.insert("core.session.summarize_s", per(totals.summarize_ns));
    out.insert("core.session.drop_s", per(totals.drop_ns));
    out.insert(
        "core.session.build_share",
        totals.build_ns as f64 / totals.session_ns().max(1) as f64,
    );
    out.insert("core.handlers.self_s", per(totals.handlers_self_ns()));
    out.insert(
        "core.handlers.calls",
        totals.plane.handler.calls as f64 / sim_passes,
    );
    out.insert(
        "core.handlers.ns_per_call",
        totals.handlers_self_ns() as f64 / totals.plane.handler.calls.max(1) as f64,
    );
    out.insert("core.leaf.self_s", per(totals.leaf_self_ns()));
    out.insert(
        "core.leaf.calls",
        totals.leaf.handler.calls as f64 / sim_passes,
    );
    out.insert(
        "core.leaf.ns_per_accepted_pkt",
        totals.leaf_self_ns() as f64 / accepted.max(1) as f64,
    );
    out.insert("core.dcop.session_ms_p50", median(&plain.dcop_ms));
    out.insert("core.tcop.session_ms_p50", median(&plain.tcop_ms));
    out.insert("core.coord.msgs", plain.coord_msgs as f64 / plain.count());
    out.insert(
        "core.coord.bytes_tx",
        plain.coord_bytes_tx as f64 / plain.count(),
    );
    out.insert("core.data.msgs", plain.data_msgs as f64 / plain.count());
    out.insert(
        "core.repair.rounds",
        plain.repair_rounds as f64 / plain.count(),
    );
    let s = probes::schedule(cfg);
    out.insert("core.schedule.merge_ns", s.merge_ns);
    out.insert("core.schedule.derive_ns", s.derive_ns);

    let m = probes::media(cfg);
    out.insert("media.parity.enhance_ns", m.enhance_ns);
    out.insert("media.parity.div_ns", m.div_ns);
    out.insert("media.decoder.insert_ns", m.insert_ns);
    out.insert(
        "media.decoder.recovered",
        plain.recovered as f64 / plain.count(),
    );
    out.insert("media.kernels.xor_mib_s", m.xor_mib_s);
    out.insert("media.packet.synth_mib_s", m.synth_mib_s);

    let o = probes::overlay(cfg);
    out.insert("overlay.view.union_ns", o.union_ns);
    out.insert("overlay.select.pick_ns", o.pick_ns);
    out.insert("overlay.wire.encode_ns", o.encode_ns);
    out.insert("overlay.wire.decode_ns", o.decode_ns);
    out.insert("overlay.wire.bytes_per_view", o.bytes_per_view);
    notes.push(format!(
        "schedule, media and overlay probes at {}",
        describe(cfg)
    ));

    let c = probes::codec(&tracer.corpus);
    out.insert("net.codec.encode_ns", c.encode_ns);
    out.insert("net.codec.decode_ns", c.decode_ns);
    out.insert("net.codec.bytes_per_frame", c.bytes_per_frame);
    notes.push(format!(
        "net.codec.* over {} messages sampled from the decorated sessions",
        tracer.corpus.len()
    ));

    let sum = |f: fn(&LiveStats) -> f64| live.iter().map(f).sum::<f64>();
    out.insert("net.live.setup_s", sum(|l| l.setup_s) / live_passes);
    out.insert("net.live.done_s", sum(|l| l.done_s) / live_passes);
    out.insert("net.live.sent", sum(|l| l.sent as f64) / live_passes);
    out.insert(
        "net.live.msgs_per_s",
        sum(|l| l.sent as f64) / sum(|l| l.setup_s + l.done_s),
    );
    out.insert(
        "net.live.rx_batch_mean",
        sum(|l| l.rx_datagrams as f64) / sum(|l| l.rx_batches as f64).max(1.0),
    );
    out.insert(
        "net.live.tx_batch_mean",
        sum(|l| l.tx_datagrams as f64) / sum(|l| l.tx_batches as f64).max(1.0),
    );
    out.insert(
        "net.live.rx_dropped",
        sum(|l| l.rx_dropped as f64) / live_passes,
    );
    out.insert(
        "net.live.rx_decode_err",
        sum(|l| l.rx_decode_err as f64) / live_passes,
    );
    out.insert(
        "net.live.mailbox_hwm",
        live.iter().map(|l| l.mailbox_hwm).max().unwrap_or(0) as f64,
    );
    out.insert(
        "net.live.view_resync_fallbacks",
        sum(|l| l.view_resync_fallbacks as f64) / live_passes,
    );

    // ---- the trace itself ----------------------------------------------
    out.insert(
        "bench.trace.overhead_share",
        (sim_traced_s - sim_plain_s) / sim_plain_s,
    );
    // Layer self times against the wall the rounds measured with their own
    // clock reads. On the critical path of a sharded run the handler share
    // is the busiest shard's.
    let self_sum_ns = match host {
        Host::Sharded => totals.session_ns(),
        _ => {
            totals.build_ns
                + totals.summarize_ns
                + totals.drop_ns
                + totals.dispatch_self_ns()
                + totals.handlers_self_ns()
                + totals.leaf_self_ns()
                + totals.runtime_self_ns()
                + totals.link.ns
        }
    };
    out.insert(
        "bench.trace.reconcile_gap_share",
        (sim_traced_s - self_sum_ns as f64 / 1e9).abs() / sim_traced_s,
    );
    out.insert("bench.trace.clock_ns", probes::clock_ns());

    let path = format!("benchmark/out/trace-{}.jsonl", w.name());
    if let Err(e) = std::fs::create_dir_all("benchmark/out")
        .and_then(|()| tracer.write_jsonl(std::path::Path::new(&path)))
    {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        notes.push(format!(
            "{} spans and {} aggregates written to {path}",
            tracer.spans.len(),
            tracer.aggs.len()
        ));
    }
}

fn describe(cfg: &SessionConfig) -> String {
    format!(
        "n={} H={} h={} content {}x{}B",
        cfg.n, cfg.fanout, cfg.parity_interval, cfg.content.packets, cfg.content.packet_bytes
    )
}
