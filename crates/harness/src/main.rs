//! `mss-experiments` — regenerate the paper's figures from the command
//! line. See `mss_harness` crate docs for usage.

use mss_harness::{experiment_by_name, RunOpts, EXPERIMENTS};

fn usage() -> ! {
    eprintln!(
        "usage: mss-experiments <experiment|all> [--seeds N] [--threads N] [--shards N] [--full]"
    );
    eprintln!("       mss-experiments timeline [protocol] (ascii session timeline)");
    eprintln!("experiments:");
    for (name, _) in EXPERIMENTS {
        eprintln!("  {name}");
    }
    std::process::exit(2);
}

fn run_timeline(which: Option<String>) {
    use mss_core::config::Protocol;
    let protocols: Vec<Protocol> = match which.as_deref() {
        None => Protocol::ALL.to_vec(),
        Some(name) => vec![*Protocol::ALL
            .iter()
            .find(|p| p.name().eq_ignore_ascii_case(name))
            .unwrap_or_else(|| {
                eprintln!("unknown protocol '{name}'");
                std::process::exit(2);
            })],
    };
    for p in protocols {
        println!("{}", mss_harness::timeline::render(p, 10, 3, 7));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut opts = RunOpts::default();
    let mut which: Option<String> = None;
    let mut extra: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => {
                // Zero seeds would overwrite every committed CSV with
                // rows of zeros.
                opts.seeds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s > 0)
                    .unwrap_or_else(|| usage())
            }
            "--threads" => {
                opts.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--shards" => {
                opts.shards = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--full" => opts.full = true,
            name if which.is_none() && !name.starts_with('-') => which = Some(name.to_owned()),
            name if extra.is_none() && !name.starts_with('-') => extra = Some(name.to_owned()),
            _ => usage(),
        }
    }
    let which = which.unwrap_or_else(|| usage());
    if which == "timeline" {
        run_timeline(extra);
        return;
    }
    // Only `timeline` takes a second positional argument.
    if extra.is_some() {
        usage();
    }

    let started = std::time::Instant::now();
    if which == "all" {
        for (name, run) in EXPERIMENTS {
            eprintln!("[{:7.1?}] running {name} …", started.elapsed());
            run(&opts).emit();
        }
    } else if let Some(run) = experiment_by_name(&which) {
        run(&opts).emit();
    } else {
        eprintln!("unknown experiment '{which}'");
        usage();
    }
    eprintln!("done in {:.1?}", started.elapsed());
}
