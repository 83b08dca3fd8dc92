//! `servebench --workload <interact|edit_large|restart> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Run from the repository root (see `servebench/run.sh`). Builds the
//! release `hazel` binary, refuses a debug or stale binary, drives `hazel
//! serve` over a Unix socket, checks every reply against the in-process
//! oracle, and prints one line per metric followed by a JSON summary as
//! the last line, carrying the metrics `BENCHMARK.json` names. Exits 1 when
//! a reply is wrong or missing (no metric is printed then) and 2 on any
//! other error.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use livelit_server::json::{self, Json};
use servebench::drive::Budget;
use servebench::plan::Workload;
use servebench::{serve, Metric, Options};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!("{:<36} {:>14.4} {:<6} n={}", m.name, m.value, m.unit, m.n);
    }
}

fn summary(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The metric names `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let spec = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    spec.get(section)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("a {section} metric in BENCHMARK.json has no name"))
        })
        .collect()
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("servebench: {e}");
        ExitCode::from(2)
    })
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let names = declared(section)?;
    let hazel = serve::build_hazel(Path::new("."))?;
    let opts = Options {
        workload: args.workload,
        seed: args.seed,
        budget: Budget::Seconds(args.seconds),
        trace: args.trace,
        hazel,
        scratch: PathBuf::from(".servebench_tmp"),
    };
    let outcome = servebench::run(&opts);
    let _ = std::fs::remove_dir(&opts.scratch);
    let outcome = outcome?;
    if let Some(failure) = &outcome.failure {
        // A wrong program posts no speed number.
        eprintln!(
            "servebench: {} of {} replies wrong or missing",
            outcome.failed, outcome.attempted
        );
        eprintln!("servebench: {failure}");
        println!(
            "{}",
            summary(false, outcome.attempted, outcome.failed.max(1), &[])
        );
        return Ok(ExitCode::from(1));
    }
    let title = format!("{} seed {}", args.workload.name(), args.seed);
    print_metrics(&format!("{title}: end to end"), &outcome.end_to_end);
    if args.trace {
        print_metrics(&format!("{title}: per layer"), &outcome.per_layer);
    }
    let produced = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let shown: Vec<&Metric> = names
        .iter()
        .map(|name| {
            produced
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("{} produced no {name}", args.workload.name()))
        })
        .collect::<Result<_, _>>()?;
    println!("{}", summary(true, outcome.attempted, 0, &shown));
    Ok(ExitCode::SUCCESS)
}
