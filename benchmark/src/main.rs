//! The layered benchmark of the WQE reproduction. See `README.md` beside
//! this package for the workloads, the metrics and how they interact.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run; the last
//!                                                        stdout line is its result
//! run.sh [--seed N] [--seconds S] [--workload W] [--repeat K] [--out FILE] [--smoke]
//!                                                        every workload, untraced then
//!                                                        traced, into a run record
//! run.sh compare A.json B.json                           two run records, row by row
//! run.sh describe                                        BENCHMARK.json for this table
//! run.sh baseline RECORD.json                            baseline.json from a run record
//! ```

mod baseline;
mod compare;
mod config;
mod harness;
mod inputs;
mod layers;
mod metrics;
mod replay;
mod run;
mod servepath;
mod spec_render;
mod trace;
mod workloads;

use config::{Scale, DEFAULT_SEED, RUN_SECONDS};
use metrics::WORKLOADS;
use run::{RunArgs, RunResult};
use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

const RESULTS_DIR: &str = "benchmark/results";

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    smoke: bool,
    repeat: usize,
    out: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat K] \
         [--out FILE] [--smoke]\n       run.sh compare A.json B.json\n       run.sh baseline RECORD.json\n       run.sh describe\n\
         workloads: {}",
        WORKLOADS.map(|(name, _)| name).join(", ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Cli> {
    let mut cli = Cli {
        repeat: 1,
        ..Default::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.smoke = true;
            continue;
        }
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => cli.workload = Some(value.clone()),
            "--seed" => cli.seed = Some(value.parse().ok()?),
            "--seconds" => cli.seconds = Some(value.parse().ok().filter(|s| (1..=60).contains(s))?),
            "--trace" => cli.trace = Some(matches!(value.as_str(), "1" | "true")),
            "--repeat" => cli.repeat = value.parse().ok().filter(|&k| k >= 1)?,
            "--out" => cli.out = Some(value.clone()),
            _ => return None,
        }
    }
    let known = |w: &String| WORKLOADS.iter().any(|(name, _)| name == w);
    cli.workload.as_ref().is_none_or(known).then_some(cli)
}

/// The result line of the contract: exactly `correct`, `attempted`,
/// `failed` and `metrics`, every value with all its digits.
fn result_line(result: &RunResult, trace: bool) -> String {
    let metrics: Vec<String> = metrics::defs(trace)
        .iter()
        .map(|d| {
            let value = result.metrics.get(d.name).expect("checked before printing");
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct(),
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

/// One run of one workload in this process.
fn run_one(workload: &str, cli: &Cli, started: Instant) -> ExitCode {
    let trace = cli.trace.unwrap_or(false);
    let args = RunArgs {
        seed: cli.seed.unwrap_or(DEFAULT_SEED),
        seconds: cli.seconds.unwrap_or(RUN_SECONDS),
        trace,
        scale: if cli.smoke {
            Scale::smoke()
        } else {
            Scale::full()
        },
        started,
        out_dir: PathBuf::from(RESULTS_DIR),
    };
    let mut result = workloads::run(workload, &args).expect("workload names are checked at parse");
    if let Ok(dir) = args.scratch_dir() {
        let _ = std::fs::remove_dir_all(dir);
    }
    if let Err(e) = result.metrics.check(trace) {
        eprintln!("{workload}: {e}");
        return ExitCode::FAILURE;
    }
    for v in &result.violations {
        eprintln!("{workload}: INCORRECT: {v}");
    }
    if let Some(digest) = result.answers_digest.take() {
        eprintln!("{workload}: answers_digest {digest}");
        println!("{workload} answers_digest {digest} hex");
    }
    for d in metrics::defs(trace) {
        let value = result.metrics.get(d.name).expect("checked above");
        println!("{workload} {} {value} {}", d.name, d.unit);
    }
    println!("{}", result_line(&result, trace));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `workloads` × {untraced, traced} × `repeat`, each in a process of
/// its own (peak memory is per process), and writes the run record.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    let seconds = cli
        .seconds
        .unwrap_or(if cli.smoke { 1 } else { RUN_SECONDS });
    let names: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|(name, _)| *name).collect(),
    };
    let mut runs = Vec::new();
    let mut all_correct = true;
    for _ in 0..cli.repeat {
        for &workload in &names {
            for trace in [0u64, 1] {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload, "--trace", &trace.to_string()]);
                cmd.args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ]);
                if cli.smoke {
                    cmd.arg("--smoke");
                }
                // The child's stderr passes through; `output` waits for it.
                let out = match cmd.stderr(std::process::Stdio::inherit()).output() {
                    Ok(out) => out,
                    Err(e) => {
                        eprintln!("cannot start {workload}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let stdout = String::from_utf8_lossy(&out.stdout);
                let mut lines: Vec<&str> = stdout.lines().collect();
                let record = lines
                    .pop()
                    .and_then(|l| serde_json::from_str::<Value>(l).ok());
                let Some(Value::Object(mut record)) = record else {
                    eprintln!("{workload} (trace {trace}) printed no result");
                    return ExitCode::FAILURE;
                };
                for line in &lines {
                    println!("{line}");
                }
                all_correct &= out.status.success()
                    && record.get("correct").and_then(Value::as_bool) == Some(true);
                let digest = lines
                    .iter()
                    .find_map(|l| l.strip_prefix(&format!("{workload} answers_digest ")))
                    .and_then(|rest| rest.split_whitespace().next());
                if let Some(digest) = digest {
                    record.insert("answers_digest".into(), Value::from(digest));
                }
                record.insert("workload".into(), Value::from(workload));
                record.insert("trace".into(), Value::from(trace));
                record.insert("seed".into(), Value::from(seed));
                runs.push(Value::Object(record));
            }
        }
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let record = serde_json::json!({
        "schema": 1,
        "seed": seed,
        "seconds": seconds,
        "smoke": cli.smoke,
        "available_parallelism": cores,
        "runs": runs,
    });
    let path = cli.out.clone().unwrap_or_else(|| {
        let name = if cli.smoke {
            "smoke".to_string()
        } else {
            seed.to_string()
        };
        format!("{RESULTS_DIR}/run-{name}.json")
    });
    let text = serde_json::to_string_pretty(&record).expect("a run record serializes");
    let written =
        std::fs::create_dir_all(RESULTS_DIR).and_then(|()| std::fs::write(&path, text + "\n"));
    if let Err(e) = written {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "wrote {path} ({} runs, all correct: {all_correct})",
        runs.len()
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("describe") => {
            print!("{}", metrics::benchmark_json(RUN_SECONDS));
            return ExitCode::SUCCESS;
        }
        Some("baseline") => {
            let [_, record] = args.as_slice() else {
                return usage();
            };
            return match baseline::from_record(record) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            };
        }
        Some("compare") => {
            let [_, base, new] = args.as_slice() else {
                return usage();
            };
            return match compare::run(base, new) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let Some(cli) = parse(&args) else {
        return usage();
    };
    match (&cli.workload, cli.trace) {
        (Some(workload), Some(_)) => run_one(workload, &cli, started),
        _ => run_all(&cli),
    }
}
