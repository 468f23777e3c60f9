//! Regenerates the paper's tables and figures.
//!
//! ```text
//! paper_experiments <experiment-id>|all [--scale F] [--queries N]
//!                   [--seed S] [--budget B] [--time-limit MS]
//!                   [--out results.jsonl] [--profiles-dir DIR]
//!                   [--quick|--full]
//! ```
//!
//! With `--profiles-dir DIR`, every experiment also writes the per-query
//! observability profiles (stage spans + counter registry) behind its data
//! points to `DIR/PROFILE_<experiment-id>.json`; without it nothing but
//! `--out` is written.
//!
//! Experiment ids: see `--list` or DESIGN.md §5.

mod experiments;
mod report;
mod runner;

use experiments::{run_experiment, ExpConfig, ALL_EXPERIMENTS};
use report::Reporter;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        usage();
        return;
    }
    if args[0] == "--list" {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    if args[0] == "compare" {
        // paper_experiments compare baseline.jsonl candidate.jsonl [tol]
        let (Some(base), Some(cand)) = (args.get(1), args.get(2)) else {
            eprintln!(
                "usage: paper_experiments compare <baseline.jsonl> <candidate.jsonl> [tolerance]"
            );
            std::process::exit(2);
        };
        let tol: f64 = args.get(3).and_then(|t| t.parse().ok()).unwrap_or(2.0);
        let load = |p: &str| -> Reporter {
            let f = std::fs::File::open(p).unwrap_or_else(|e| {
                eprintln!("cannot open {p}: {e}");
                std::process::exit(1);
            });
            Reporter::read_jsonl(std::io::BufReader::new(f)).unwrap_or_else(|e| {
                eprintln!("cannot parse {p}: {e}");
                std::process::exit(1);
            })
        };
        let comparisons = load(base).compare(&load(cand), tol);
        let mut flagged = 0;
        println!("| experiment | series | x | baseline | candidate | ratio |");
        println!("|---|---|---|---|---|---|");
        for c in &comparisons {
            if c.flagged {
                flagged += 1;
                println!(
                    "| {} | {} | {} | {:.3} | {:.3} | **{:.2}x** |",
                    c.experiment, c.series, c.x, c.baseline, c.candidate, c.ratio
                );
            }
        }
        eprintln!(
            "{} of {} shared points outside the {tol}x band",
            flagged,
            comparisons.len()
        );
        std::process::exit(if flagged > 0 { 1 } else { 0 });
    }

    let target = args[0].clone();
    let mut cfg = ExpConfig::default();
    let mut out_path: Option<String> = None;
    let mut profiles_dir: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut take = |cfgv: &mut dyn FnMut(&str)| {
            i += 1;
            if i < args.len() {
                cfgv(&args[i]);
            } else {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            }
        };
        match flag {
            "--scale" => take(&mut |v| cfg.scale = v.parse().expect("--scale takes a float")),
            "--queries" => take(&mut |v| cfg.queries = v.parse().expect("--queries takes an int")),
            "--seed" => take(&mut |v| cfg.seed = v.parse().expect("--seed takes an int")),
            "--budget" => take(&mut |v| cfg.budget = v.parse().expect("--budget takes a float")),
            "--time-limit" => {
                take(&mut |v| cfg.time_limit_ms = v.parse().expect("--time-limit takes ms"))
            }
            "--out" => take(&mut |v| out_path = Some(v.to_string())),
            "--profiles-dir" => take(&mut |v| profiles_dir = Some(v.to_string())),
            "--quick" => {
                cfg.scale = 0.01;
                cfg.queries = 2;
                cfg.time_limit_ms = 400;
                cfg.max_expansions = 60;
            }
            "--full" => {
                cfg.scale = 0.25;
                cfg.queries = 10;
                cfg.time_limit_ms = 4000;
                cfg.max_expansions = 1000;
            }
            other => {
                eprintln!("unknown flag {other}");
                usage();
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let ids: Vec<&str> = if target == "all" {
        ALL_EXPERIMENTS.to_vec()
    } else if ALL_EXPERIMENTS.contains(&target.as_str()) {
        vec![Box::leak(target.clone().into_boxed_str()) as &str]
    } else {
        eprintln!("unknown experiment {target:?}; use --list");
        std::process::exit(2);
    };

    let mut all = Reporter::new();
    for id in ids {
        eprintln!(
            "== running {id} (scale={}, queries={}, B={}) ==",
            cfg.scale, cfg.queries, cfg.budget
        );
        let t0 = std::time::Instant::now();
        match run_experiment(id, &cfg) {
            Some(rep) => {
                print!("{}", rep.to_markdown_all());
                if let Some(dir) = &profiles_dir {
                    if !rep.profiles().is_empty() {
                        let path = format!("{dir}/PROFILE_{id}.json");
                        match write_profiles(&rep, dir, &path) {
                            Ok(()) => {
                                eprintln!("wrote {} profiles to {path}", rep.profiles().len())
                            }
                            Err(e) => eprintln!("cannot write {path}: {e}"),
                        }
                    }
                }
                all.merge(rep);
                eprintln!("== {id} done in {:.1}s ==", t0.elapsed().as_secs_f64());
            }
            None => {
                // Every listed id must dispatch; `all --quick` in verify.sh
                // relies on this exit code to catch a missing match arm.
                eprintln!("experiment {id} is listed but not dispatched");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = out_path {
        let file = std::fs::File::create(&path).expect("create output file");
        let mut w = std::io::BufWriter::new(file);
        all.write_jsonl(&mut w).expect("write results");
        w.flush().expect("flush");
        eprintln!("wrote {} rows to {path}", all.rows().len());
    }
}

fn write_profiles(rep: &Reporter, dir: &str, path: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    rep.write_profiles_json(&mut w)?;
    w.flush()
}

fn usage() {
    eprintln!(
        "usage: paper_experiments <experiment-id|all> [--scale F] [--queries N] \
         [--seed S] [--budget B] [--time-limit MS] [--out FILE] \
         [--profiles-dir DIR] [--quick|--full]\n\
         ids: {}",
        ALL_EXPERIMENTS.join(", ")
    );
}
