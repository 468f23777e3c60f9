//! The `wqe-cli` binary end to end: a fault plan taken from the
//! environment in `main` must reach the distance oracle through the
//! session, the worker pool and the oracle's degradation ladder, and change
//! nothing but the profile's fault and retry counters.

mod common;

use std::path::PathBuf;
use std::process::Command;

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wqe-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs the CLI with `args` and extra environment, asserting success, and
/// returns its stdout.
fn cli(args: &[&str], env: &[(&str, &str)]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_wqe-cli"))
        .args(args)
        .env_remove("WQE_FAULT_SEED")
        .envs(env.iter().copied())
        .output()
        .expect("run wqe-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "wqe-cli {args:?} failed: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The value of the `"faults_injected"` counter in a `--profile` dump.
fn faults_injected(stdout: &str) -> u64 {
    stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"faults_injected\":"))
        .expect("profile has faults_injected")
        .trim_end_matches(',')
        .trim()
        .parse()
        .unwrap()
}

/// The line naming the best rewrite's closeness.
fn closeness_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("#1 rewrite (closeness"))
        .expect("a best rewrite")
}

#[test]
fn fault_plan_from_the_environment_reaches_the_oracle() {
    let dir = scratch_dir();
    let graph = dir.join("product.jsonl");
    let question = dir.join("fig1.json");
    let graph = graph.to_str().unwrap();
    cli(&["gen", "product", "1", "0", graph], &[]);
    std::fs::write(&question, common::PAPER_SPEC).expect("write spec");
    let why = [
        "why",
        graph,
        question.to_str().unwrap(),
        "--budget",
        "4",
        "--profile",
    ];

    let clean = cli(&why, &[]);
    let faulted = cli(
        &why,
        &[
            ("WQE_FAULT_SEED", "42"),
            ("WQE_FAULT_PERIOD", "4"),
            ("WQE_FAULT_SITES", "oracle"),
        ],
    );
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(faults_injected(&clean), 0);
    assert!(faults_injected(&faulted) > 0, "the plan never fired");
    assert_eq!(closeness_line(&clean), closeness_line(&faulted));
    assert!(closeness_line(&clean).contains("closeness 0.500"));
}

#[test]
fn a_flag_value_that_does_not_parse_exits_2() {
    let dir = std::env::temp_dir().join(format!("wqe-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let graph = dir.join("product.jsonl");
    let question = dir.join("fig1.json");
    let graph = graph.to_str().unwrap();
    cli(&["gen", "product", "1", "0", graph], &[]);
    std::fs::write(&question, common::PAPER_SPEC).expect("write spec");
    let out = Command::new(env!("CARGO_BIN_EXE_wqe-cli"))
        .args(["why", graph, question.to_str().unwrap(), "--budget", "4x"])
        .env_remove("WQE_FAULT_SEED")
        .output()
        .expect("run wqe-cli");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        stderr.trim_end(),
        r#"--budget: expected a number, got "4x""#
    );
}

#[test]
fn the_question_files_algo_is_the_algorithm() {
    let dir = std::env::temp_dir().join(format!("wqe-cli-algo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let graph = dir.join("product.jsonl");
    let question = dir.join("fig1-fm.json");
    let graph = graph.to_str().unwrap();
    cli(&["gen", "product", "1", "0", graph], &[]);
    let mut spec: serde_json::Value = serde_json::from_str(common::PAPER_SPEC).unwrap();
    if let serde_json::Value::Object(m) = &mut spec {
        m.insert("algo".into(), serde_json::json!("fm"));
    }
    std::fs::write(&question, spec.to_string()).expect("write spec");
    let q = question.to_str().unwrap();

    let from_file = cli(&["why", graph, q, "--budget", "4"], &[]);
    let agreeing = cli(&["why", graph, q, "--budget", "4", "--algo", "fm"], &[]);
    let out = Command::new(env!("CARGO_BIN_EXE_wqe-cli"))
        .args(["why", graph, q, "--budget", "4", "--algo", "answ"])
        .env_remove("WQE_FAULT_SEED")
        .output()
        .expect("run wqe-cli");
    std::fs::remove_dir_all(&dir).ok();

    assert!(closeness_line(&from_file).contains("closeness 0.167"));
    assert_eq!(closeness_line(&from_file), closeness_line(&agreeing));
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("--algo answ") && stderr.contains("\"fm\""),
        "{stderr}"
    );
}
