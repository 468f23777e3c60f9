//! The four workloads. Their names are fixed in `metrics::WORKLOADS`.

pub mod cold_start;
pub mod live_mixed;
pub mod search_cold;
pub mod serve_hot;

use crate::run::{RunArgs, RunResult};

/// Runs the named workload, or `None` for a name that is not one.
pub fn run(name: &str, args: &RunArgs) -> Option<RunResult> {
    Some(match name {
        "search_cold" => search_cold::run(args),
        "serve_hot" => serve_hot::run(args),
        "live_mixed" => live_mixed::run(args),
        "cold_start" => cold_start::run(args),
        _ => return None,
    })
}
