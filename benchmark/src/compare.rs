//! `compare A.json B.json`: one row per workload and end-to-end metric,
//! with the verdict rule of the choosing-metrics guide — a difference
//! counts only beyond the metric's bound, and only when the runs of each
//! side agree among themselves more closely than that.

use crate::harness::{median, quartile_spread};
use crate::metrics::{Better, MetricDef, END_TO_END, WORKLOADS};
use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base` for one metric. Values are one per run.
pub fn verdict(def: &MetricDef, base: &[f64], new: &[f64]) -> Verdict {
    let bound = def.bound.expect("only end-to-end metrics are compared");
    let (b, n) = (median(base), median(new));
    if b == 0.0 {
        return if n == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    // Positive when `new` is worse.
    let worse_by = match def.better {
        Better::Lower => (n - b) / b.abs(),
        Better::Higher => (b - n) / b.abs(),
    };
    let is_better = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let spread = [base, new]
        .into_iter()
        .filter_map(quartile_spread)
        .fold(0.0, f64::max);
    if spread > bound {
        // Too noisy to call, unless the two sides do not even overlap.
        let clean_win = new.iter().all(|&x| base.iter().all(|&y| is_better(x, y)));
        return if clean_win {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The runs of `workload` in a run record, traced or untraced.
pub fn runs_of<'a>(
    doc: &'a Value,
    workload: &'a str,
    trace: u64,
) -> impl Iterator<Item = &'a Value> {
    let runs = doc.get("runs").and_then(Value::as_array);
    runs.into_iter().flatten().filter(move |r| {
        r.get("workload").and_then(Value::as_str) == Some(workload)
            && r.get("trace").and_then(Value::as_u64) == Some(trace)
    })
}

/// The values of `workload`'s `metric`, one per run in the record.
pub fn values(doc: &Value, workload: &str, trace: u64, metric: &str) -> Vec<f64> {
    runs_of(doc, workload, trace)
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

pub fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} is not a run record: {e}"))
}

/// Prints the table. `Ok(true)` when no row is `worse`.
pub fn run(base_path: &str, new_path: &str) -> Result<bool, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    let mut clean = true;
    for (workload, _) in WORKLOADS {
        for def in &END_TO_END {
            let (b, n) = (
                values(&base, workload, 0, def.name),
                values(&new, workload, 0, def.name),
            );
            if b.is_empty() || n.is_empty() {
                return Err(format!("{workload} {} is missing from one side", def.name));
            }
            let v = verdict(def, &b, &n);
            clean &= v != Verdict::Worse;
            println!(
                "{workload:<12} {:<18} {:>14.4} {:>14.4} {:>7.3} {:>6.2}  {} (n={}/{})",
                def.name,
                median(&b),
                median(&n),
                median(&n) / median(&b),
                def.bound.unwrap_or(0.0),
                v.as_str(),
                b.len(),
                n.len(),
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn differences_inside_the_bound_are_the_same() {
        let ops = def("ops_per_s"); // higher is better, bound 25%
        assert_eq!(verdict(ops, &[100.0], &[90.0]), Verdict::Same);
        assert_eq!(verdict(ops, &[100.0], &[70.0]), Verdict::Worse);
        assert_eq!(verdict(ops, &[100.0], &[130.0]), Verdict::Better);
        let p50 = def("latency_p50_ms"); // lower is better, bound 25%
        assert_eq!(verdict(p50, &[10.0], &[13.0]), Verdict::Worse);
        assert_eq!(verdict(p50, &[10.0], &[7.0]), Verdict::Better);
    }

    #[test]
    fn noisy_sides_are_unresolved_unless_they_do_not_overlap() {
        let p50 = def("latency_p50_ms");
        let noisy = [6.0, 10.0, 14.0, 18.0, 8.0, 16.0];
        assert_eq!(
            verdict(p50, &noisy, &[7.0, 11.0, 15.0, 19.0, 9.0, 17.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(p50, &noisy, &[2.0, 3.0, 4.0, 5.0, 2.5, 4.5]),
            Verdict::Better
        );
    }
}
