//! `baseline.json`: what this benchmark measured at the commit that
//! defined it, and the answers digest of every workload at the default
//! seed. Compiled in, so a run needs no path to it.

use serde_json::Value;

const BASELINE: &str = include_str!("../baseline.json");

/// The recorded digest of `workload`'s answers at the default seed and
/// run length.
pub fn answers_digest(workload: &str) -> Option<String> {
    let doc: Value = serde_json::from_str(BASELINE).ok()?;
    Some(
        doc.get("answers_digest")?
            .get(workload)?
            .as_str()?
            .to_string(),
    )
}

/// Condenses a run record (`run.sh --repeat K --out FILE`) into the text of
/// `baseline.json`: per workload the answers digest, the median of every
/// metric over the record's runs, and for the end-to-end metrics their
/// quartile spread as a share of the median.
pub fn from_record(path: &str) -> Result<String, String> {
    use crate::compare::{load, runs_of, values};
    use crate::harness::{median, quartile_spread};
    use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
    use std::fmt::Write as _;

    let doc = load(path)?;
    let field = |key: &str| {
        doc.get(key)
            .and_then(Value::as_u64)
            .ok_or(format!("no {key} in the record"))
    };
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"available_parallelism\": {},\n  \"answers_digest\": {{",
        field("seed")?,
        field("seconds")?,
        field("available_parallelism")?
    );
    for (i, (workload, _)) in WORKLOADS.iter().enumerate() {
        let digest = runs_of(&doc, workload, 0)
            .find_map(|r| r.get("answers_digest")?.as_str())
            .ok_or(format!("no untraced run of {workload} in the record"))?;
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{workload}\": \"{digest}\"");
    }
    out.push_str("\n  }");
    for (section, trace, defs) in [
        ("end_to_end", 0, &END_TO_END[..]),
        ("per_layer", 1, &PER_LAYER[..]),
    ] {
        let _ = write!(out, ",\n  \"{section}\": {{");
        for (i, (workload, _)) in WORKLOADS.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{workload}\": {{");
            for (j, d) in defs.iter().enumerate() {
                let v = values(&doc, workload, trace, d.name);
                if v.is_empty() {
                    return Err(format!("{workload} {} is missing from the record", d.name));
                }
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\n      \"{}\": {}", d.name, median(&v));
            }
            out.push_str("\n    }");
        }
        out.push_str("\n  }");
    }
    out.push_str(",\n  \"end_to_end_spread\": {");
    for (i, (workload, _)) in WORKLOADS.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{workload}\": {{");
        for (j, d) in END_TO_END.iter().enumerate() {
            let spread = quartile_spread(&values(&doc, workload, 0, d.name)).unwrap_or(0.0);
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": {spread:.4}", d.name);
        }
        out.push('}');
    }
    out.push_str("\n  }\n}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DEFAULT_SEED, RUN_SECONDS};
    use crate::metrics::{END_TO_END, WORKLOADS};

    #[test]
    fn baseline_covers_every_workload_and_metric() {
        let doc: Value = serde_json::from_str(BASELINE).expect("baseline.json is JSON");
        assert_eq!(doc.get("seed").and_then(Value::as_u64), Some(DEFAULT_SEED));
        assert_eq!(
            doc.get("seconds").and_then(Value::as_u64),
            Some(RUN_SECONDS)
        );
        for (workload, _) in WORKLOADS {
            assert!(
                answers_digest(workload).is_some(),
                "no digest for {workload}"
            );
            let row = doc
                .get("end_to_end")
                .and_then(|e| e.get(workload))
                .expect("a row per workload");
            for d in &END_TO_END {
                assert!(
                    row.get(d.name).and_then(Value::as_f64).is_some(),
                    "{workload} {}",
                    d.name
                );
            }
        }
    }
}
