//! Experiment result collection and rendering.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write;
use wqe_core::QueryProfile;

/// One measured data point of a figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExpRow {
    /// Figure identifier, e.g. `fig10a`.
    pub experiment: String,
    /// Series (algorithm) name, e.g. `AnsW`.
    pub series: String,
    /// X-axis value, e.g. a dataset name or a budget.
    pub x: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms` or `delta`.
    pub unit: String,
}

/// One per-query observability profile attached to an experiment data
/// point (the stage/counter breakdown behind the row's aggregate value).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileRow {
    /// Figure identifier, e.g. `fig10a`.
    pub experiment: String,
    /// Series (algorithm) name, e.g. `AnsW`.
    pub series: String,
    /// X-axis value the profile belongs to.
    pub x: String,
    /// Question index within the workload.
    pub question: usize,
    /// The full per-query profile.
    pub profile: QueryProfile,
}

/// Collects rows and renders them per experiment.
#[derive(Debug, Default)]
pub struct Reporter {
    rows: Vec<ExpRow>,
    profiles: Vec<ProfileRow>,
}

impl Reporter {
    /// Creates an empty reporter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a data point.
    pub fn record(
        &mut self,
        experiment: &str,
        series: &str,
        x: impl ToString,
        value: f64,
        unit: &str,
    ) {
        self.rows.push(ExpRow {
            experiment: experiment.to_string(),
            series: series.to_string(),
            x: x.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Records the per-query profiles behind one data point, in question
    /// order.
    pub fn record_profiles(
        &mut self,
        experiment: &str,
        series: &str,
        x: impl ToString,
        profiles: &[QueryProfile],
    ) {
        let x = x.to_string();
        for (question, profile) in profiles.iter().enumerate() {
            self.profiles.push(ProfileRow {
                experiment: experiment.to_string(),
                series: series.to_string(),
                x: x.clone(),
                question,
                profile: profile.clone(),
            });
        }
    }

    /// All recorded rows.
    pub fn rows(&self) -> &[ExpRow] {
        &self.rows
    }

    /// All recorded per-query profiles.
    pub fn profiles(&self) -> &[ProfileRow] {
        &self.profiles
    }

    /// Extends with rows from another reporter.
    pub fn merge(&mut self, other: Reporter) {
        self.rows.extend(other.rows);
        self.profiles.extend(other.profiles);
    }

    /// Renders one experiment as a markdown table: series as rows, x values
    /// as columns (insertion-ordered).
    pub fn to_markdown(&self, experiment: &str) -> String {
        let rows: Vec<&ExpRow> = self
            .rows
            .iter()
            .filter(|r| r.experiment == experiment)
            .collect();
        if rows.is_empty() {
            return format!("(no data for {experiment})\n");
        }
        let unit = &rows[0].unit;
        let mut xs: Vec<String> = Vec::new();
        for r in &rows {
            if !xs.contains(&r.x) {
                xs.push(r.x.clone());
            }
        }
        let mut series: Vec<String> = Vec::new();
        let mut table: BTreeMap<(String, String), f64> = BTreeMap::new();
        for r in &rows {
            if !series.contains(&r.series) {
                series.push(r.series.clone());
            }
            table.insert((r.series.clone(), r.x.clone()), r.value);
        }
        let mut out = format!("### {experiment} ({unit})\n\n| series |");
        for x in &xs {
            out.push_str(&format!(" {x} |"));
        }
        out.push_str("\n|---|");
        for _ in &xs {
            out.push_str("---|");
        }
        out.push('\n');
        for s in &series {
            out.push_str(&format!("| {s} |"));
            for x in &xs {
                match table.get(&(s.clone(), x.clone())) {
                    Some(v) => out.push_str(&format!(" {v:.3} |")),
                    None => out.push_str(" - |"),
                }
            }
            out.push('\n');
        }
        out.push('\n');
        out
    }

    /// Renders every experiment, in first-seen order.
    pub fn to_markdown_all(&self) -> String {
        let mut seen = Vec::new();
        for r in &self.rows {
            if !seen.contains(&r.experiment) {
                seen.push(r.experiment.clone());
            }
        }
        seen.iter().map(|e| self.to_markdown(e)).collect()
    }

    /// Writes rows as JSON lines.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        for r in &self.rows {
            writeln!(w, "{}", serde_json::to_string(r).expect("serializable"))?;
        }
        Ok(())
    }

    /// Writes the recorded per-query profiles as one JSON array (the
    /// `--profiles-dir` export). The field set is stable; timing
    /// values of course vary run to run.
    pub fn write_profiles_json<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(&self.profiles)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        w.write_all(json.as_bytes())
    }

    /// Reads rows previously written by [`Reporter::write_jsonl`].
    pub fn read_jsonl<R: std::io::BufRead>(r: R) -> std::io::Result<Reporter> {
        let mut rep = Reporter::new();
        for line in r.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let row: ExpRow = serde_json::from_str(&line)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            rep.rows.push(row);
        }
        Ok(rep)
    }

    /// Compares this run (baseline) against `other` (candidate): for every
    /// shared `(experiment, series, x)` key, the candidate/baseline value
    /// ratio. Rows are flagged when the ratio leaves `[1/tolerance,
    /// tolerance]` — the regression-tracking view for time-valued
    /// experiments.
    pub fn compare(&self, other: &Reporter, tolerance: f64) -> Vec<Comparison> {
        let mut index: BTreeMap<(String, String, String), f64> = BTreeMap::new();
        for r in &self.rows {
            index.insert(
                (r.experiment.clone(), r.series.clone(), r.x.clone()),
                r.value,
            );
        }
        let tol = tolerance.max(1.0);
        let mut out = Vec::new();
        for r in &other.rows {
            let key = (r.experiment.clone(), r.series.clone(), r.x.clone());
            if let Some(&base) = index.get(&key) {
                let ratio = if base.abs() < 1e-12 {
                    if r.value.abs() < 1e-12 {
                        1.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    r.value / base
                };
                out.push(Comparison {
                    experiment: key.0,
                    series: key.1,
                    x: key.2,
                    baseline: base,
                    candidate: r.value,
                    ratio,
                    flagged: !(1.0 / tol..=tol).contains(&ratio),
                });
            }
        }
        out
    }
}

/// One compared data point (see [`Reporter::compare`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Comparison {
    /// Figure id.
    pub experiment: String,
    /// Series name.
    pub series: String,
    /// X value.
    pub x: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// `candidate / baseline`.
    pub ratio: f64,
    /// Outside the tolerance band?
    pub flagged: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_layout() {
        let mut rep = Reporter::new();
        rep.record("fig10a", "AnsW", "DBpedia", 12.5, "ms");
        rep.record("fig10a", "AnsW", "IMDB", 8.0, "ms");
        rep.record("fig10a", "AnsHeu", "DBpedia", 3.0, "ms");
        let md = rep.to_markdown("fig10a");
        assert!(md.contains("| AnsW | 12.500 | 8.000 |"));
        assert!(md.contains("| AnsHeu | 3.000 | - |"));
        assert!(md.starts_with("### fig10a (ms)"));
    }

    #[test]
    fn jsonl_roundtrip() {
        let mut rep = Reporter::new();
        rep.record("figX", "S", 1, 0.5, "delta");
        let mut buf = Vec::new();
        rep.write_jsonl(&mut buf).unwrap();
        let parsed: ExpRow = serde_json::from_slice(buf.trim_ascii_end()).unwrap();
        assert_eq!(parsed.series, "S");
        assert_eq!(parsed.value, 0.5);
    }

    #[test]
    fn jsonl_read_back() {
        let mut rep = Reporter::new();
        rep.record("e", "s1", "x", 1.0, "ms");
        rep.record("e", "s2", "x", 2.0, "ms");
        let mut buf = Vec::new();
        rep.write_jsonl(&mut buf).unwrap();
        let back = Reporter::read_jsonl(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back.rows().len(), 2);
        assert_eq!(back.rows()[1].value, 2.0);
    }

    #[test]
    fn compare_flags_regressions() {
        let mut base = Reporter::new();
        base.record("e", "AnsW", "D", 10.0, "ms");
        base.record("e", "AnsW", "I", 5.0, "ms");
        base.record("e", "only-base", "D", 1.0, "ms");
        let mut cand = Reporter::new();
        cand.record("e", "AnsW", "D", 25.0, "ms"); // 2.5x: regression
        cand.record("e", "AnsW", "I", 5.5, "ms"); // 1.1x: fine
        cand.record("e", "only-cand", "D", 9.0, "ms"); // unmatched
        let cmp = base.compare(&cand, 2.0);
        assert_eq!(cmp.len(), 2);
        let d = cmp.iter().find(|c| c.x == "D").unwrap();
        assert!(d.flagged);
        assert!((d.ratio - 2.5).abs() < 1e-9);
        let i = cmp.iter().find(|c| c.x == "I").unwrap();
        assert!(!i.flagged);
    }

    #[test]
    fn compare_zero_baseline() {
        let mut base = Reporter::new();
        base.record("e", "s", "x", 0.0, "ms");
        let mut cand = Reporter::new();
        cand.record("e", "s", "x", 0.0, "ms");
        let cmp = base.compare(&cand, 1.5);
        assert!(!cmp[0].flagged);
        assert_eq!(cmp[0].ratio, 1.0);
    }

    #[test]
    fn merge_and_all() {
        let mut a = Reporter::new();
        a.record("e1", "s", "x", 1.0, "ms");
        let mut b = Reporter::new();
        b.record("e2", "s", "x", 2.0, "ms");
        a.merge(b);
        let all = a.to_markdown_all();
        assert!(all.contains("### e1"));
        assert!(all.contains("### e2"));
    }
}
