//! Ranking and retrieval metrics used by the evaluation (Exp-2, Exp-5):
//! relative closeness lives in [`crate::closeness`]; here are nDCG,
//! precision/recall/F1 and average precision over ranked rewrite lists.

use std::collections::HashSet;
use wqe_graph::NodeId;

/// Discounted cumulative gain of `gains` in presented order.
pub fn dcg(gains: &[f64]) -> f64 {
    gains
        .iter()
        .enumerate()
        .map(|(i, g)| g / ((i + 2) as f64).log2())
        .sum()
}

/// Normalized DCG at `k`: DCG of the first `k` gains over the ideal
/// (descending) ordering's DCG. `None` when the ideal DCG is zero (no
/// relevant item anywhere).
pub fn ndcg_at(gains: &[f64], k: usize) -> Option<f64> {
    let top: Vec<f64> = gains.iter().copied().take(k).collect();
    let mut ideal: Vec<f64> = gains.to_vec();
    ideal.sort_by(|a, b| b.partial_cmp(a).expect("finite gains"));
    ideal.truncate(k);
    let idcg = dcg(&ideal);
    (idcg > 0.0).then(|| dcg(&top) / idcg)
}

/// Precision / recall / F1 of an answer set against a relevant set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRecall {
    /// `|set(answers) ∩ relevant| / |set(answers)|` (1.0 for empty
    /// answers).
    pub precision: f64,
    /// `|set(answers) ∩ relevant| / |relevant|` (1.0 for empty relevant
    /// set).
    pub recall: f64,
}

impl PrecisionRecall {
    /// Computes both measures. Both inputs are treated as *sets*: a
    /// node-id repeated in `answers` counts once, so duplicated answers
    /// cannot inflate either measure.
    pub fn of(answers: &[NodeId], relevant: &[NodeId]) -> Self {
        let rel: HashSet<NodeId> = relevant.iter().copied().collect();
        let uniq: HashSet<NodeId> = answers.iter().copied().collect();
        let hits = uniq.iter().filter(|v| rel.contains(v)).count();
        PrecisionRecall {
            precision: if uniq.is_empty() {
                1.0
            } else {
                hits as f64 / uniq.len() as f64
            },
            recall: if rel.is_empty() {
                1.0
            } else {
                hits as f64 / rel.len() as f64
            },
        }
    }

    /// The harmonic mean (0 when both components are 0).
    pub fn f1(&self) -> f64 {
        let s = self.precision + self.recall;
        if s == 0.0 {
            0.0
        } else {
            2.0 * self.precision * self.recall / s
        }
    }
}

/// Average precision of a ranked list of answer-relevance flags.
pub fn average_precision(relevant_flags: &[bool]) -> f64 {
    let mut hits = 0usize;
    let mut total = 0.0;
    for (i, &rel) in relevant_flags.iter().enumerate() {
        if rel {
            hits += 1;
            total += hits as f64 / (i + 1) as f64;
        }
    }
    if hits == 0 {
        0.0
    } else {
        total / hits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcg_discounts_by_position() {
        let front = dcg(&[1.0, 0.0]);
        let back = dcg(&[0.0, 1.0]);
        assert!(front > back);
        assert!((front - 1.0).abs() < 1e-9); // 1/log2(2)
    }

    #[test]
    fn ndcg_perfect_ordering_is_one() {
        let gains = [0.9, 0.5, 0.1];
        assert!((ndcg_at(&gains, 3).unwrap() - 1.0).abs() < 1e-9);
        // Reversed ordering scores below 1.
        let rev = [0.1, 0.5, 0.9];
        assert!(ndcg_at(&rev, 3).unwrap() < 1.0);
        // All-zero gains: undefined.
        assert!(ndcg_at(&[0.0, 0.0], 2).is_none());
    }

    #[test]
    fn ndcg_k_truncates() {
        let gains = [0.0, 0.0, 1.0];
        // At k=2 the relevant item is out of view; ideal has it in view.
        assert!((ndcg_at(&gains, 2).unwrap() - 0.0).abs() < 1e-9);
        assert!(ndcg_at(&gains, 3).unwrap() > 0.0);
    }

    #[test]
    fn precision_recall_f1() {
        use wqe_graph::NodeId;
        let answers = vec![NodeId(1), NodeId(2), NodeId(3)];
        let relevant = vec![NodeId(2), NodeId(3), NodeId(4), NodeId(5)];
        let pr = PrecisionRecall::of(&answers, &relevant);
        assert!((pr.precision - 2.0 / 3.0).abs() < 1e-9);
        assert!((pr.recall - 0.5).abs() < 1e-9);
        let f1 = pr.f1();
        assert!((f1 - (2.0 * (2.0 / 3.0) * 0.5 / (2.0 / 3.0 + 0.5))).abs() < 1e-9);
        // Edge cases.
        assert_eq!(PrecisionRecall::of(&[], &relevant).precision, 1.0);
        assert_eq!(PrecisionRecall::of(&answers, &[]).recall, 1.0);
    }

    #[test]
    fn precision_recall_dedupes_duplicate_answers() {
        use wqe_graph::NodeId;
        let relevant = vec![NodeId(1), NodeId(2)];
        // One relevant answer repeated three times, one irrelevant answer:
        // the relevant hit must count once, not once per occurrence.
        let answers = vec![NodeId(1), NodeId(1), NodeId(1), NodeId(9)];
        let pr = PrecisionRecall::of(&answers, &relevant);
        assert!((pr.precision - 0.5).abs() < 1e-9, "got {}", pr.precision);
        assert!((pr.recall - 0.5).abs() < 1e-9, "got {}", pr.recall);
        // Duplicates alone must not lift recall above the exact-set value.
        let dup_only = vec![NodeId(2), NodeId(2)];
        let pr = PrecisionRecall::of(&dup_only, &relevant);
        assert!((pr.precision - 1.0).abs() < 1e-9);
        assert!((pr.recall - 0.5).abs() < 1e-9, "got {}", pr.recall);
    }

    #[test]
    fn average_precision_orderings() {
        assert!((average_precision(&[true, false]) - 1.0).abs() < 1e-9);
        assert!((average_precision(&[false, true]) - 0.5).abs() < 1e-9);
        assert_eq!(average_precision(&[false, false]), 0.0);
        let mixed = average_precision(&[true, false, true]);
        assert!((mixed - (1.0 + 2.0 / 3.0) / 2.0).abs() < 1e-9);
    }
}
