//! `FMAnsW`: the frequent-pattern-mining comparison baseline of Exp-1.
//!
//! Following the method the paper adapts from Mottin et al. (graph query
//! reformulation), it suggests rewrites built from *frequent patterns around
//! the relevant candidates* — attribute-value facts and neighbor labels that
//! a majority of `R(u_o)` share — without picky-operator analysis or
//! view-based pruning. Each candidate operator is applied greedily in
//! frequency order and kept when full re-evaluation improves closeness.

use crate::answ::{AnswerReport, RewriteResult};
use crate::opsgen::{op_key, rank};
use crate::session::{LabelKey, Session, WhyQuestion};
use std::collections::HashMap;
use wqe_graph::{AttrValue, CmpOp, LabelId, NodeId};
use wqe_query::{AtomicOp, Literal};

/// Fraction of relevant candidates a fact must cover to be "frequent".
const SUPPORT: f64 = 0.5;

/// Mines frequent facts and proposes operators in support order.
fn mine_ops(session: &Session, question: &WhyQuestion) -> Vec<(f64, AtomicOp)> {
    let g = session.graph();
    let q = &question.query;
    let focus = q.focus();
    let rel: &[NodeId] = &session.r_uo;
    if rel.is_empty() {
        return Vec::new();
    }
    let n = rel.len() as f64;
    let mut ops: Vec<(f64, AtomicOp)> = Vec::new();

    // Frequency of each (attr, value) fact among relevant candidates.
    let mut fact_count: HashMap<(u32, String), (wqe_graph::AttrId, AttrValue, usize)> =
        HashMap::new();
    for &v in rel {
        for (a, val) in &g.node(v).attrs {
            let e = fact_count
                .entry((a.0, val.to_string()))
                .or_insert((*a, val.clone(), 0));
            e.2 += 1;
        }
    }

    // Existing focus literals violated by a majority of relevant
    // candidates: propose removal (and numeric relaxation to the hull).
    let Some(focus_node) = q.node(focus) else {
        return Vec::new();
    };
    for lit in &focus_node.literals {
        let violators = rel.iter().filter(|&&v| !lit.eval(g, v)).count();
        let support = violators as f64 / n;
        if support >= SUPPORT {
            ops.push((
                support,
                AtomicOp::RmL {
                    node: focus,
                    lit: lit.clone(),
                },
            ));
        }
        if violators > 0 {
            // Relax numeric bounds to cover every relevant candidate.
            let vals: Vec<f64> = rel
                .iter()
                .filter_map(|&v| g.attr(v, lit.attr).and_then(AttrValue::as_f64))
                .collect();
            if !vals.is_empty() && lit.value.as_f64().is_some() {
                let mk = |x: f64| {
                    if x.fract() == 0.0 && matches!(lit.value, AttrValue::Int(_)) {
                        AttrValue::Int(x as i64)
                    } else {
                        AttrValue::Float(x)
                    }
                };
                let new = if lit.op.is_upper_open() {
                    let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
                    Some(Literal::new(lit.attr, CmpOp::Ge, mk(lo)))
                } else if lit.op.is_lower_open() {
                    let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    Some(Literal::new(lit.attr, CmpOp::Le, mk(hi)))
                } else {
                    None
                };
                if let Some(new) = new {
                    ops.push((
                        violators as f64 / n,
                        AtomicOp::RxL {
                            node: focus,
                            old: lit.clone(),
                            new,
                        },
                    ));
                }
            }
        }
    }

    // Query edges unreachable for a majority of relevant candidates:
    // propose removal.
    for e in q.edges() {
        let (leaf, outgoing) = if e.from == focus {
            (e.to, true)
        } else if e.to == focus {
            (e.from, false)
        } else {
            continue;
        };
        let leaf_label = q.node(leaf).and_then(|l| l.label);
        let missing = rel
            .iter()
            .filter(|&&v| {
                let reach = if outgoing {
                    g.bounded_bfs(v, e.bound)
                } else {
                    g.bounded_bfs_rev(v, e.bound)
                };
                !reach
                    .iter()
                    .any(|&(w, d)| d >= 1 && leaf_label.is_none_or(|l| g.label(w) == l))
            })
            .count();
        let support = missing as f64 / n;
        if support >= SUPPORT {
            ops.push((
                support,
                AtomicOp::RmE {
                    from: e.from,
                    to: e.to,
                    bound: e.bound,
                },
            ));
        }
    }

    // Frequent facts as AddL refinements (the "frequent subgraph pattern"
    // nucleus: shared attribute values).
    for (attr, val, count) in fact_count.into_values() {
        let support = count as f64 / n;
        if support >= 1.0 - 1e-9 {
            ops.push((
                support * 0.9, // behind structural repairs
                AtomicOp::AddL {
                    node: focus,
                    lit: Literal::new(attr, CmpOp::Eq, val),
                },
            ));
        }
    }

    // Frequent neighbor labels as new pattern edges.
    let mut label_count: HashMap<LabelKey, usize> = HashMap::new();
    for &v in rel {
        for &key in session.label_keys(v).iter() {
            *label_count.entry(key).or_insert(0) += 1;
        }
    }
    for ((label, d, outgoing), count) in label_count {
        let support = count as f64 / n;
        if support >= 1.0 - 1e-9 && d <= q.max_bound() {
            ops.push((
                support * 0.8,
                AtomicOp::AddNodeEdge {
                    anchor: focus,
                    label: Some(LabelId(label)),
                    bound: d,
                    outgoing,
                },
            ));
        }
    }

    // Fact mining iterates hash maps; `rank` breaks equal supports on the
    // op key, so the greedy application order is deterministic.
    let mut keyed: Vec<(String, (f64, AtomicOp))> =
        ops.into_iter().map(|o| (op_key(&o.1), o)).collect();
    rank(&mut keyed, |&(support, _)| support);
    keyed.into_iter().map(|(_, o)| o).collect()
}

/// The FM baseline, driven by [`Session::run`]: greedy application of
/// frequency-ranked operators.
pub(crate) fn search(session: &Session, question: &WhyQuestion) -> AnswerReport {
    let mut report = AnswerReport::default();
    let budget = session.config.budget;

    let base = session.evaluate(&question.query);
    report.count(&base);
    let mut best = RewriteResult {
        query: question.query.clone(),
        ops: Vec::new(),
        cost: 0.0,
        closeness: base.closeness,
        matches: base.outcome.matches.clone(),
        satisfies: base.satisfies,
    };

    let mut current = best.clone();
    for (_, op) in mine_ops(session, question) {
        let c = op.cost(session.graph());
        if current.cost + c > budget + 1e-9 {
            continue;
        }
        let mut q = current.query.clone();
        if op.apply(&mut q).is_err() {
            continue;
        }
        let eval = session.evaluate(&q);
        report.count(&eval);
        if eval.closeness > current.closeness + 1e-12 {
            current = RewriteResult {
                query: q,
                ops: {
                    let mut o = current.ops.clone();
                    o.push(op);
                    o
                },
                cost: current.cost + c,
                closeness: eval.closeness,
                matches: eval.outcome.matches,
                satisfies: eval.satisfies,
            };
            let better = (current.satisfies && !best.satisfies)
                || (current.satisfies == best.satisfies && current.closeness > best.closeness);
            if better {
                best = current.clone();
            }
        }
    }

    report.best = Some(best);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Algorithm;
    use crate::paper::paper_question;
    use crate::session::{Session, WqeConfig};
    use wqe_graph::product::product_graph;

    #[test]
    fn baseline_improves_over_original() {
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        let wq = paper_question(g);
        let session = Session::new(
            ctx.clone(),
            &wq,
            WqeConfig {
                budget: 4.0,
                ..Default::default()
            },
        );
        let base = session.evaluate(&wq.query);
        let report = session.run(Algorithm::FMAnsW, &wq).unwrap();
        let best = report.best.unwrap();
        assert!(best.closeness >= base.closeness);
        assert!(best.cost <= 4.0 + 1e-9);
    }

    #[test]
    fn baseline_weaker_or_equal_to_exact() {
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        let wq = paper_question(g);
        let session = Session::new(
            ctx.clone(),
            &wq,
            WqeConfig {
                budget: 4.0,
                ..Default::default()
            },
        );
        let fm = session.run(Algorithm::FMAnsW, &wq).unwrap();
        let exact = session.run(Algorithm::AnsW, &wq).unwrap();
        let cl = |r: &AnswerReport| r.best.as_ref().map(|b| b.closeness).unwrap_or(-1.0);
        assert!(cl(&fm) <= cl(&exact) + 1e-9);
    }

    #[test]
    fn empty_relevant_set_is_handled() {
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        let mut wq = paper_question(g);
        wq.exemplar = crate::exemplar::Exemplar::new();
        let session = Session::new(ctx.clone(), &wq, WqeConfig::default());
        let report = session.run(Algorithm::FMAnsW, &wq).unwrap();
        assert!(report.best.is_some());
    }
}
