//! `AnsWE` (§6.1, Lemma 6.2): PTIME answering of removal-only Why-Empty
//! questions.
//!
//! When `Q` has no relevant matches, each literal and each edge of `Q` is an
//! *atomic condition* potentially responsible for excluding a relevant
//! candidate. The algorithm evaluates one fragment per condition against
//! every relevant candidate, associates each candidate with the repair set
//! (`RmL`/`RmE`) it needs, and returns the cheapest repair within budget.
//! Complexity: `O(|Q| · |rep(E, V)| · |V|)` with a distance index.

use crate::answ::{AnswerReport, RewriteResult};
use crate::session::{Session, WhyQuestion};
use std::collections::HashSet;
use wqe_graph::NodeId;
use wqe_query::{AtomicOp, PatternQuery, QNodeId};

/// The repair plan computed for one relevant candidate.
#[derive(Debug, Clone)]
pub struct CandidateRepair {
    /// The relevant candidate that becomes a match.
    pub candidate: NodeId,
    /// The removal operators required.
    pub ops: Vec<AtomicOp>,
    /// Total cost.
    pub cost: f64,
}

/// Diagnoses the removal operators needed for `v` to match the (weakly
/// star-shaped) query. Returns `None` when `v` cannot be repaired with
/// `RmL`/`RmE` alone (e.g. its label differs from the focus label).
fn diagnose(session: &Session, q: &PatternQuery, v: NodeId) -> Option<CandidateRepair> {
    let g = session.graph();
    let focus = q.focus();
    let focus_node = q.node(focus)?;
    if let Some(l) = focus_node.label {
        if g.label(v) != l {
            return None; // label mismatch is not removable
        }
    }
    let mut ops: Vec<AtomicOp> = Vec::new();

    // Fragment class 1: one fragment per focus literal.
    for lit in &focus_node.literals {
        if !lit.eval(g, v) {
            ops.push(AtomicOp::RmL {
                node: focus,
                lit: lit.clone(),
            });
        }
    }

    // Fragment classes 2 and 3: per non-focus node, an edge-reachability
    // fragment (with the bound-weighted query distance) and per-literal
    // fragments. Removing the node's connecting edge subsumes its literal
    // repairs, so edges are checked first.
    let mut removed_nodes: HashSet<QNodeId> = HashSet::new();
    for u in q.node_ids() {
        if u == focus || removed_nodes.contains(&u) {
            continue;
        }
        let node = q.node(u)?;
        // Direction and total bound from the focus.
        let (outgoing, bound) = match q.directed_bound_distance(focus, u) {
            Some(d) => (true, d),
            None => match q.directed_bound_distance(u, focus) {
                Some(d) => (false, d),
                None => continue, // not on a directed path; leave untouched
            },
        };
        let reach = if outgoing {
            g.bounded_bfs(v, bound)
        } else {
            g.bounded_bfs_rev(v, bound)
        };
        let labeled: Vec<NodeId> = reach
            .iter()
            .filter(|&&(w, d)| d >= 1 && node.label.is_none_or(|l| g.label(w) == l))
            .map(|&(w, _)| w)
            .collect();

        // The edge to remove if this branch must go: the edge on the path
        // adjacent to `u`.
        let adj_edge = q.edges().iter().find(|e| e.from == u || e.to == u).copied();

        if labeled.is_empty() {
            // Edge-reachability fragment fails: remove the branch.
            if let Some(e) = adj_edge {
                ops.push(AtomicOp::RmE {
                    from: e.from,
                    to: e.to,
                    bound: e.bound,
                });
                removed_nodes.insert(u);
            }
            continue;
        }
        if node.literals.is_empty() {
            continue;
        }
        // Literal fragments: pick the reachable witness minimizing the
        // number of literals to drop; compare with dropping the edge.
        let best_lit_fail: Vec<&wqe_query::Literal> = labeled
            .iter()
            .map(|&w| {
                node.literals
                    .iter()
                    .filter(|l| !l.eval(g, w))
                    .collect::<Vec<_>>()
            })
            .min_by_key(Vec::len)
            .unwrap_or_default();
        if best_lit_fail.is_empty() {
            continue; // some witness satisfies everything
        }
        let lit_cost = best_lit_fail.len() as f64; // RmL costs 1 each
        let edge_cost = adj_edge
            .map(|e| {
                AtomicOp::RmE {
                    from: e.from,
                    to: e.to,
                    bound: e.bound,
                }
                .cost(g)
            })
            .unwrap_or(f64::INFINITY);
        if lit_cost <= edge_cost {
            for l in best_lit_fail {
                ops.push(AtomicOp::RmL {
                    node: u,
                    lit: l.clone(),
                });
            }
        } else if let Some(e) = adj_edge {
            ops.push(AtomicOp::RmE {
                from: e.from,
                to: e.to,
                bound: e.bound,
            });
            removed_nodes.insert(u);
        }
    }

    // Normalize the plan by replaying it: an earlier RmE may prune the
    // node a later RmL/RmE targets, making that op redundant. Keeping (and
    // costing) only the ops that actually apply prevents over-counting the
    // repair cost, which would otherwise reject affordable repairs at the
    // budget filter.
    let mut replay = q.clone();
    let mut applied = Vec::with_capacity(ops.len());
    let mut cost = 0.0;
    for op in ops {
        if op.apply(&mut replay).is_ok() {
            cost += op.cost(g);
            applied.push(op);
        }
    }
    Some(CandidateRepair {
        candidate: v,
        ops: applied,
        cost,
    })
}

/// `AnsWE`, driven by [`Session::run`]: finds the cheapest removal-only
/// rewrite that introduces at least one relevant candidate as a match.
pub(crate) fn search(session: &Session, question: &WhyQuestion) -> AnswerReport {
    let mut report = AnswerReport::default();
    let budget = session.config.budget;

    // Repair plans for every relevant candidate, cheapest first.
    let mut repairs: Vec<CandidateRepair> = session
        .r_uo
        .iter()
        .filter_map(|&v| diagnose(session, &question.query, v))
        .filter(|r| r.cost <= budget + 1e-9)
        .collect();
    repairs.sort_by(|a, b| a.cost.total_cmp(&b.cost));

    // Verify plans in cost order; the first verified one wins.
    for repair in &repairs {
        let mut q = question.query.clone();
        let mut ok = true;
        for op in &repair.ops {
            // Applying one RmE may prune literals a later op references;
            // tolerate already-satisfied repairs.
            if op.apply(&mut q).is_err() {
                match op {
                    AtomicOp::RmL { .. } | AtomicOp::RmE { .. } => continue,
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
        }
        if !ok {
            continue;
        }
        let eval = session.evaluate(&q);
        report.count(&eval);
        if eval.outcome.is_match(repair.candidate) {
            report.best = Some(RewriteResult {
                cost: repair.cost,
                query: q,
                ops: repair.ops.clone(),
                closeness: eval.closeness,
                matches: eval.outcome.matches.clone(),
                satisfies: eval.satisfies,
            });
            break;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Algorithm;
    use crate::paper::{paper_exemplar, paper_query, FOCUS};
    use crate::session::{Session, WqeConfig};
    use wqe_graph::product::product_graph;
    use wqe_graph::CmpOp;
    use wqe_query::{Literal, OpClass};

    /// A query with empty relevant answers: price >= 880 excludes all of
    /// rep(E, V) = {P3, P4, P5}.
    fn empty_question(g: &wqe_graph::Graph) -> WhyQuestion {
        let mut q = paper_query(g);
        let s = g.schema();
        let price = s.attr_id("Price").unwrap();
        q.replace_literal(
            q.focus(),
            &Literal::new(price, CmpOp::Ge, 840),
            Literal::new(price, CmpOp::Ge, 880),
        )
        .unwrap();
        WhyQuestion {
            query: q,
            exemplar: paper_exemplar(g),
        }
    }

    #[test]
    fn finds_removal_only_repair() {
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        let wq = empty_question(g);
        let session = Session::new(
            ctx.clone(),
            &wq,
            WqeConfig {
                budget: 3.0,
                ..Default::default()
            },
        );
        // Sanity: no relevant match initially.
        let base = session.evaluate(&wq.query);
        assert!(base.relevance.rm.is_empty());
        let report = session.run(Algorithm::WhyEmpty, &wq).unwrap();
        let best = report.best.expect("repair found");
        assert!(best
            .ops
            .iter()
            .all(|o| matches!(o, AtomicOp::RmL { .. } | AtomicOp::RmE { .. })));
        assert!(best.ops.iter().all(|o| o.class() == OpClass::Relax));
        assert!(best.cost <= 3.0 + 1e-9);
        // At least one relevant candidate is now matched.
        assert!(best.matches.iter().any(|v| session.rep.contains(*v)));
    }

    #[test]
    fn cheapest_candidate_selected() {
        // P5 only fails the price literal (one RmL, cost 1); P3 would need
        // price + sensor repairs (cost > 2). AnsWE must pick a cost-1 plan.
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        let wq = empty_question(g);
        let session = Session::new(
            ctx.clone(),
            &wq,
            WqeConfig {
                budget: 3.0,
                ..Default::default()
            },
        );
        let report = session.run(Algorithm::WhyEmpty, &wq).unwrap();
        let best = report.best.unwrap();
        assert_eq!(best.ops.len(), 1);
        assert!(matches!(&best.ops[0], AtomicOp::RmL { node, .. } if *node == FOCUS));
        assert!(best.matches.contains(&pg.phones[4]));
    }

    #[test]
    fn budget_too_small_yields_none() {
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        let wq = empty_question(g);
        let session = Session::new(
            ctx.clone(),
            &wq,
            WqeConfig {
                budget: 0.5,
                ..Default::default()
            },
        );
        let report = session.run(Algorithm::WhyEmpty, &wq).unwrap();
        assert!(report.best.is_none());
    }

    #[test]
    fn diagnose_rejects_wrong_label() {
        let pg = product_graph();
        let g = &pg.graph;
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        let wq = empty_question(g);
        let session = Session::new(ctx.clone(), &wq, WqeConfig::default());
        // A carrier node can never repair into a Cellphone match.
        let carrier = pg.carriers[0];
        assert!(diagnose(&session, &wq.query, carrier).is_none());
    }
}
