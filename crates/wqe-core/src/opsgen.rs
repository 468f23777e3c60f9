//! `NextOp`: picky-operator generation (§5.3 and Appendix B).
//!
//! The dichotomy strategy consults the current evaluation (star tables,
//! witnesses, relevance sets) to produce only operators likely to improve
//! closeness:
//!
//! * **Relaxations** analyse why each relevant candidate (RC) fails to
//!   match — a failing focus literal, a failing spoke, or a near-miss
//!   neighbor literal — and emit `RxL`/`RmL`/`RxE`/`RmE` repairs, scored by
//!   `p(o) = Σ_{v ∈ RC̄(o)} cl(v, E) / |V_uo|` (an over-estimate of the
//!   closeness gain, Lemma 5.2).
//! * **Refinements** harvest discriminating facts from relevant-match (RM)
//!   witnesses — attribute values, tighter constants, tighter bounds, new
//!   edges — that irrelevant matches (IM) fail, scored by
//!   `p'(o) = (λ|IM̄(o)| − Σ_{v ∈ RM̲(o)} cl(v, E)) / |V_uo|`.
//!
//! Every score is an *ordering heuristic*: the search re-evaluates the
//! rewrite exactly after applying an operator. Operators are ranked by
//! `rank`: pickiness first, ties on the operator's `Debug` text, which
//! is built once per operator and also keys `next_ops`'s dedupe.
//!
//! `AddNodeEdge` reads each focus match's two-hop label neighbourhood
//! from the session's memo (`Session::label_keys`, sorted keys): the
//! candidate keys are the intersection of the RM members' lists (every IM
//! member's keys when RM is empty), and each key's IM̄ is found by binary
//! search.

use crate::chase::Phase;
use crate::obs::{self, Counter};
use crate::session::{EvalResult, LabelKey, Session};
use std::collections::{HashMap, HashSet};
use wqe_graph::{AttrId, AttrValue, CmpOp, NodeId};
use wqe_query::{AtomicOp, Literal, PatternQuery, QNodeId};

/// An operator with its pickiness score and the focus nodes it is expected
/// to affect (`RC̄(o)` for relaxations, `IM̄(o)` for refinements) — the
/// latter feeds the differential table (§5.4).
#[derive(Debug, Clone)]
pub struct ScoredOp {
    /// The operator.
    pub op: AtomicOp,
    /// `p(o)` / `p'(o)`.
    pub pickiness: f64,
    /// Focus candidates expected to be introduced/removed.
    pub affected: Vec<NodeId>,
}

/// Affected-node accumulator: `(node, cl(node, E))` pairs.
type Gainers = Vec<(NodeId, f64)>;
/// Aggregated leaf-literal failures: `(leaf, literal, near-miss values,
/// failing RC nodes)`.
type LeafLitAgg = (QNodeId, Literal, Vec<AttrValue>, Gainers);
/// Attribute-value facts shared by RM witnesses.
type FactMap = HashMap<(QNodeId, u32, String), (AttrId, AttrValue, HashSet<NodeId>)>;

/// An operator's rank and dedupe key: its `Debug` text.
pub(crate) fn op_key(op: &AtomicOp) -> String {
    format!("{op:?}")
}

/// Sorts `items`, each keyed by [`op_key`], by pickiness, highest first,
/// ties on the key. The sort is stable. Generation iterates hash maps, and
/// an order-dependent tie would make concurrent and sequential runs adopt
/// different (equally good) rewrites.
pub(crate) fn rank<T>(items: &mut [(String, T)], pickiness: impl Fn(&T) -> f64) {
    items.sort_by(|(ka, a), (kb, b)| {
        pickiness(b)
            .total_cmp(&pickiness(a))
            .then_with(|| ka.cmp(kb))
    });
}

/// `NextOp` (Fig. 7): produces the scored operators applicable at a state,
/// honoring the normal form and the two generation conditions, ranked by
/// `rank`. An operator generated twice keeps its first generation.
///
/// * `RefineCond`: IM non-empty, and (when pruning) `cl⁺(Q) > best_cl`.
/// * `RelaxCond`: still in the relax phase, RC non-empty, and (when
///   pruning) `cl⁺(Q) < cl*`.
///
/// A generation that only its cl⁺ condition withholds counts one
/// [`Counter::GenerationsPruned`].
pub fn next_ops(
    session: &Session,
    q: &PatternQuery,
    eval: &EvalResult,
    phase: Phase,
    best_closeness: f64,
) -> Vec<ScoredOp> {
    let pruning = session.config.pruning;
    let refine = !eval.relevance.im.is_empty();
    let refine_bound = !pruning || eval.upper_bound > best_closeness + 1e-12;
    let relax = phase == Phase::Relax && !eval.relevance.rc.is_empty();
    let relax_bound = !pruning || eval.upper_bound < session.cl_star - 1e-12;
    let withheld = u64::from(refine && !refine_bound) + u64::from(relax && !relax_bound);
    if withheld > 0 {
        obs::with_current(|p| p.add(Counter::GenerationsPruned, withheld));
    }

    let mut ops: Vec<ScoredOp> = Vec::new();
    if refine && refine_bound {
        ops.extend(generate_refinements(session, q, eval));
    }
    if relax && relax_bound {
        ops.extend(generate_relaxations(session, q, eval));
    }
    let mut keyed: Vec<(String, ScoredOp)> = ops.into_iter().map(|s| (op_key(&s.op), s)).collect();
    // Stable, so equal keys stay in generation order and dedup keeps the
    // first.
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.dedup_by(|a, b| a.0 == b.0);
    rank(&mut keyed, |s| s.pickiness);
    keyed.into_iter().map(|(_, s)| s).collect()
}

// ---------------------------------------------------------------------------
// Relaxation generation (GenRx)
// ---------------------------------------------------------------------------

/// Why one RC node currently fails to match.
#[derive(Debug, Default)]
struct FailureAnalysis {
    /// Focus literals the node violates.
    focus_literals: Vec<Literal>,
    /// Focus-incident edges with no reachable leaf candidate.
    edges: Vec<(QNodeId, QNodeId, u32)>,
    /// Leaf literals that near-miss neighbors violate: `(leaf, literal,
    /// observed values)`.
    leaf_literals: Vec<(QNodeId, Literal, Vec<AttrValue>)>,
    /// The node fails for deeper structural reasons (non-focus-incident
    /// edges).
    structural: bool,
}

/// Analyses why RC node `v` is not a match of the focus.
fn analyse_failure(session: &Session, q: &PatternQuery, v: NodeId) -> FailureAnalysis {
    let g = session.graph();
    let focus = q.focus();
    let mut fa = FailureAnalysis::default();
    let Some(focus_node) = q.node(focus) else {
        return fa;
    };
    for l in &focus_node.literals {
        if !l.eval(g, v) {
            fa.focus_literals.push(l.clone());
        }
    }
    // Focus-incident edges.
    let mut any_edge_checked = false;
    for e in q.edges() {
        let (leaf, outgoing) = if e.from == focus {
            (e.to, true)
        } else if e.to == focus {
            (e.from, false)
        } else {
            fa.structural = true;
            continue;
        };
        any_edge_checked = true;
        let reach = if outgoing {
            g.bounded_bfs(v, e.bound)
        } else {
            g.bounded_bfs_rev(v, e.bound)
        };
        let Some(leaf_node) = q.node(leaf) else {
            continue;
        };
        let mut found = false;
        let mut near_miss_values: HashMap<(AttrId, CmpOp, String), (Literal, Vec<AttrValue>)> =
            HashMap::new();
        for &(w, d) in &reach {
            if d == 0 {
                continue;
            }
            if let Some(label) = leaf_node.label {
                if g.label(w) != label {
                    continue;
                }
            }
            let failing: Vec<&Literal> = leaf_node
                .literals
                .iter()
                .filter(|l| !l.eval(g, w))
                .collect();
            if failing.is_empty() {
                found = true;
                break;
            }
            if failing.len() == 1 {
                // `w` would support v if this single literal were relaxed:
                // record its observed value for adom-guided RxL.
                let l = failing[0];
                if let Some(val) = g.attr(w, l.attr) {
                    let key = (l.attr, l.op, l.value.to_string());
                    near_miss_values
                        .entry(key)
                        .or_insert_with(|| ((*l).clone(), Vec::new()))
                        .1
                        .push(val.clone());
                }
            }
        }
        if !found {
            fa.edges.push((e.from, e.to, e.bound));
            for (_, (lit, vals)) in near_miss_values {
                fa.leaf_literals.push((leaf, lit, vals));
            }
        }
    }
    let _ = any_edge_checked;
    fa
}

/// GenRx: relaxation operators from picky edges/literals (§5.3).
pub fn generate_relaxations(
    session: &Session,
    q: &PatternQuery,
    eval: &EvalResult,
) -> Vec<ScoredOp> {
    let g = session.graph();
    let focus = q.focus();
    let v_uo = session.v_uo.len().max(1) as f64;
    let sample = session.config.relevance_sample;

    // Per-RC failure analysis (sampled deterministically: first N by id).
    let rc: Vec<NodeId> = eval.relevance.rc.iter().copied().take(sample).collect();
    struct Agg {
        lit_fail: HashMap<String, (Literal, Gainers)>,
        edge_fail: HashMap<(QNodeId, QNodeId), (u32, Gainers)>,
        leaf_lit: HashMap<String, LeafLitAgg>,
        /// RC nodes whose only diagnosed failure is structural (an edge not
        /// incident to the focus): repaired indirectly by relaxing deep
        /// edges.
        deep_only: Gainers,
    }
    let mut agg = Agg {
        lit_fail: HashMap::new(),
        edge_fail: HashMap::new(),
        leaf_lit: HashMap::new(),
        deep_only: Vec::new(),
    };
    for &v in &rc {
        let cl = session.rep.cl(v);
        let fa = analyse_failure(session, q, v);
        let shallow_repairs =
            !fa.focus_literals.is_empty() || !fa.edges.is_empty() || !fa.leaf_literals.is_empty();
        for l in fa.focus_literals {
            let key = format!("{}:{:?}:{}", l.attr.0, l.op, l.value);
            agg.lit_fail
                .entry(key)
                .or_insert_with(|| (l, Vec::new()))
                .1
                .push((v, cl));
        }
        for (f, t, b) in fa.edges {
            agg.edge_fail
                .entry((f, t))
                .or_insert_with(|| (b, Vec::new()))
                .1
                .push((v, cl));
        }
        for (leaf, l, vals) in fa.leaf_literals {
            let key = format!("{}:{}:{:?}:{}", leaf.0, l.attr.0, l.op, l.value);
            let entry = agg
                .leaf_lit
                .entry(key)
                .or_insert_with(|| (leaf, l, Vec::new(), Vec::new()));
            entry.2.extend(vals);
            entry.3.push((v, cl));
        }
        if !shallow_repairs {
            // Either the node fails a deep edge, or the focus-level
            // analysis found nothing (e.g. injectivity conflicts); in both
            // cases only deep structural relaxation can help.
            agg.deep_only.push((v, cl));
        }
    }

    let mut ops: Vec<ScoredOp> = Vec::new();
    let score = |gainers: &[(NodeId, f64)]| -> (f64, Vec<NodeId>) {
        let p = gainers.iter().map(|&(_, c)| c).sum::<f64>() / v_uo;
        (p, gainers.iter().map(|&(v, _)| v).collect())
    };

    // Focus-literal repairs: RxL via adom discretization, plus RmL.
    for (lit, fails) in agg.lit_fail.values() {
        let (p, affected) = score(fails);
        ops.push(ScoredOp {
            op: AtomicOp::RmL {
                node: focus,
                lit: lit.clone(),
            },
            pickiness: p,
            affected: affected.clone(),
        });
        // adom(A, E_P): the failing RC nodes' values.
        let adom = g.restricted_numeric_adom(lit.attr, fails.iter().map(|&(v, _)| v));
        for new in relaxed_literals(lit, &adom) {
            // RC̄: failing nodes that the relaxed literal admits.
            let gainers: Vec<(NodeId, f64)> = fails
                .iter()
                .copied()
                .filter(|&(v, _)| new.eval(g, v))
                .collect();
            if gainers.is_empty() {
                continue;
            }
            let (p, affected) = score(&gainers);
            ops.push(ScoredOp {
                op: AtomicOp::RxL {
                    node: focus,
                    old: lit.clone(),
                    new,
                },
                pickiness: p,
                affected,
            });
        }
    }

    // Picky-edge repairs: RmE always, RxE when below b_m.
    for (&(f, t), (bound, fails)) in &agg.edge_fail {
        let (p, affected) = score(fails);
        ops.push(ScoredOp {
            op: AtomicOp::RmE {
                from: f,
                to: t,
                bound: *bound,
            },
            pickiness: p,
            affected: affected.clone(),
        });
        if *bound < q.max_bound() {
            ops.push(ScoredOp {
                op: AtomicOp::RxE {
                    from: f,
                    to: t,
                    old_bound: *bound,
                    new_bound: *bound + 1,
                },
                // Slightly discounted: growing the bound may or may not
                // reach a leaf candidate, while RmE surely lifts the edge.
                pickiness: p * 0.9,
                affected,
            });
        }
    }

    // Leaf-literal repairs guided by near-miss neighbor values.
    for (leaf, lit, near_vals, fails) in agg.leaf_lit.values() {
        let (p, affected) = score(fails);
        ops.push(ScoredOp {
            op: AtomicOp::RmL {
                node: *leaf,
                lit: lit.clone(),
            },
            pickiness: p,
            affected: affected.clone(),
        });
        let mut adom: Vec<f64> = near_vals.iter().filter_map(AttrValue::as_f64).collect();
        adom.sort_by(|a, b| a.total_cmp(b));
        adom.dedup();
        for new in relaxed_literals(lit, &adom) {
            ops.push(ScoredOp {
                op: AtomicOp::RxL {
                    node: *leaf,
                    old: lit.clone(),
                    new,
                },
                pickiness: p * 0.95,
                affected: affected.clone(),
            });
        }
    }

    // Deep structural repairs: when RC nodes fail only on edges not
    // incident to the focus, propose relaxing every such edge (and the
    // leaf literals behind it), at a discount since the benefit is
    // indirect.
    if !agg.deep_only.is_empty() {
        let (p, affected) = score(&agg.deep_only);
        for e in q.edges() {
            if e.from == focus || e.to == focus {
                continue;
            }
            ops.push(ScoredOp {
                op: AtomicOp::RmE {
                    from: e.from,
                    to: e.to,
                    bound: e.bound,
                },
                pickiness: p * 0.5,
                affected: affected.clone(),
            });
            if e.bound < q.max_bound() {
                ops.push(ScoredOp {
                    op: AtomicOp::RxE {
                        from: e.from,
                        to: e.to,
                        old_bound: e.bound,
                        new_bound: e.bound + 1,
                    },
                    pickiness: p * 0.45,
                    affected: affected.clone(),
                });
            }
            // Literals on the deep endpoints.
            for u in [e.from, e.to] {
                if u == focus {
                    continue;
                }
                if let Some(node) = q.node(u) {
                    for lit in &node.literals {
                        ops.push(ScoredOp {
                            op: AtomicOp::RmL {
                                node: u,
                                lit: lit.clone(),
                            },
                            pickiness: p * 0.4,
                            affected: affected.clone(),
                        });
                    }
                }
            }
        }
    }

    // Keep only applicable ones.
    ops.retain(|s| s.op.applicable(q).is_ok());
    ops
}

/// The adom-discretization rules for `RxL` (§5.3 "Generating RxL"): for a
/// lower-bounded literal pick the largest adom value below `c` (relax to
/// `>= a`); for an upper-bounded one the smallest above (relax to `<= a`).
/// Also emits the full-coverage variant (the extreme adom value), giving
/// the search a cheap and an aggressive repair per literal.
fn relaxed_literals(lit: &Literal, adom_sorted: &[f64]) -> Vec<Literal> {
    let Some(c) = lit.value.as_f64() else {
        return Vec::new(); // categorical: RmL + AddL handle it
    };
    let mut out = Vec::new();
    let to_value = |x: f64| -> AttrValue {
        if x.fract() == 0.0 && matches!(lit.value, AttrValue::Int(_)) {
            AttrValue::Int(x as i64)
        } else {
            AttrValue::Float(x)
        }
    };
    if lit.op.is_upper_open() || lit.op == CmpOp::Eq {
        // `>= c` / `> c` / `= c`: admit smaller values.
        let below: Vec<f64> = adom_sorted.iter().copied().filter(|&a| a < c).collect();
        if let Some(&nearest) = below.last() {
            out.push(Literal::new(lit.attr, CmpOp::Ge, to_value(nearest)));
        }
        if let Some(&furthest) = below.first() {
            if below.len() > 1 {
                out.push(Literal::new(lit.attr, CmpOp::Ge, to_value(furthest)));
            }
        }
    }
    if lit.op.is_lower_open() || lit.op == CmpOp::Eq {
        // `<= c` / `< c` / `= c`: admit larger values.
        let above: Vec<f64> = adom_sorted.iter().copied().filter(|&a| a > c).collect();
        if let Some(&nearest) = above.first() {
            out.push(Literal::new(lit.attr, CmpOp::Le, to_value(nearest)));
        }
        if let Some(&furthest) = above.last() {
            if above.len() > 1 {
                out.push(Literal::new(lit.attr, CmpOp::Le, to_value(furthest)));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Refinement generation (GenRf)
// ---------------------------------------------------------------------------

/// GenRf: refinement operators harvested from RM witnesses (§5.3 and
/// Appendix B).
pub fn generate_refinements(
    session: &Session,
    q: &PatternQuery,
    eval: &EvalResult,
) -> Vec<ScoredOp> {
    let g = session.graph();
    let lambda = session.config.closeness.lambda;
    let v_uo = session.v_uo.len().max(1) as f64;
    let sample = session.config.relevance_sample;
    let rm: Vec<NodeId> = eval.relevance.rm.iter().copied().take(sample).collect();
    let im: Vec<NodeId> = eval.relevance.im.iter().copied().take(sample).collect();
    let mut ops: Vec<ScoredOp> = Vec::new();

    // Witness assignment per pattern node for RM and IM matches.
    let witness = |m: NodeId, u: QNodeId| -> Option<NodeId> {
        eval.outcome
            .valuations
            .get(&m)
            .and_then(|h| h.get(&u))
            .copied()
    };

    let p_refine = |im_killed: &[NodeId], rm_lost_cl: f64| -> f64 {
        (lambda * im_killed.len() as f64 - rm_lost_cl) / v_uo
    };

    // ---- AddL: attribute-value facts RM witnesses share. ----
    // (u, attr, value) -> which RM matches support it.
    let mut facts: FactMap = HashMap::new();
    for &m in &rm {
        for u in q.node_ids() {
            let Some(v) = witness(m, u) else { continue };
            let constrained: HashSet<AttrId> = q
                .node(u)
                .map(|n| n.literals.iter().map(|l| l.attr).collect())
                .unwrap_or_default();
            for (a, val) in &g.node(v).attrs {
                if constrained.contains(a) {
                    continue;
                }
                facts
                    .entry((u, a.0, val.to_string()))
                    .or_insert_with(|| (*a, val.clone(), HashSet::new()))
                    .2
                    .insert(m);
            }
        }
    }
    for ((u, _, _), (attr, val, rm_support)) in &facts {
        // Keep only facts every sampled RM match supports — adding the
        // literal must not (by witness evidence) lose relevant matches.
        if rm_support.len() < rm.len() {
            continue;
        }
        let lit = Literal::new(*attr, CmpOp::Eq, val.clone());
        // IM̄(o): IM matches whose witness violates the literal.
        let killed: Vec<NodeId> = im
            .iter()
            .copied()
            .filter(|&m| witness(m, *u).is_some_and(|v| !lit.eval(g, v)))
            .collect();
        if killed.is_empty() {
            continue;
        }
        ops.push(ScoredOp {
            op: AtomicOp::AddL { node: *u, lit },
            pickiness: p_refine(&killed, 0.0),
            affected: killed,
        });
    }

    // ---- RfL: tighten numeric literals to the RM hull. ----
    for u in q.node_ids() {
        let Some(node) = q.node(u) else { continue };
        for lit in &node.literals {
            let Some(c) = lit.value.as_f64() else {
                continue;
            };
            let rm_vals: Vec<f64> = rm
                .iter()
                .filter_map(|&m| witness(m, u))
                .filter_map(|v| g.attr(v, lit.attr).and_then(AttrValue::as_f64))
                .collect();
            if rm_vals.is_empty() {
                continue;
            }
            let mk = |x: f64| -> AttrValue {
                if x.fract() == 0.0 && matches!(lit.value, AttrValue::Int(_)) {
                    AttrValue::Int(x as i64)
                } else {
                    AttrValue::Float(x)
                }
            };
            let candidate = if lit.op.is_upper_open() {
                // `>= c`: raise to the minimum RM value (keeps all RM).
                let a = rm_vals.iter().copied().fold(f64::INFINITY, f64::min);
                (a > c).then(|| Literal::new(lit.attr, lit.op, mk(a)))
            } else if lit.op.is_lower_open() {
                let a = rm_vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                (a < c).then(|| Literal::new(lit.attr, lit.op, mk(a)))
            } else {
                None // `=` literals cannot be tightened
            };
            let Some(new) = candidate else { continue };
            let killed: Vec<NodeId> = im
                .iter()
                .copied()
                .filter(|&m| witness(m, u).is_some_and(|v| !new.eval(g, v)))
                .collect();
            if killed.is_empty() {
                continue;
            }
            // RM̲(o): RM matches that are provably lost — for the focus, a
            // failing literal disqualifies the match itself.
            let rm_lost: f64 = if u == q.focus() {
                rm.iter()
                    .copied()
                    .filter(|&m| !new.eval(g, m))
                    .map(|m| session.rep.cl(m))
                    .sum()
            } else {
                0.0
            };
            ops.push(ScoredOp {
                op: AtomicOp::RfL {
                    node: u,
                    old: lit.clone(),
                    new,
                },
                pickiness: p_refine(&killed, rm_lost),
                affected: killed,
            });
        }
    }

    // ---- RfE: tighten edge bounds. ----
    for e in q.edges() {
        if e.bound <= 1 {
            continue;
        }
        let new_bound = e.bound - 1;
        let check = |m: NodeId| -> Option<bool> {
            let hf = witness(m, e.from)?;
            let ht = witness(m, e.to)?;
            Some(session.matcher.oracle().within(hf, ht, new_bound))
        };
        let killed: Vec<NodeId> = im
            .iter()
            .copied()
            .filter(|&m| check(m) == Some(false))
            .collect();
        if killed.is_empty() {
            continue;
        }
        let rm_lost: f64 = rm
            .iter()
            .copied()
            .filter(|&m| check(m) == Some(false))
            .map(|m| session.rep.cl(m))
            .sum();
        ops.push(ScoredOp {
            op: AtomicOp::RfE {
                from: e.from,
                to: e.to,
                old_bound: e.bound,
                new_bound,
            },
            pickiness: p_refine(&killed, rm_lost),
            affected: killed,
        });
    }

    // ---- AddE between existing pattern nodes (Appendix B, GenRf rule 1):
    // for a non-adjacent pair (focus, u), if every RM witness pair is
    // within some distance k <= b_m that at least one IM witness pair is
    // not, the new edge separates them. ----
    for u in q.node_ids() {
        if u == q.focus()
            || q.edge_between(q.focus(), u).is_some()
            || q.edge_between(u, q.focus()).is_some()
        {
            continue;
        }
        for outgoing in [true, false] {
            let pair_of = |m: NodeId| -> Option<(NodeId, NodeId)> {
                let hu = witness(m, u)?;
                Some(if outgoing { (m, hu) } else { (hu, m) })
            };
            // k = max RM witness distance (all RM pairs stay within k).
            // Every RM witness pair shares the same source (direction
            // fixed, focus side constant per member set), so one batched
            // oracle call amortizes the source-label loads.
            // An empty member set yields no batch: without RM there is no
            // `k`, without IM nothing to kill.
            let Some(rm_pairs) = rm
                .iter()
                .map(|&m| pair_of(m))
                .collect::<Option<Vec<(NodeId, NodeId)>>>()
                .filter(|pairs| !pairs.is_empty())
            else {
                continue;
            };
            let rm_dists = session
                .matcher
                .oracle()
                .dist_batch(&rm_pairs, q.max_bound());
            if rm_dists.iter().any(Option::is_none) {
                continue;
            }
            let Some(k) = rm_dists.iter().flatten().copied().max() else {
                continue;
            };
            // Unknown witness counts as not killed (conservative), so only
            // members with a witness enter the batch.
            let im_with: Vec<(NodeId, (NodeId, NodeId))> = im
                .iter()
                .copied()
                .filter_map(|m| pair_of(m).map(|p| (m, p)))
                .collect();
            if im_with.is_empty() {
                continue;
            }
            let im_pairs: Vec<(NodeId, NodeId)> = im_with.iter().map(|&(_, p)| p).collect();
            let im_dists = session
                .matcher
                .oracle()
                .dist_batch(&im_pairs, q.max_bound());
            let killed: Vec<NodeId> = im_with
                .iter()
                .zip(&im_dists)
                .filter(|(_, d)| d.is_none_or(|d| d > k))
                .map(|((m, _), _)| *m)
                .collect();
            if killed.is_empty() {
                continue;
            }
            let (from, to) = if outgoing {
                (q.focus(), u)
            } else {
                (u, q.focus())
            };
            ops.push(ScoredOp {
                op: AtomicOp::AddE { from, to, bound: k },
                pickiness: p_refine(&killed, 0.0),
                affected: killed,
            });
        }
    }

    // ---- AddNodeEdge: neighborhood labels separating RM from IM. ----
    // A `(label, distance <= 2, direction)` key is picky when every RM
    // match has it and some IM match lacks it.
    let rm_keys: Vec<_> = rm.iter().map(|&m| session.label_keys(m)).collect();
    let im_keys: Vec<_> = im.iter().map(|&m| session.label_keys(m)).collect();
    let universe: Vec<LabelKey> = match rm_keys.split_first() {
        Some((first, rest)) => rest.iter().fold(first.to_vec(), |mut acc, keys| {
            retain_sorted(&mut acc, keys);
            acc
        }),
        None => {
            let mut all: Vec<LabelKey> = im_keys.iter().flat_map(|k| k.iter().copied()).collect();
            all.sort_unstable();
            all.dedup();
            all
        }
    };
    for key @ (label, d, outgoing) in universe {
        if d > q.max_bound() {
            continue;
        }
        let killed: Vec<NodeId> = im
            .iter()
            .zip(&im_keys)
            .filter(|(_, keys)| keys.binary_search(&key).is_err())
            .map(|(&m, _)| m)
            .collect();
        if killed.is_empty() {
            continue;
        }
        ops.push(ScoredOp {
            op: AtomicOp::AddNodeEdge {
                anchor: q.focus(),
                label: Some(wqe_graph::LabelId(label)),
                bound: d,
                outgoing,
            },
            pickiness: p_refine(&killed, 0.0),
            affected: killed,
        });
    }

    ops.retain(|s| s.op.applicable(q).is_ok());
    ops
}

/// Keeps the members of sorted `acc` that sorted `keys` also holds: a
/// merge walk.
fn retain_sorted<T: Ord>(acc: &mut Vec<T>, keys: &[T]) {
    let mut rest = keys.iter().peekable();
    acc.retain(|k| {
        while rest.next_if(|&x| x < k).is_some() {}
        rest.peek() == Some(&k)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{paper_question, CARRIER, FOCUS, SENSOR};
    use crate::session::{Session, WqeConfig};
    use wqe_graph::product::product_graph;

    fn setup() -> (wqe_graph::product::ProductGraph, crate::ctx::EngineCtx) {
        let pg = product_graph();
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(pg.graph.clone()));
        (pg, ctx)
    }

    #[test]
    fn relaxations_repair_price_and_sensor() {
        let (pg, ctx) = setup();
        let g = &pg.graph;
        let wq = paper_question(g);
        let session = Session::new(ctx.clone(), &wq, WqeConfig::default());
        let eval = session.evaluate(&wq.query);
        let relaxations = generate_relaxations(&session, &wq.query, &eval);
        let s = g.schema();
        let price = s.attr_id("Price").unwrap();
        // The paper's o3: RxL(Price >= 840 -> >= 790) must be generated —
        // 790 is the largest failing-RC price below 840 (P3's price).
        let found_o3 = relaxations.iter().any(|sop| match &sop.op {
            AtomicOp::RxL { node, old, new } => {
                *node == FOCUS && old.attr == price && new.value.value_eq(&AttrValue::Int(790))
            }
            _ => false,
        });
        assert!(
            found_o3,
            "RxL(Price>=840 -> >=790) expected; got {relaxations:?}"
        );
        // The paper's o2: RmE((Cellphone, Sensor), 2) — P3 has no sensor.
        let found_o2 = relaxations.iter().any(
            |sop| matches!(sop.op, AtomicOp::RmE { from, to, .. } if from == FOCUS && to == SENSOR),
        );
        assert!(found_o2, "RmE(sensor edge) expected");
    }

    #[test]
    fn pickiness_prefers_price_relaxation_over_sensor_removal() {
        // Example 5.3: RC̄(o3) = {P3, P4} beats RC̄(o2) = {P3}.
        let (pg, ctx) = setup();
        let g = &pg.graph;
        let wq = paper_question(g);
        let session = Session::new(ctx.clone(), &wq, WqeConfig::default());
        let eval = session.evaluate(&wq.query);
        let relaxations = generate_relaxations(&session, &wq.query, &eval);
        let s = g.schema();
        let price = s.attr_id("Price").unwrap();
        // GenRx emits both the nearest-value and the full-coverage RxL; the
        // paper's o3 (>= 790, covering P3 and P4) is the better-scored one.
        let o3 = relaxations
            .iter()
            .filter(|sop| matches!(&sop.op, AtomicOp::RxL { old, .. } if old.attr == price))
            .max_by(|a, b| a.pickiness.partial_cmp(&b.pickiness).unwrap())
            .expect("o3 generated");
        let o2 = relaxations
            .iter()
            .find(|sop| matches!(sop.op, AtomicOp::RmE { to, .. } if to == SENSOR))
            .expect("o2 generated");
        assert!(o3.pickiness > o2.pickiness, "o3 should outrank o2");
        assert_eq!(o3.affected.len(), 2);
        assert_eq!(o2.affected.len(), 1);
    }

    #[test]
    fn pickiness_overestimates_gain() {
        // Lemma 5.2: p(o) >= cl(Q ⊕ o) - cl(Q).
        let (pg, ctx) = setup();
        let g = &pg.graph;
        let _ = pg;
        let wq = paper_question(g);
        let session = Session::new(ctx.clone(), &wq, WqeConfig::default());
        let eval = session.evaluate(&wq.query);
        for sop in generate_relaxations(&session, &wq.query, &eval) {
            let mut q2 = wq.query.clone();
            sop.op.apply(&mut q2).unwrap();
            let after = session.evaluate(&q2);
            assert!(
                sop.pickiness >= after.closeness - eval.closeness - 1e-9,
                "{:?}: p={} gain={}",
                sop.op,
                sop.pickiness,
                after.closeness - eval.closeness
            );
        }
    }

    #[test]
    fn refinements_discover_discount_literal() {
        // Example 5.4: after relaxing, GenRf must produce
        // AddL(Carrier.Discount = 25) which kills the IM nodes P1, P2.
        let (pg, ctx) = setup();
        let g = &pg.graph;
        let wq = paper_question(g);
        let session = Session::new(ctx.clone(), &wq, WqeConfig::default());
        // Relax price and drop the sensor edge first.
        let mut q = wq.query.clone();
        for op in crate::paper::paper_optimal_ops(g).into_iter().take(2) {
            op.apply(&mut q).unwrap();
        }
        let eval = session.evaluate(&q);
        assert_eq!(eval.relevance.im.len(), 2, "P1 and P2 are irrelevant");
        let refinements = generate_refinements(&session, &q, &eval);
        let discount = g.schema().attr_id("Discount").unwrap();
        let found = refinements.iter().find(|sop| match &sop.op {
            AtomicOp::AddL { node, lit } => {
                *node == CARRIER && lit.attr == discount && lit.value.value_eq(&AttrValue::Int(25))
            }
            _ => false,
        });
        let found = found.expect("AddL(Carrier.Discount=25) expected");
        assert_eq!(found.affected.len(), 2, "kills P1 and P2");
    }

    /// Data: r -> a1 -> b1 with a shortcut r -> b1 (dist 1);
    ///       i -> a2 -> b2 with no shortcut (dist 2).
    /// Query: F -> A (1), A -> B (1), answered by r and i; the exemplar
    /// wants the `F` nodes whose `x` is among `wanted` (r has 1, i has 2).
    fn adde_fixture(wanted: &[i64]) -> (Session, PatternQuery, [NodeId; 2], QNodeId) {
        use crate::exemplar::TuplePattern;
        use wqe_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        let r = b.add_node("F", [("x", AttrValue::Int(1))]);
        let i = b.add_node("F", [("x", AttrValue::Int(2))]);
        let a1 = b.add_node("A", []);
        let a2 = b.add_node("A", []);
        let b1 = b.add_node("B", []);
        let b2 = b.add_node("B", []);
        b.add_edge(r, a1, "e");
        b.add_edge(a1, b1, "e");
        b.add_edge(r, b1, "shortcut");
        b.add_edge(i, a2, "e");
        b.add_edge(a2, b2, "e");
        let g = b.finalize();
        let s = g.schema();
        let x = s.attr_id("x").unwrap();
        let mut q = wqe_query::PatternQuery::new(s.label_id("F"), 4);
        let ua = q.add_node(s.label_id("A"));
        let ub = q.add_node(s.label_id("B"));
        q.add_edge(q.focus(), ua, 1).unwrap();
        q.add_edge(ua, ub, 1).unwrap();
        let mut ex = crate::exemplar::Exemplar::new();
        for &c in wanted {
            ex.add_tuple(TuplePattern::new().constant(x, c));
        }
        let wq = crate::session::WhyQuestion {
            query: q.clone(),
            exemplar: ex,
        };
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g));
        let session = Session::new(ctx, &wq, WqeConfig::default());
        (session, q, [r, i], ub)
    }

    #[test]
    fn adde_scoring_skips_empty_member_batches() {
        // AddE scoring batches the RM witness pairs, then the IM ones, for
        // the one node not adjacent to the focus (uB), in each direction.
        // An empty member set has no pairs, so it costs no oracle call:
        // the counts below are exactly the non-empty batches. Inward, no B
        // reaches an F, so the RM batch ends that direction.
        for (wanted, rm, im, batches) in [
            (&[1][..], 1, 1, 3), // out: RM and IM; in: RM, unreachable
            (&[1, 2], 2, 0, 2),  // out: RM; in: RM, unreachable
            (&[7], 0, 2, 0),     // no RM, no k: nothing to batch
        ] {
            let (session, q, _, _) = adde_fixture(wanted);
            let eval = session.evaluate(&q);
            assert_eq!((eval.relevance.rm.len(), eval.relevance.im.len()), (rm, im));
            let profiler = std::sync::Arc::new(crate::obs::Profiler::new());
            let _scope = wqe_pool::scope::Scope {
                profiler: Some(std::sync::Arc::clone(&profiler)),
                ..Default::default()
            }
            .enter();
            generate_refinements(&session, &q, &eval);
            assert_eq!(
                profiler.snapshot().counter(Counter::OracleDistBatch),
                batches,
                "exemplar wants x in {wanted:?}"
            );
        }
    }

    #[test]
    fn adde_between_existing_nodes_generated() {
        // GenRf must propose AddE((focus, uB), 1), which kills i.
        let (session, q, [r, i], ub) = adde_fixture(&[1]);
        let eval = session.evaluate(&q);
        assert_eq!(eval.relevance.rm, vec![r]);
        assert_eq!(eval.relevance.im, vec![i]);
        let refinements = generate_refinements(&session, &q, &eval);
        let found = refinements.iter().any(|sop| {
            matches!(sop.op, AtomicOp::AddE { from, to, bound }
                if from == q.focus() && to == ub && bound == 1)
        });
        assert!(found, "AddE((focus, uB), 1) expected; got {refinements:?}");
    }

    #[test]
    fn next_ops_honors_normal_form() {
        let pg2 = product_graph();
        let g = &pg2.graph;
        let ctx = crate::ctx::EngineCtx::with_default_oracle(std::sync::Arc::new(g.clone()));
        let wq = paper_question(g);
        let session = Session::new(ctx.clone(), &wq, WqeConfig::default());
        let eval = session.evaluate(&wq.query);
        // In the Refine phase no relaxation may be generated.
        let ops = next_ops(&session, &wq.query, &eval, Phase::Refine, -1.0);
        assert!(ops
            .iter()
            .all(|s| s.op.class() == wqe_query::OpClass::Refine));
    }

    #[test]
    fn next_ops_sorted_by_pickiness() {
        let (pg, ctx) = setup();
        let g = &pg.graph;
        let wq = paper_question(g);
        let session = Session::new(ctx.clone(), &wq, WqeConfig::default());
        let eval = session.evaluate(&wq.query);
        let ops = next_ops(&session, &wq.query, &eval, Phase::Relax, -1.0);
        assert!(!ops.is_empty());
        for w in ops.windows(2) {
            assert!(w[0].pickiness >= w[1].pickiness);
        }
    }
}
