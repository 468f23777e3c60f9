//! RM / IM / RC / IC classification (§2.2's four-way table).
//!
//! A rewrite's evaluation needs RM, IM and RC: operator generation reads
//! all three, on every rewrite. They come from the sorted answers and the
//! session's sorted `R(u_o)` alone, by one merge walk: a classification
//! costs `O(|Q(G)| + |R(u_o)|)`, never a pass over `V_uo`. IC, which no
//! search reads, is derived on demand by [`RelevanceSets::ic`].

use crate::exemplar::Representation;
use wqe_graph::NodeId;

/// Three of the four relevance sets of a query answer w.r.t. an exemplar;
/// the fourth, IC, is [`RelevanceSets::ic`]:
///
/// |                     | `v ∈ rep(E,V)` | `v ∉ rep(E,V)` |
/// |---------------------|----------------|----------------|
/// | `v ∈ Q(G)`          | RM             | IM             |
/// | `v ∈ V_uo \ Q(G)`   | RC             | IC             |
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RelevanceSets {
    /// Relevant matches: answers the exemplar wants kept.
    pub rm: Vec<NodeId>,
    /// Irrelevant matches: answers a rewrite should exclude.
    pub im: Vec<NodeId>,
    /// Relevant candidates: desired entities a rewrite should introduce.
    pub rc: Vec<NodeId>,
}

impl RelevanceSets {
    /// Classifies `answers` (sorted, distinct) against `rep`, with
    /// `r_uo = R(u_o)`, the session-fixed `rep(E, V) ∩ V_uo` (sorted): RM
    /// and IM split the answers, and RC is `R(u_o) \ Q(G)`, by a merge
    /// walk. All outputs are sorted.
    pub fn classify(answers: &[NodeId], rep: &Representation, r_uo: &[NodeId]) -> Self {
        debug_assert!(answers.windows(2).all(|w| w[0] < w[1]), "answers sorted");
        debug_assert!(r_uo.windows(2).all(|w| w[0] < w[1]), "R(u_o) sorted");
        let (rm, im) = answers.iter().partition(|&&v| rep.contains(v));
        let mut rc = Vec::new();
        let mut matched = answers.iter().peekable();
        for &v in r_uo {
            while matched.next_if(|&&m| m < v).is_some() {}
            if matched.next_if_eq(&&v).is_none() {
                rc.push(v);
            }
        }
        RelevanceSets { rm, im, rc }
    }

    /// IC, the irrelevant candidates: the members of the focus candidate
    /// pool `v_uo` (the session's `V_uo`) that are in none of RM, IM and
    /// RC. Sorted when `v_uo` is.
    pub fn ic(&self, v_uo: &[NodeId]) -> Vec<NodeId> {
        let member = |set: &[NodeId], v: NodeId| set.binary_search(&v).is_ok();
        v_uo.iter()
            .copied()
            .filter(|&v| !member(&self.rm, v) && !member(&self.im, v) && !member(&self.rc, v))
            .collect()
    }

    /// True when there is nothing left for relaxation to gain.
    pub fn no_relevant_candidates(&self) -> bool {
        self.rc.is_empty()
    }

    /// True when there is nothing left for refinement to remove.
    pub fn no_irrelevant_matches(&self) -> bool {
        self.im.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exemplar::{compute_representation, Exemplar, TuplePattern};
    use wqe_graph::product::{attrs, product_graph};

    /// `R(u_o)`: the members of `v_uo` in `rep`.
    fn r_uo(rep: &Representation, v_uo: &[NodeId]) -> Vec<NodeId> {
        v_uo.iter().copied().filter(|&v| rep.contains(v)).collect()
    }

    #[test]
    fn example_2_3_relevance_of_q_prime() {
        // With Q'(G) = {P3, P4, P5}: RM = Q'(G), IM = ∅, RC = ∅,
        // IC = {P1, P2} (P6 is also IC in our concrete instance).
        let pg = product_graph();
        let g = &pg.graph;
        let s = g.schema();
        let display = s.attr_id(attrs::DISPLAY).unwrap();
        let storage = s.attr_id(attrs::STORAGE).unwrap();
        let price = s.attr_id(attrs::PRICE).unwrap();
        let mut ex = Exemplar::new();
        ex.add_tuple(
            TuplePattern::new()
                .constant(display, 62i64)
                .var(storage)
                .wildcard(price),
        );
        ex.add_tuple(
            TuplePattern::new()
                .constant(display, 63i64)
                .var(storage)
                .var(price),
        );
        ex.add_constraint(crate::exemplar::Constraint {
            lhs: crate::exemplar::VarRef {
                tuple: 1,
                attr: price,
            },
            op: wqe_graph::CmpOp::Lt,
            rhs: crate::exemplar::Rhs::Const(wqe_graph::AttrValue::Int(800)),
        });
        ex.add_constraint(crate::exemplar::Constraint {
            lhs: crate::exemplar::VarRef {
                tuple: 0,
                attr: storage,
            },
            op: wqe_graph::CmpOp::Gt,
            rhs: crate::exemplar::Rhs::Var(crate::exemplar::VarRef {
                tuple: 1,
                attr: storage,
            }),
        });
        let rep = compute_representation(g, &ex, g.node_ids(), 1.0);
        let cell = s.label_id("Cellphone").unwrap();
        let v_uo = g.nodes_with_label(cell);
        let answers = vec![pg.phones[2], pg.phones[3], pg.phones[4]];
        let sets = RelevanceSets::classify(&answers, &rep, &r_uo(&rep, v_uo));
        assert_eq!(sets.rm, answers);
        assert!(sets.im.is_empty());
        assert!(sets.rc.is_empty());
        let mut expect_ic = vec![pg.phones[0], pg.phones[1], pg.phones[5]];
        expect_ic.sort();
        assert_eq!(sets.ic(v_uo), expect_ic);
    }

    #[test]
    fn original_query_relevance() {
        // Q(G) = {P1, P2, P5}: RM = {P5}, IM = {P1, P2}, RC = {P3, P4}.
        let pg = product_graph();
        let g = &pg.graph;
        let s = g.schema();
        let display = s.attr_id(attrs::DISPLAY).unwrap();
        let storage = s.attr_id(attrs::STORAGE).unwrap();
        let mut ex = Exemplar::new();
        ex.add_tuple(TuplePattern::new().constant(display, 62i64).var(storage));
        ex.add_tuple(TuplePattern::new().constant(display, 63i64).var(storage));
        ex.add_constraint(crate::exemplar::Constraint {
            lhs: crate::exemplar::VarRef {
                tuple: 1,
                attr: s.attr_id(attrs::PRICE).unwrap(),
            },
            op: wqe_graph::CmpOp::Lt,
            rhs: crate::exemplar::Rhs::Const(wqe_graph::AttrValue::Int(800)),
        });
        ex.add_constraint(crate::exemplar::Constraint {
            lhs: crate::exemplar::VarRef {
                tuple: 0,
                attr: storage,
            },
            op: wqe_graph::CmpOp::Gt,
            rhs: crate::exemplar::Rhs::Var(crate::exemplar::VarRef {
                tuple: 1,
                attr: storage,
            }),
        });
        let rep = compute_representation(g, &ex, g.node_ids(), 1.0);
        let cell = s.label_id("Cellphone").unwrap();
        let v_uo = g.nodes_with_label(cell);
        let answers = vec![pg.phones[0], pg.phones[1], pg.phones[4]];
        let sets = RelevanceSets::classify(&answers, &rep, &r_uo(&rep, v_uo));
        assert_eq!(sets.rm, vec![pg.phones[4]]);
        assert_eq!(sets.im, vec![pg.phones[0], pg.phones[1]]);
        assert_eq!(sets.rc, vec![pg.phones[2], pg.phones[3]]);
        assert_eq!(sets.ic(v_uo), vec![pg.phones[5]]);
        assert!(!sets.no_irrelevant_matches());
        assert!(!sets.no_relevant_candidates());
    }
}
