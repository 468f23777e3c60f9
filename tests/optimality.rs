//! Optimality cross-check: on the paper's scenario, `AnsW` must do at least
//! as well as a brute-force search over every subset of Example 3.1's
//! operator universe (the completeness guarantee of §5.3 says picky
//! generation suffices — no enumeration of the full Q-Chase tree needed).

use std::sync::Arc;
use wqe::core::paper::{paper_question, CARRIER, FOCUS, SENSOR};
use wqe::core::{Algorithm, EngineCtx, Session, WqeConfig};
use wqe::graph::product::product_graph;
use wqe::graph::{AttrValue, CmpOp};
use wqe::index::PllIndex;
use wqe::query::{AtomicOp, Literal};

/// Example 3.1's operator table: o1..o7.
fn example_ops(g: &wqe::graph::Graph) -> Vec<AtomicOp> {
    let s = g.schema();
    let price = s.attr_id("Price").unwrap();
    let ram = s.attr_id("RAM").unwrap();
    let display = s.attr_id("Display").unwrap();
    let discount = s.attr_id("Discount").unwrap();
    vec![
        // o1
        AtomicOp::AddL {
            node: CARRIER,
            lit: Literal::new(discount, CmpOp::Eq, 25),
        },
        // o2
        AtomicOp::RmE {
            from: FOCUS,
            to: SENSOR,
            bound: 2,
        },
        // o3
        AtomicOp::RxL {
            node: FOCUS,
            old: Literal::new(price, CmpOp::Ge, 840),
            new: Literal::new(price, CmpOp::Ge, 790),
        },
        // o4
        AtomicOp::RxL {
            node: FOCUS,
            old: Literal::new(price, CmpOp::Ge, 840),
            new: Literal::new(price, CmpOp::Ge, 750),
        },
        // o5
        AtomicOp::RfL {
            node: FOCUS,
            old: Literal::new(ram, CmpOp::Ge, 4),
            new: Literal::new(ram, CmpOp::Ge, 6),
        },
        // o6
        AtomicOp::RmL {
            node: FOCUS,
            lit: Literal::new(display, CmpOp::Ge, 62),
        },
        // o7 (AddL display) cancels o6 and is never useful; include anyway.
        AtomicOp::AddL {
            node: FOCUS,
            lit: Literal::new(display, CmpOp::Ge, 62),
        },
    ]
}

/// Best closeness over every ordered application of a subset of `ops`
/// within `budget`, requiring satisfaction — brute force.
fn brute_force_best(
    session: &Session,
    q0: &wqe::query::PatternQuery,
    ops: &[AtomicOp],
    budget: f64,
) -> f64 {
    fn recurse(
        session: &Session,
        q: &wqe::query::PatternQuery,
        remaining: &[AtomicOp],
        used: &mut Vec<bool>,
        cost: f64,
        budget: f64,
        best: &mut f64,
    ) {
        let eval = session.evaluate(q);
        if eval.satisfies && eval.closeness > *best {
            *best = eval.closeness;
        }
        for i in 0..remaining.len() {
            if used[i] {
                continue;
            }
            let op = &remaining[i];
            let c = op.cost(session.graph());
            if cost + c > budget + 1e-9 {
                continue;
            }
            let mut q2 = q.clone();
            if op.apply(&mut q2).is_err() {
                continue;
            }
            used[i] = true;
            recurse(session, &q2, remaining, used, cost + c, budget, best);
            used[i] = false;
        }
    }
    let mut best = f64::NEG_INFINITY;
    let mut used = vec![false; ops.len()];
    recurse(session, q0, ops, &mut used, 0.0, budget, &mut best);
    best
}

#[test]
fn answ_matches_brute_force_over_example_universe() {
    let g = Arc::new(product_graph().graph);
    let ctx = EngineCtx::new(Arc::clone(&g), Arc::new(PllIndex::build(&g)));
    let wq = paper_question(&g);
    for budget in [2.0, 3.0, 4.0, 5.0] {
        let session = Session::new(
            ctx.clone(),
            &wq,
            WqeConfig {
                budget,
                time_limit_ms: Some(20_000),
                max_expansions: 50_000,
                ..Default::default()
            },
        );
        let brute = brute_force_best(&session, &wq.query, &example_ops(&g), budget);
        let report = session.run(Algorithm::AnsW, &wq).unwrap();
        let ours = report
            .top_k
            .first()
            .map(|r| r.closeness)
            .unwrap_or(f64::NEG_INFINITY);
        // AnsW searches a larger operator space than Example 3.1's seven
        // operators, so it must do at least as well.
        assert!(
            ours >= brute - 1e-9,
            "B={budget}: AnsW {ours} < brute-force {brute}"
        );
    }
}

#[test]
fn budget_two_recovers_partial_optimum() {
    // With B = 2, {o6? o1+RmL?}: the brute force over the example universe
    // finds cl = 1/3 ({RmL(Price), AddL(Discount)} costs 2 and yields
    // {P4, P5}... verified against AnsW's value here.
    let g = Arc::new(product_graph().graph);
    let ctx = EngineCtx::new(Arc::clone(&g), Arc::new(PllIndex::build(&g)));
    let wq = paper_question(&g);
    let session = Session::new(
        ctx,
        &wq,
        WqeConfig {
            budget: 2.0,
            ..Default::default()
        },
    );
    let report = session.run(Algorithm::AnsW, &wq).unwrap();
    let best = report.top_k.first().expect("satisfying rewrite at B=2");
    assert!(
        (best.closeness - 1.0 / 3.0).abs() < 1e-9,
        "cl = {}",
        best.closeness
    );
    // And the theoretical optimum needs a bigger budget.
    assert!(!report.optimal_reached);
}

#[test]
fn top_k_pruning_preserves_the_true_top_k() {
    // §6.2 prunes refinement subtrees against the k-th best closeness; the
    // reported top-k must equal the unpruned search's top-k closenesses.
    let g = Arc::new(product_graph().graph);
    let ctx = EngineCtx::new(Arc::clone(&g), Arc::new(PllIndex::build(&g)));
    let wq = paper_question(&g);
    for k in [1usize, 2, 3] {
        let mut pruned_cfg = WqeConfig {
            budget: 4.0,
            top_k: k,
            time_limit_ms: Some(20_000),
            max_expansions: 50_000,
            ..Default::default()
        };
        let session = Session::new(ctx.clone(), &wq, pruned_cfg.clone());
        let pruned = session.run(Algorithm::AnsW, &wq).unwrap();
        pruned_cfg.pruning = false;
        let session_np = Session::new(ctx.clone(), &wq, pruned_cfg);
        let unpruned = session_np.run(Algorithm::AnsW, &wq).unwrap();
        let cl = |r: &wqe::core::AnswerReport| -> Vec<f64> {
            r.top_k.iter().map(|x| x.closeness).collect()
        };
        let (a, b) = (cl(&pruned), cl(&unpruned));
        assert_eq!(a.len().min(k), b.len().min(k));
        for (x, y) in a.iter().zip(&b) {
            assert!(
                (x - y).abs() < 1e-9,
                "k={k}: pruned top-k {a:?} != unpruned {b:?}"
            );
        }
    }
}

#[test]
fn lambda_zero_turns_refinement_off() {
    // With λ = 0 irrelevant matches cost nothing; relaxation alone achieves
    // the optimum and no refinement is needed in the reported rewrite.
    let g = Arc::new(product_graph().graph);
    let ctx = EngineCtx::new(Arc::clone(&g), Arc::new(PllIndex::build(&g)));
    let wq = paper_question(&g);
    let session = Session::new(
        ctx,
        &wq,
        WqeConfig {
            budget: 4.0,
            closeness: wqe::core::ClosenessConfig {
                theta: 1.0,
                lambda: 0.0,
            },
            ..Default::default()
        },
    );
    let report = session.run(Algorithm::AnsW, &wq).unwrap();
    let best = report.best.expect("found");
    // cl* is attainable by relaxations only (IM penalty is 0).
    assert!(report.optimal_reached, "cl = {}", best.closeness);
    let _ = AttrValue::Int(0);
}
