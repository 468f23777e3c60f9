//! Property-based invariants of the rewrite calculus and the closeness
//! model, checked on random synthetic graphs and random why-questions.

use proptest::prelude::*;
use std::sync::Arc;
use wqe::core::chase::ChaseSequence;
use wqe::core::{Algorithm, EngineCtx, Session, WqeConfig};
use wqe::datagen::{
    generate_query, generate_why, QueryGenConfig, SynthConfig, TopologyKind, WhyGenConfig,
};
use wqe::index::{DistanceOracle, Oracle};
use wqe::query::{is_normal_form, normalize, sequence_cost, OpClass};

fn graph(seed: u64) -> Arc<wqe::graph::Graph> {
    Arc::new(wqe::datagen::generate(&SynthConfig {
        nodes: 300,
        avg_out_degree: 3.5,
        labels: 8,
        attrs_per_node: 4,
        seed,
        ..Default::default()
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Relaxations only grow the answer; refinements only shrink it
    /// (the Q-Chase step rules of §4).
    #[test]
    fn operator_monotonicity(seed in 0u64..500) {
        let g = graph(seed % 5);
        let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&g));
        let qcfg = QueryGenConfig { edges: 2, seed, topology: TopologyKind::Star, ..Default::default() };
        let Some(truth) = generate_query(&g, &qcfg) else { return Ok(()) };
        let wcfg = WhyGenConfig { seed, ..Default::default() };
        let Some(gw) = generate_why(&g, &oracle, &truth, &wcfg) else { return Ok(()) };
        let session = Session::new(
            EngineCtx::new(Arc::clone(&g), Arc::clone(&oracle)),
            &gw.question,
            WqeConfig::default(),
        );
        // Replay the injected disturbance from the truth query: every step
        // must respect relax/refine monotonicity.
        let Some(seq) = ChaseSequence::replay(&session, &gw.truth_query, &gw.injected) else {
            return Ok(());
        };
        prop_assert!(seq.respects_monotonicity());
    }

    /// The normal-form transformation preserves the final query and cost
    /// for canonical sequences (Lemma 4.1).
    #[test]
    fn normal_form_equivalence(seed in 0u64..500) {
        let g = graph(seed % 5);
        let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&g));
        let qcfg = QueryGenConfig { edges: 2, seed, ..Default::default() };
        let Some(truth) = generate_query(&g, &qcfg) else { return Ok(()) };
        let wcfg = WhyGenConfig { seed: seed + 1, ..Default::default() };
        let Some(gw) = generate_why(&g, &oracle, &truth, &wcfg) else { return Ok(()) };
        let ops = gw.injected.clone();
        prop_assume!(wqe::query::is_canonical(&ops));
        let norm = normalize(&ops);
        prop_assert!(is_normal_form(&norm));
        prop_assert_eq!(norm.len(), ops.len());
        prop_assert!((sequence_cost(&norm, &g) - sequence_cost(&ops, &g)).abs() < 1e-9);
        // Applying the normalized sequence must be possible and yield a
        // query with the same answers.
        let mut q1 = gw.truth_query.clone();
        for op in &ops {
            op.apply(&mut q1).expect("original order applies");
        }
        let mut q2 = gw.truth_query.clone();
        let mut applied_all = true;
        for op in &norm {
            if op.apply(&mut q2).is_err() {
                applied_all = false;
                break;
            }
        }
        prop_assume!(applied_all);
        let matcher = wqe::query::Matcher::new(Arc::clone(&g), Arc::clone(&oracle));
        prop_assert_eq!(matcher.evaluate(&q1).matches, matcher.evaluate(&q2).matches);
    }

    /// Closeness sandwich: cl(Q(G), E) <= cl⁺(Q, E) <= cl*.
    #[test]
    fn closeness_bounds(seed in 0u64..500) {
        let g = graph(seed % 5);
        let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&g));
        let qcfg = QueryGenConfig { edges: 2, seed, ..Default::default() };
        let Some(truth) = generate_query(&g, &qcfg) else { return Ok(()) };
        let wcfg = WhyGenConfig { seed: seed + 2, ..Default::default() };
        let Some(gw) = generate_why(&g, &oracle, &truth, &wcfg) else { return Ok(()) };
        let session = Session::new(
            EngineCtx::new(Arc::clone(&g), Arc::clone(&oracle)),
            &gw.question,
            WqeConfig::default(),
        );
        let eval = session.evaluate(&gw.question.query);
        prop_assert!(eval.closeness <= eval.upper_bound + 1e-9);
        prop_assert!(eval.upper_bound <= session.cl_star + 1e-9);
    }

    /// AnsW's best rewrite never exceeds the budget, and its operator
    /// sequence is canonical and in normal form (Theorem 4.3's encoding).
    #[test]
    fn answ_output_well_formed(seed in 0u64..200) {
        let g = graph(seed % 3);
        let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&g));
        let qcfg = QueryGenConfig { edges: 2, seed, ..Default::default() };
        let Some(truth) = generate_query(&g, &qcfg) else { return Ok(()) };
        let wcfg = WhyGenConfig { seed: seed + 3, ..Default::default() };
        let Some(gw) = generate_why(&g, &oracle, &truth, &wcfg) else { return Ok(()) };
        let config = WqeConfig {
            budget: 3.0,
            time_limit_ms: Some(300),
            max_expansions: 60,
            ..Default::default()
        };
        let session = Session::new(
            EngineCtx::new(Arc::clone(&g), Arc::clone(&oracle)),
            &gw.question,
            config,
        );
        let report = session.run(Algorithm::AnsW, &gw.question).unwrap();
        if let Some(best) = report.best {
            prop_assert!(best.cost <= 3.0 + 1e-9);
            prop_assert!(wqe::query::is_canonical(&best.ops));
            prop_assert!(is_normal_form(&best.ops));
            prop_assert!((sequence_cost(&best.ops, &g) - best.cost).abs() < 1e-9);
            // Re-applying the ops reproduces the reported query/answers.
            let mut q = gw.question.query.clone();
            for op in &best.ops {
                op.apply(&mut q).expect("reported ops applicable in order");
            }
            prop_assert_eq!(q.signature(), best.query.signature());
            let matcher = wqe::query::Matcher::new(Arc::clone(&g), Arc::clone(&oracle));
            prop_assert_eq!(matcher.evaluate(&q).matches, best.matches);
        }
    }

    /// Refinement operators produce queries that syntactically refine the
    /// original (`PatternQuery::refines`), which in turn guarantees answer
    /// containment through the matcher.
    #[test]
    fn refinement_ops_imply_containment(seed in 0u64..300) {
        let g = graph(seed % 5);
        let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&g));
        let qcfg = QueryGenConfig { edges: 2, seed, ..Default::default() };
        let Some(truth) = generate_query(&g, &qcfg) else { return Ok(()) };
        let wcfg = WhyGenConfig {
            seed: seed + 9,
            class: Some(OpClass::Refine),
            ..Default::default()
        };
        let Some(gw) = wqe::datagen::generate_why(&g, &oracle, &truth, &wcfg) else {
            return Ok(());
        };
        // The disturbed query was produced by refinement-only operators.
        prop_assert!(gw.question.query.refines(&gw.truth_query));
        // Syntactic refinement implies semantic containment.
        let disturbed: std::collections::HashSet<_> =
            gw.disturbed_answers.iter().collect();
        let truth_set: std::collections::HashSet<_> = gw.truth_answers.iter().collect();
        prop_assert!(disturbed.is_subset(&truth_set));
    }

    /// Refinement-only rewrites from ApxWhyM never add matches.
    #[test]
    fn whymany_only_removes(seed in 0u64..200) {
        let g = graph(seed % 3);
        let oracle: Arc<dyn DistanceOracle> = Arc::new(Oracle::build(&g));
        let qcfg = QueryGenConfig { edges: 2, seed, ..Default::default() };
        let Some(truth) = generate_query(&g, &qcfg) else { return Ok(()) };
        let wcfg = WhyGenConfig { seed: seed + 4, ..Default::default() };
        let Some(gw) = wqe::datagen::generate_why_many(&g, &oracle, &truth, &wcfg) else {
            return Ok(());
        };
        let session = Session::new(
            EngineCtx::new(Arc::clone(&g), Arc::clone(&oracle)),
            &gw.question,
            WqeConfig {
                budget: 3.0,
                time_limit_ms: Some(300),
                ..Default::default()
            },
        );
        let report = session.run(Algorithm::WhyMany, &gw.question).unwrap();
        if let Some(best) = report.best {
            prop_assert!(best.ops.iter().all(|o| o.class() == OpClass::Refine));
            let before: std::collections::HashSet<_> =
                gw.disturbed_answers.iter().collect();
            prop_assert!(best.matches.iter().all(|v| before.contains(v)));
        }
    }
}
