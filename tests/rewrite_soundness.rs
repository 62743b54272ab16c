//! Rewrite soundness on randomized *documents*: for random generator
//! parameters, every plan the driver offers must agree with the nested
//! baseline — a coarser net than the Appendix-A relation-level property
//! tests, catching interactions between the frontend, the schema
//! analysis, and the rewriter.

use proptest::prelude::*;

use nal::{eval_query, EvalCtx};
use ordered_unnesting::workloads::{self, Workload};
use xmldb::gen::standard_catalog;
use xmldb::Catalog;

fn outputs_of_all_plans(w: &Workload, catalog: &Catalog) -> Vec<(String, String)> {
    let nested = xquery::compile(w.query, catalog).expect("compiles");
    unnest::enumerate_plans(&nested, catalog)
        .into_iter()
        .map(|p| {
            let mut ctx = EvalCtx::new(catalog);
            eval_query(&p.expr, &mut ctx).expect("evaluates");
            (p.label, ctx.take_output())
        })
        .collect()
}

proptest! {
    // Documents are expensive to build; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_offered_plan_is_sound(
        scale in 5usize..60,
        fanout in 1usize..6,
        seed in 0u64..1000,
        which in 0usize..6,
    ) {
        let catalog = standard_catalog(scale, fanout, seed);
        let w = &workloads::ALL[which];
        let outputs = outputs_of_all_plans(w, &catalog);
        prop_assert!(outputs.len() >= 2, "[{}] no rewrite fired", w.id);
        let (_, reference) = &outputs[0];
        for (label, out) in &outputs[1..] {
            prop_assert_eq!(
                out, reference,
                "[{}] plan `{}` diverges at scale={} fanout={} seed={}",
                w.id, label, scale, fanout, seed
            );
        }
    }

    #[test]
    fn engine_agrees_with_spec_on_random_documents(
        scale in 5usize..40,
        seed in 0u64..1000,
        which in 0usize..6,
    ) {
        let catalog = standard_catalog(scale, 3, seed);
        let w = &workloads::ALL[which];
        let nested = xquery::compile(w.query, &catalog).expect("compiles");
        for p in unnest::enumerate_plans(&nested, &catalog) {
            let mut ctx = EvalCtx::new(&catalog);
            eval_query(&p.expr, &mut ctx).expect("spec evaluates");
            let spec_out = ctx.take_output();
            let run = engine::run_streaming_parallel(&engine::compile(&p.expr), &catalog, 1).expect("engine evaluates");
            prop_assert_eq!(
                run.output, spec_out,
                "[{} / {}] engine diverges at scale={} seed={}",
                w.id, p.label, scale, seed
            );
        }
    }
}

/// Pruning never changes results — on real documents and real queries.
#[test]
fn prune_is_semantics_preserving_on_workloads() {
    let catalog = standard_catalog(25, 3, 5);
    for w in &workloads::ALL {
        let nested = xquery::compile(w.query, &catalog).expect("compiles");
        let pruned = unnest::prune(&nested);
        let mut c1 = EvalCtx::new(&catalog);
        eval_query(&nested, &mut c1).unwrap();
        let mut c2 = EvalCtx::new(&catalog);
        eval_query(&pruned, &mut c2).unwrap();
        assert_eq!(c1.out, c2.out, "[{}] pruning changed the output", w.id);
    }
}

/// Rewrite traces name the equivalences the paper's sections apply.
#[test]
fn traces_cite_the_expected_equivalences() {
    let catalog = standard_catalog(20, 2, 9);
    let cases = [
        (&workloads::Q1_GROUPING, "Eqv.5"),
        (&workloads::Q2_AGGREGATION, "Eqv.3"),
        (&workloads::Q3_EXISTENTIAL, "Eqv.6"),
        (&workloads::Q5_UNIVERSAL, "Eqv.9"),
        (&workloads::Q6_HAVING, "Eqv.3"),
    ];
    for (w, rule_fragment) in cases {
        let nested = xquery::compile(w.query, &catalog).unwrap();
        let (_, trace) = unnest::unnest_best(&nested, &catalog);
        assert!(
            trace.steps.iter().any(|s| s.contains(rule_fragment)),
            "[{}] expected {rule_fragment} in trace {:?}",
            w.id,
            trace.steps
        );
    }
}
