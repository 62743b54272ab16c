//! End-to-end pipeline tests: for every §5 workload, compile the query,
//! enumerate all plan alternatives, evaluate each with the reference
//! evaluator, and assert byte-identical Ξ output across plans.
//!
//! This is the top-level correctness gate of the reproduction: the
//! nested plan is the semantics; every unnested plan must match it.

use nal::{eval_query, EvalCtx};
use ordered_unnesting::workloads::{self, Workload};
use unnest::enumerate_plans;
use xmldb::gen::standard_catalog;
use xmldb::Catalog;

fn run_plan(expr: &nal::Expr, catalog: &Catalog) -> (String, nal::Metrics) {
    let mut ctx = EvalCtx::new(catalog);
    eval_query(expr, &mut ctx).unwrap_or_else(|e| panic!("evaluation failed: {e}\n{expr}"));
    (ctx.take_output(), ctx.metrics)
}

fn check_workload(w: &Workload, catalog: &Catalog) {
    check_workload_opts(w, catalog, true)
}

fn check_workload_opts(w: &Workload, catalog: &Catalog, require_output: bool) {
    let nested = xquery::compile(w.query, catalog)
        .unwrap_or_else(|e| panic!("[{}] compile failed: {e}", w.id));
    let plans = enumerate_plans(&nested, catalog);
    let labels: Vec<&str> = plans.iter().map(|p| p.label.as_str()).collect();
    for expected in w.expected_plans {
        assert!(
            labels.contains(expected),
            "[{}] missing plan `{expected}`; produced {labels:?}",
            w.id
        );
    }

    let (reference, ref_metrics) = run_plan(&plans[0].expr, catalog);
    if require_output {
        assert!(
            !reference.is_empty(),
            "[{}] nested plan produced no output",
            w.id
        );
    }
    for plan in &plans[1..] {
        let (out, m) = run_plan(&plan.expr, catalog);
        assert_eq!(
            out, reference,
            "[{}] plan `{}` output differs from the nested plan",
            w.id, plan.label
        );
        // The whole point of unnesting: strictly fewer document scans.
        assert!(
            m.doc_scans < ref_metrics.doc_scans,
            "[{}] plan `{}` used {} doc scans, nested used {}",
            w.id,
            plan.label,
            m.doc_scans,
            ref_metrics.doc_scans
        );
        // Unnested plans may still contain *bounded* per-group aggregates
        // over nested attributes (the §5.4 group-filter plan's rel(g));
        // what they must not do is re-scan documents per outer tuple —
        // which the doc_scans assertion above pins down.
        assert!(
            m.doc_scans <= w.documents.len() as u64 * 2 + 1,
            "[{}] plan `{}` scans documents per-tuple ({} scans)",
            w.id,
            plan.label,
            m.doc_scans
        );
    }
}

#[test]
fn q1_grouping_all_plans_agree() {
    let catalog = standard_catalog(30, 3, 42);
    check_workload(&workloads::Q1_GROUPING, &catalog);
}

#[test]
fn q2_aggregation_all_plans_agree() {
    let catalog = standard_catalog(30, 3, 42);
    check_workload(&workloads::Q2_AGGREGATION, &catalog);
}

#[test]
fn q3_existential_all_plans_agree() {
    let catalog = standard_catalog(30, 3, 42);
    check_workload(&workloads::Q3_EXISTENTIAL, &catalog);
}

#[test]
fn q4_exists_all_plans_agree() {
    let catalog = standard_catalog(30, 3, 42);
    check_workload(&workloads::Q4_EXISTS, &catalog);
}

#[test]
fn q5_universal_all_plans_agree() {
    let catalog = standard_catalog(30, 3, 42);
    check_workload(&workloads::Q5_UNIVERSAL, &catalog);
}

#[test]
fn q6_having_all_plans_agree() {
    let catalog = standard_catalog(50, 3, 42);
    check_workload(&workloads::Q6_HAVING, &catalog);
}

#[test]
fn all_workloads_across_sizes_and_seeds() {
    for &(scale, fanout, seed) in &[(10usize, 2usize, 1u64), (25, 5, 7), (40, 10, 23)] {
        let catalog = standard_catalog(scale, fanout, seed);
        for w in &workloads::ALL {
            // Small scales can legitimately produce empty results (e.g. no
            // author with all books after 1993) — plan agreement is what
            // matters here.
            check_workload_opts(w, &catalog, false);
        }
    }
}

/// §5.1's DBLP pitfall: the grouping plan (Eqv. 5) must NOT be offered
/// for the dblp-like document — only the outer-join plan is sound.
#[test]
fn dblp_disables_the_grouping_plan() {
    let mut catalog = Catalog::new();
    catalog.register(xmldb::gen::gen_dblp(&xmldb::gen::DblpConfig {
        publications: 120,
        ..Default::default()
    }));
    let w = &workloads::Q1_DBLP;
    let nested = xquery::compile(w.query, &catalog).unwrap();
    let plans = enumerate_plans(&nested, &catalog);
    let labels: Vec<&str> = plans.iter().map(|p| p.label.as_str()).collect();
    assert!(labels.contains(&"outer join"), "{labels:?}");
    assert!(
        !labels.contains(&"grouping") && !labels.contains(&"group Ξ"),
        "Eqv. 5 fired on DBLP despite authors without books: {labels:?}"
    );
    // And the outer-join plan is still correct.
    check_workload(w, &catalog);
}

/// Arithmetic flows through the whole pipeline (parser → translator →
/// both evaluators) — doubling prices and filtering on the result.
#[test]
fn arithmetic_queries_run_end_to_end() {
    let catalog = standard_catalog(40, 2, 8);
    let q = r#"
        let $d1 := doc("prices.xml")
        for $b1 in $d1//book
        where decimal($b1/price) * 2 >= 100
        return <pricey>{ $b1/title }</pricey>"#;
    // The where references a path; normalization extracts it, translation
    // builds an Arith scalar, both evaluators agree.
    let expr = xquery::compile(q, &catalog).expect("compiles");
    let (spec_out, _) = run_plan(&expr, &catalog);
    let eng =
        engine::run_streaming_parallel(&engine::compile(&expr), &catalog, 1).expect("engine runs");
    assert_eq!(eng.output, spec_out);
    assert!(
        spec_out.contains("<pricey>"),
        "some book should qualify: {spec_out}"
    );
    let total_books = 40;
    let matches = spec_out.matches("<pricey>").count();
    assert!(matches < total_books, "the filter should be selective");
}
