//! Differential testing: the streaming engine must agree with the
//! reference evaluator (`nal::eval_query`, the paper's §2 definitions)
//! on every operator, including order and the Ξ output stream.
//! `streaming_vs_materialized.rs` runs further cases (stacked Ξ, Ξ
//! inside scalars, workloads across seeds) serially and morsel-parallel.

use proptest::prelude::*;

use nal::expr::builder::*;
use nal::{eval_query, AggKind, CmpOp, EvalCtx, Expr, GroupFn, Scalar, Sym, Tuple, Value};
use xmldb::gen::{gen_bib, standard_catalog, BibConfig};
use xmldb::Catalog;

fn s(n: &str) -> Sym {
    Sym::new(n)
}

fn spec(expr: &Expr, cat: &Catalog) -> (Vec<Tuple>, String) {
    let mut ctx = EvalCtx::new(cat);
    let rows = eval_query(expr, &mut ctx).expect("spec evaluation succeeds");
    (rows, ctx.take_output())
}

fn engine_run(expr: &Expr, cat: &Catalog) -> (Vec<Tuple>, String) {
    let r = engine::run_streaming_parallel(&engine::compile(expr), cat, 1)
        .expect("engine evaluation succeeds");
    (r.rows, r.output)
}

fn assert_same(expr: &Expr, cat: &Catalog) {
    let (srows, sout) = spec(expr, cat);
    let (erows, eout) = engine_run(expr, cat);
    assert_eq!(srows, erows, "row mismatch for {expr}");
    assert_eq!(sout, eout, "Ξ output mismatch for {expr}");
}

fn rel(attr_a: &str, attr_b: &str, rows: &[(i64, i64)]) -> Expr {
    Expr::Literal(
        rows.iter()
            .map(|&(x, y)| {
                Tuple::from_pairs(vec![(s(attr_a), Value::Int(x)), (s(attr_b), Value::Int(y))])
            })
            .collect(),
    )
    .project_syms(vec![s(attr_a), s(attr_b)])
}

/// Key values of every class, chosen so the definitional `=` crosses
/// classes: `3 = 3.0 = "3" = "3.00"` while `"3" != "3.00"`, `true =
/// "true"`, `0 = -0.0 = "-0"`, NULL and NaN match nothing, and a
/// sequence compares existentially.
fn mixed_value(pick: usize) -> Value {
    match pick {
        0 => Value::Int(3),
        1 => Value::Dec(nal::Dec(3.0)),
        2 => Value::str("3"),
        3 => Value::str("3.00"),
        4 => Value::str("x"),
        5 => Value::Bool(true),
        6 => Value::str("true"),
        7 => Value::Null,
        8 => Value::Dec(nal::Dec(f64::NAN)),
        9 => Value::Dec(nal::Dec(-0.0)),
        10 => Value::str("-0"),
        _ => Value::items(vec![Value::Int(3), Value::str("x")]),
    }
}

fn mixed_rel(key: &str, other: &str, rows: &[(usize, i64)]) -> Expr {
    Expr::Literal(
        rows.iter()
            .map(|&(pick, y)| {
                Tuple::from_pairs(vec![(s(key), mixed_value(pick)), (s(other), Value::Int(y))])
            })
            .collect(),
    )
    .project_syms(vec![s(key), s(other)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Hash operators over keys that mix value classes: typed hashing
    /// alone would split `3` from `"3"`, so the operators must fall
    /// back to the definitional comparison and still agree with spec.
    #[test]
    fn mixed_class_keys_agree(
        l in prop::collection::vec((0usize..12, 0i64..5), 0..10),
        r in prop::collection::vec((0usize..12, 0i64..5), 0..10),
        kind in 0..7usize,
    ) {
        let cat = Catalog::new();
        let left = mixed_rel("a", "x", &l);
        let right = mixed_rel("b", "y", &r);
        let pred = Scalar::attr_cmp(CmpOp::Eq, "a", "b");
        let expr = match kind {
            0 => left.join(right, pred),
            1 => left.semijoin(right, pred),
            2 => left.antijoin(right, pred),
            3 => left.outerjoin(right, pred, "y", Value::Int(0)),
            4 => left.group_binary(right, "g", &["a"], CmpOp::Eq, &["b"], GroupFn::count()),
            5 => right.group_unary("g", &["b"], CmpOp::Eq, GroupFn::count()),
            _ => right.xi_group(
                &["b"],
                xi_cmds(&["<g k=\"", "$b", "\">"]),
                xi_cmds(&["<i>", "$y", "</i>"]),
                xi_cmds(&["</g>"]),
            ),
        };
        assert_same(&expr, &cat);
    }

    #[test]
    fn joins_agree(
        l in prop::collection::vec((0i64..5, 0i64..40), 0..14),
        r in prop::collection::vec((0i64..5, 0i64..40), 0..14),
        kind in 0..4usize,
        with_residual in prop::bool::ANY,
    ) {
        let cat = Catalog::new();
        let left = rel("a", "x", &l);
        let right = rel("b", "y", &r);
        let mut pred = Scalar::attr_cmp(CmpOp::Eq, "a", "b");
        if with_residual {
            pred = pred.and(Scalar::cmp(CmpOp::Lt, Scalar::attr("y"), Scalar::int(25)));
        }
        let expr = match kind {
            0 => left.join(right, pred),
            1 => left.semijoin(right, pred),
            2 => left.antijoin(right, pred),
            _ => left.outerjoin(right, pred, "y", Value::Int(0)),
        };
        assert_same(&expr, &cat);
    }

    #[test]
    fn non_equi_joins_agree(
        l in prop::collection::vec((0i64..5, 0i64..40), 0..10),
        r in prop::collection::vec((0i64..5, 0i64..40), 0..10),
        op in prop::sample::select(vec![CmpOp::Lt, CmpOp::Ne, CmpOp::Ge]),
    ) {
        let cat = Catalog::new();
        let expr = rel("a", "x", &l).semijoin(rel("b", "y", &r), Scalar::attr_cmp(op, "a", "b"));
        assert_same(&expr, &cat);
    }

    #[test]
    fn grouping_agrees(
        rows in prop::collection::vec((0i64..5, 0i64..40), 0..16),
        theta in prop::sample::select(vec![CmpOp::Eq, CmpOp::Lt, CmpOp::Ge]),
        f in prop::sample::select(vec![
            GroupFn::count(),
            GroupFn::id(),
            GroupFn::project_items("y"),
            GroupFn::agg_of(AggKind::Min, "y"),
            GroupFn::agg_of(AggKind::Sum, "y"),
        ]),
    ) {
        let cat = Catalog::new();
        let expr = rel("b", "y", &rows).group_unary("g", &["b"], theta, f);
        assert_same(&expr, &cat);
    }

    #[test]
    fn binary_grouping_agrees(
        l in prop::collection::vec(0i64..5, 0..10),
        r in prop::collection::vec((0i64..5, 0i64..40), 0..14),
        theta in prop::sample::select(vec![CmpOp::Eq, CmpOp::Le]),
    ) {
        let cat = Catalog::new();
        let left = Expr::Literal(
            l.iter().map(|&k| Tuple::singleton(s("a"), Value::Int(k))).collect(),
        )
        .project_syms(vec![s("a")]);
        let expr = left.group_binary(
            rel("b", "y", &r),
            "g",
            &["a"],
            theta,
            &["b"],
            GroupFn::count(),
        );
        assert_same(&expr, &cat);
    }

    #[test]
    fn group_then_unnest_agrees(
        rows in prop::collection::vec((0i64..4, 0i64..40), 0..14),
        distinct in prop::bool::ANY,
    ) {
        let cat = Catalog::new();
        let grouped = rel("b", "y", &rows).group_unary("g", &["b"], CmpOp::Eq, GroupFn::id());
        let expr = if distinct { grouped.unnest_distinct("g") } else { grouped.unnest("g") };
        assert_same(&expr, &cat);
    }

    #[test]
    fn projections_agree(
        rows in prop::collection::vec((0i64..4, 0i64..6), 0..16),
    ) {
        let cat = Catalog::new();
        let base = rel("b", "y", &rows);
        assert_same(&base.clone().project(&["b"]), &cat);
        assert_same(&base.clone().drop_attrs(&["y"]), &cat);
        assert_same(&base.clone().rename(&[("z", "b")]), &cat);
        assert_same(&base.clone().distinct_cols(&["b"]), &cat);
        assert_same(&base.distinct_rename(&[("z", "b")]), &cat);
    }

    #[test]
    fn xi_group_agrees(
        rows in prop::collection::vec((0i64..4, 0i64..6), 0..16),
    ) {
        let cat = Catalog::new();
        let expr = rel("b", "y", &rows).xi_group(
            &["b"],
            xi_cmds(&["<g k=\"", "$b", "\">"]),
            xi_cmds(&["<i>", "$y", "</i>"]),
            xi_cmds(&["</g>"]),
        );
        assert_same(&expr, &cat);
    }
}

/// All plans of all six paper workloads: engine output == spec output.
#[test]
fn engine_matches_spec_on_all_paper_plans() {
    use ordered_unnesting_workloads::*;

    let catalog = standard_catalog(25, 3, 11);
    for w in workloads() {
        let nested =
            xquery::compile(w.1, &catalog).unwrap_or_else(|e| panic!("[{}] compile: {e}", w.0));
        for plan in unnest::enumerate_plans(&nested, &catalog) {
            let (srows, sout) = spec(&plan.expr, &catalog);
            let (rows, output) = engine_run(&plan.expr, &catalog);
            assert_eq!(rows, srows, "[{} / {}] rows differ", w.0, plan.label);
            assert_eq!(output, sout, "[{} / {}] Ξ output differs", w.0, plan.label);
        }
    }
}

/// Minimal inline copy of the workload queries to avoid a dependency
/// cycle (engine ← umbrella). Kept in sync by the umbrella end-to-end
/// tests, which exercise the same strings via `ordered_unnesting`.
mod ordered_unnesting_workloads {
    pub fn workloads() -> Vec<(&'static str, &'static str)> {
        vec![
            (
                "q1",
                r#"let $d1 := doc("bib.xml")
                   for $a1 in distinct-values($d1//author)
                   return <author><name>{ $a1 }</name>{
                     let $d2 := doc("bib.xml")
                     for $b2 in $d2//book[$a1 = author]
                     return $b2/title
                   }</author>"#,
            ),
            (
                "q2",
                r#"let $d1 := doc("prices.xml")
                   for $t1 in distinct-values($d1//book/title)
                   let $m1 := min(let $d2 := doc("prices.xml")
                                  for $p2 in $d2//book[title = $t1]/price
                                  return decimal($p2))
                   return <minprice title="{ $t1 }"><price>{ $m1 }</price></minprice>"#,
            ),
            (
                "q3",
                r#"let $d1 := document("bib.xml")
                   for $t1 in $d1//book/title
                   where some $t2 in document("reviews.xml")//entry/title
                         satisfies $t1 = $t2
                   return <book-with-review>{ $t1 }</book-with-review>"#,
            ),
            (
                "q4",
                r#"let $d1 := doc("bib.xml")
                   for $b1 in $d1//book, $a1 in $b1/author
                   where exists(let $d2 := doc("bib.xml")
                                for $b2 in $d2//book, $a2 in $b2/author
                                where contains($a2, "an") and $b1 = $b2
                                return $b2)
                   return <book>{ $a1 }</book>"#,
            ),
            (
                "q5",
                r#"let $d1 := doc("bib.xml")
                   for $a1 in distinct-values($d1//author)
                   where every $b2 in doc("bib.xml")//book[author = $a1]
                         satisfies $b2/@year > 1993
                   return <new-author>{ $a1 }</new-author>"#,
            ),
            (
                "q6",
                r#"let $d1 := document("bids.xml")
                   for $i1 in distinct-values($d1//itemno)
                   where count($d1//bidtuple[itemno = $i1]) >= 3
                   return <popular-item>{ $i1 }</popular-item>"#,
            ),
        ]
    }
}

/// The engine must be *faster* than the spec evaluator on an unnested
/// grouping plan at moderate scale (sanity check of the hash operators).
#[test]
fn hash_grouping_beats_definitional_grouping() {
    let mut cat = Catalog::new();
    cat.register(gen_bib(&BibConfig {
        books: 300,
        authors_per_book: 3,
        ..Default::default()
    }));
    let q = r#"let $d1 := doc("bib.xml")
               for $a1 in distinct-values($d1//author)
               return <author><name>{ $a1 }</name>{
                 let $d2 := doc("bib.xml")
                 for $b2 in $d2//book[$a1 = author]
                 return $b2/title
               }</author>"#;
    let nested = xquery::compile(q, &cat).unwrap();
    let (best, _) = unnest::unnest_best(&nested, &cat);
    let t0 = std::time::Instant::now();
    let _ = engine_run(&best, &cat);
    let engine_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    let mut ctx = EvalCtx::new(&cat);
    let _ = eval_query(&nested, &mut ctx).unwrap();
    let nested_time = t1.elapsed();
    assert!(
        engine_time < nested_time,
        "unnested engine plan ({engine_time:?}) should beat the nested baseline ({nested_time:?})"
    );
}
