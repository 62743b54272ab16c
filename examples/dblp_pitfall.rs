//! The §5.1 DBLP pitfall: why Eqv. 5 carries an applicability condition.
//!
//! ```sh
//! cargo run --release --example dblp_pitfall
//! ```
//!
//! The grouping rewrite (the paper's Eqv. 5, Paparizos et al.'s grouping
//! transformation) replaces the *outer* sequence (`distinct-values
//! (//author)`) by the distinct authors found in the *inner* one
//! (`//book/author`). That is only correct when every author wrote a
//! book. On a DBLP-like document — where most authors appear only under
//! `article` or `inproceedings` — applying it silently **drops** authors
//! from the result. This example makes the bug observable: it runs the
//! sound plans, then simulates the unsound rewrite and diffs the outputs.

use ordered_unnesting::workloads::Q1_DBLP;
use unnest::driver::Rule;
use xmldb::gen::{gen_dblp, DblpConfig};
use xmldb::Catalog;

fn main() {
    let mut catalog = Catalog::new();
    catalog.register(gen_dblp(&DblpConfig {
        publications: 800,
        book_percent: 10,
        authors: 300,
        ..DblpConfig::default()
    }));

    let nested = xquery::compile(Q1_DBLP.query, &catalog).expect("compiles");
    let plans = unnest::enumerate_plans(&nested, &catalog);
    let labels: Vec<&str> = plans.iter().map(|p| p.label.as_str()).collect();
    println!("plans offered by the rewriter: {labels:?}");
    assert!(
        !labels.contains(&"grouping"),
        "the rewriter must refuse Eqv. 5 on the DBLP-like DTD"
    );

    let sound = engine::run_streaming_parallel(&engine::compile(&plans[0].expr), &catalog, 1)
        .expect("nested runs");
    let outer_join = plans
        .iter()
        .find(|p| p.label == "outer join")
        .expect("Eqv. 4 applies unconditionally");
    let oj = engine::run_streaming_parallel(&engine::compile(&outer_join.expr), &catalog, 1)
        .expect("outer join runs");
    assert_eq!(sound.output, oj.output);
    let authors_total = sound.output.matches("<author>").count();
    println!("sound plans agree: {authors_total} authors in the result");

    // Now simulate the unsound rewrite: force Eqv. 5's right-hand side by
    // dropping its applicability check — which is exactly applying Eqv. 5
    // where only Eqv. 4 is allowed. We reconstruct it from the outer-join
    // plan's own grouping subtree, then compare.
    let pruned = unnest::prune(&nested);
    let forced = force_eqv5(&pruned, &catalog);
    match forced {
        None => println!("(could not force the unsound shape — nothing to demonstrate)"),
        Some(bad) => {
            let bad_run = engine::run_streaming_parallel(&engine::compile(&bad), &catalog, 1)
                .expect("unsound plan still executes");
            let bad_authors = bad_run.output.matches("<author>").count();
            println!("unsound grouping plan returns {bad_authors} authors");
            assert!(
                bad_authors < authors_total,
                "the pitfall should drop authors"
            );
            println!(
                "→ {} authors silently dropped (those who never wrote a book).",
                authors_total - bad_authors
            );
            println!("This is the condition missing from Paparizos et al. that §5.1 calls out.");
        }
    }
}

/// Apply Eqv. 4 and then *illegitimately* strip the outer join, keeping
/// only the Γ-over-μD grouping — the Eqv. 5 right-hand side without its
/// precondition.
fn force_eqv5(pruned: &nal::Expr, catalog: &Catalog) -> Option<nal::Expr> {
    // The outer-join plan: Ξ(Π_drop(e1 ⟕ Γ(μD(e2)))).
    let (with_oj, _) = unnest::driver::apply_preferring(pruned, &[Rule::Eqv4], catalog);
    // Find the Γ subtree and splice it in place of the whole outer join,
    // renaming its key to the outer attribute — Eqv. 5's RHS.
    let mut replaced = None;
    let result = nal::expr::visit::rewrite_bottom_up(with_oj, &mut |e| match e {
        nal::Expr::Project {
            input,
            op: nal::ProjOp::Drop(_),
        } => match *input {
            nal::Expr::OuterJoin {
                left, right, pred, ..
            } => {
                // left provides a1; right is Γ_{t1;=a2';f}(μD(e2)).
                let nal::Expr::GroupUnary { by, .. } = right.as_ref() else {
                    return nal::Expr::Project {
                        input: Box::new(nal::Expr::OuterJoin {
                            left,
                            right,
                            pred,
                            g: nal::Sym::new("t"),
                            default: nal::Value::Null,
                        }),
                        op: nal::ProjOp::Drop(vec![]),
                    };
                };
                let a1 = nal::expr::attrs::attrs(&left)[0];
                let key = by[0];
                replaced = Some(());
                nal::Expr::Project {
                    input: right,
                    op: nal::ProjOp::Rename(vec![(a1, key)]),
                }
            }
            other => nal::Expr::Project {
                input: Box::new(other),
                op: nal::ProjOp::Drop(vec![]),
            },
        },
        other => other,
    });
    replaced.map(|_| result)
}
