//! Use case R (§5.6): auction analytics with aggregation in the `where`
//! clause — SQL's HAVING, in XQuery clothing.
//!
//! ```sh
//! cargo run --release --example auction_analytics [-- <bids>]
//! ```
//!
//! Runs query 1.4.4.14 (items with ≥ 3 bids) plus a second analytics
//! query (minimum price per reviewed title) to show the same grouping
//! equivalence at work across documents.

use ordered_unnesting::workloads::{Q2_AGGREGATION, Q6_HAVING};
use xmldb::gen::standard_catalog;

fn run_workload(w: &ordered_unnesting::workloads::Workload, catalog: &xmldb::Catalog) {
    println!("── {} ({}) ──", w.id, w.paper_ref);
    let nested = xquery::compile(w.query, catalog).expect("compiles");
    let plans = unnest::enumerate_plans(&nested, catalog);
    let mut reference: Option<String> = None;
    for plan in &plans {
        let r = engine::run_streaming_parallel(&engine::compile(&plan.expr), catalog, 1)
            .expect("plan runs");
        match &reference {
            None => reference = Some(r.output.clone()),
            Some(expected) => assert_eq!(&r.output, expected, "plan {} differs", plan.label),
        }
        println!(
            "  {:<10} {:>12.3?}   {:>3} doc scans",
            plan.label, r.elapsed, r.metrics.doc_scans
        );
    }
    if let Some(out) = reference {
        let n = out.matches('<').count() / 2;
        println!("  → {n} result elements\n");
    }
}

fn main() {
    let bids: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1000);
    // items = bids / 5 (the paper's ratio), ~5 bids per item on average.
    let catalog = standard_catalog(bids, 3, 0xa0c1);

    println!("auction corpus: {bids} bids, {} items\n", bids / 5);
    run_workload(&Q6_HAVING, &catalog);
    run_workload(&Q2_AGGREGATION, &catalog);

    println!("The grouping plans compute each aggregate in one document scan;");
    println!("the nested plans re-count per item — the paper's having-clause story.");
}
