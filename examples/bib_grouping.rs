//! The §5.1 grouping experiment in miniature: all four plans for XMP
//! query 1.1.9.4 (nested, outer join, grouping, group Ξ) side by side.
//!
//! ```sh
//! cargo run --release --example bib_grouping [-- <books> <authors-per-book>]
//! ```

use ordered_unnesting::workloads::Q1_GROUPING;
use xmldb::gen::{gen_bib, BibConfig};
use xmldb::Catalog;

fn main() {
    let mut args = std::env::args().skip(1);
    let books: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1000);
    let fanout: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);

    let mut catalog = Catalog::new();
    catalog.register(gen_bib(&BibConfig {
        books,
        authors_per_book: fanout,
        ..BibConfig::default()
    }));

    println!("XMP query 1.1.9.4 — grouping books by author");
    println!("document: bib.xml with {books} books × {fanout} authors\n");

    let nested = xquery::compile(Q1_GROUPING.query, &catalog).expect("compiles");
    let plans = unnest::enumerate_plans(&nested, &catalog);

    let mut reference: Option<String> = None;
    println!(
        "{:<12} {:>12} {:>10} {:>12}",
        "plan", "time", "doc scans", "out bytes"
    );
    for plan in &plans {
        let r = engine::run_streaming_parallel(&engine::compile(&plan.expr), &catalog, 1)
            .expect("plan runs");
        match &reference {
            None => reference = Some(r.output.clone()),
            Some(expected) => assert_eq!(&r.output, expected, "plan {} differs", plan.label),
        }
        println!(
            "{:<12} {:>12.3?} {:>10} {:>12}",
            plan.label,
            r.elapsed,
            r.metrics.doc_scans,
            r.output.len()
        );
    }
    println!(
        "\nAll {} plans produced byte-identical output — the paper's Table 5.1 shape:",
        plans.len()
    );
    println!("nested rescans the document per author; the others scan once or twice.");
}
