//! Quickstart: parse an XQuery, unnest it, run it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the full pipeline of the paper on a small generated document:
//! parse → normalize → translate into the NAL algebra → apply the
//! unnesting equivalences → execute, printing the plan before and after
//! and the speed difference.

use xmldb::gen::{gen_bib, BibConfig};
use xmldb::Catalog;

fn main() {
    // 1. A document catalog — here a generated bibliography; in an
    //    application you would parse files with `xmldb::parse_document`.
    let mut catalog = Catalog::new();
    catalog.register(gen_bib(&BibConfig {
        books: 500,
        authors_per_book: 3,
        ..BibConfig::default()
    }));

    // 2. A nested query: books grouped per author (XMP use case 1.1.9.4).
    let query = r#"
        let $d1 := doc("bib.xml")
        for $a1 in distinct-values($d1//author)
        return
          <author>
            <name>{ $a1 }</name>
            {
              let $d2 := doc("bib.xml")
              for $b2 in $d2//book[$a1 = author]
              return $b2/title
            }
          </author>"#;

    // 3. Compile to the algebra. The result is *nested*: the inner query
    //    block sits in a χ subscript and would be re-evaluated per author.
    let nested = xquery::compile(query, &catalog).expect("query compiles");
    println!("== nested (direct translation) ==");
    println!("{}", nal::expr::display::explain(&nested));

    // 4. Unnest. The rewriter checks the DTD-backed side conditions and
    //    picks the most restrictive applicable equivalence chain.
    let (unnested, trace) = unnest::unnest_best(&nested, &catalog);
    println!("== applied rewrites ==");
    for step in &trace.steps {
        println!("  • {step}");
    }
    println!("\n== unnested plan ==");
    println!("{}", nal::expr::display::explain(&unnested));

    // 5. Execute both with the physical engine and compare.
    let slow = engine::run_streaming_parallel(&engine::compile(&nested), &catalog, 1)
        .expect("nested plan runs");
    let fast = engine::run_streaming_parallel(&engine::compile(&unnested), &catalog, 1)
        .expect("unnested plan runs");
    assert_eq!(slow.output, fast.output, "plans must agree");

    println!("== results ==");
    println!("output bytes : {}", fast.output.len());
    println!(
        "nested plan  : {:>10.3?}  ({} document scans)",
        slow.elapsed, slow.metrics.doc_scans
    );
    println!(
        "unnested plan: {:>10.3?}  ({} document scans)",
        fast.elapsed, fast.metrics.doc_scans
    );
    let speedup = slow.elapsed.as_secs_f64() / fast.elapsed.as_secs_f64().max(1e-9);
    println!("speed-up     : {speedup:>10.1}×");
    println!(
        "\nfirst 300 output chars:\n{}",
        &fast.output[..fast.output.len().min(300)]
    );
}
