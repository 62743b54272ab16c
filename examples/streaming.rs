//! The streaming executor on the §5.3 quantifier workload: run the
//! unnested plan, check its Ξ output is byte-identical to the reference
//! evaluator's (`nal::eval_query`) on the same plan, and show the
//! executor's short-circuit counters.
//!
//! ```sh
//! cargo run --release --example streaming
//! ```

use xmldb::gen::{gen_bib, gen_reviews, BibConfig, ReviewsConfig};
use xmldb::Catalog;

fn main() {
    let mut catalog = Catalog::new();
    catalog.register(gen_bib(&BibConfig {
        books: 400,
        authors_per_book: 3,
        ..BibConfig::default()
    }));
    catalog.register(gen_reviews(&ReviewsConfig {
        entries: 400,
        ..ReviewsConfig::default()
    }));

    // "Books with a review" — existential quantification (§5.3).
    let query = r#"
        let $d1 := document("bib.xml")
        for $t1 in $d1//book/title
        where some $t2 in document("reviews.xml")//entry/title
              satisfies $t1 = $t2
        return <book-with-review>{ $t1 }</book-with-review>"#;

    let nested = xquery::compile(query, &catalog).expect("query compiles");
    let (plan, _) = unnest::unnest_best(&nested, &catalog);

    let start = std::time::Instant::now();
    let mut ctx = nal::EvalCtx::new(&catalog);
    nal::eval_query(&plan, &mut ctx).expect("reference evaluation");
    let reference = ctx.take_output();
    let reference_elapsed = start.elapsed();
    let stream = engine::run_streaming_parallel(&engine::compile(&plan), &catalog, 1)
        .expect("streaming run");
    assert_eq!(
        reference, stream.output,
        "the executor must match the reference byte-for-byte"
    );

    println!("== §5.3 existential workload, unnested plan ==");
    println!("output bytes        : {}", stream.output.len());
    println!("reference evaluator : {reference_elapsed:>10.3?}");
    println!("streaming executor  : {:>10.3?}", stream.elapsed);
    println!(
        "probe tuples        : {} (nested-loop bound would be {})",
        stream.metrics.probe_tuples,
        400 * 400
    );
    println!("tuples per operator :");
    for (op, n) in &stream.metrics.op_tuples {
        println!("  {op:<14} {n}");
    }
}
