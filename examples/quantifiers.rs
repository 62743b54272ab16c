//! Quantifier unnesting (§5.3–§5.5): existential and universal
//! quantification turned into semijoins, anti-joins, and counting scans.
//!
//! ```sh
//! cargo run --release --example quantifiers [-- <scale>]
//! ```

use ordered_unnesting::workloads::{Q3_EXISTENTIAL, Q4_EXISTS, Q5_UNIVERSAL};
use xmldb::gen::standard_catalog;

fn main() {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(500);
    let catalog = standard_catalog(scale, 3, 0xbeef);

    for w in [&Q3_EXISTENTIAL, &Q4_EXISTS, &Q5_UNIVERSAL] {
        println!("── {} ({}) ──", w.id, w.paper_ref);
        let nested = xquery::compile(w.query, &catalog).expect("compiles");
        let plans = unnest::enumerate_plans(&nested, &catalog);
        let mut reference: Option<String> = None;
        for plan in &plans {
            let r = engine::run_streaming_parallel(&engine::compile(&plan.expr), &catalog, 1)
                .expect("plan runs");
            match &reference {
                None => reference = Some(r.output.clone()),
                Some(expected) => {
                    assert_eq!(&r.output, expected, "plan {} differs", plan.label)
                }
            }
            println!(
                "  {:<14} {:>12.3?}   {:>3} doc scans   {:>8} result bytes",
                plan.label,
                r.elapsed,
                r.metrics.doc_scans,
                r.output.len()
            );
        }
        println!();
    }
    println!("Existential quantifiers became ⋉ (Eqv. 6), universal ones ▷ (Eqv. 7),");
    println!("and the counting plans (Eqv. 8/9) need a single document scan.");
}
