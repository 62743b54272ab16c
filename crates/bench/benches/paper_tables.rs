//! Criterion benches, one group per table of §5.
//!
//! Each group benchmarks every plan alternative of a paper query at a
//! Criterion-friendly scale (the full 100/1 000/10 000 sweeps live in the
//! `harness` binary; nested plans are quadratic and would blow Criterion's
//! budgets at 10 000).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bench_harness::plans_for;
use ordered_unnesting::workloads::{
    Workload, Q1_GROUPING, Q2_AGGREGATION, Q3_EXISTENTIAL, Q4_EXISTS, Q5_UNIVERSAL, Q6_HAVING,
};
use xmldb::gen::standard_catalog;

const SCALE: usize = 200;
const SEED: u64 = 42;

fn bench_workload(c: &mut Criterion, group_name: &str, w: &Workload) {
    let catalog = standard_catalog(SCALE, 2, SEED);
    let plans = plans_for(w, &catalog);
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    for (label, expr) in &plans {
        let plan = engine::compile(expr);
        group.bench_with_input(BenchmarkId::from_parameter(label), &plan, |b, plan| {
            b.iter(|| engine::run_streaming_parallel(plan, &catalog, 1).expect("plan runs"))
        });
    }
    group.finish();
}

fn q1_grouping(c: &mut Criterion) {
    bench_workload(c, "q1_grouping", &Q1_GROUPING);
}

fn q2_aggregation(c: &mut Criterion) {
    bench_workload(c, "q2_aggregation", &Q2_AGGREGATION);
}

fn q3_existential(c: &mut Criterion) {
    bench_workload(c, "q3_existential", &Q3_EXISTENTIAL);
}

fn q4_exists(c: &mut Criterion) {
    bench_workload(c, "q4_exists", &Q4_EXISTS);
}

fn q5_universal(c: &mut Criterion) {
    bench_workload(c, "q5_universal", &Q5_UNIVERSAL);
}

fn q6_having(c: &mut Criterion) {
    bench_workload(c, "q6_having", &Q6_HAVING);
}

/// The §5.1 group-size knob: grouping plan across authors-per-book.
fn q1_group_size_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("q1_group_size");
    group.sample_size(10);
    for &fanout in &[2usize, 5, 10] {
        let catalog = standard_catalog(SCALE, fanout, SEED);
        let plans = plans_for(&Q1_GROUPING, &catalog);
        for (label, expr) in &plans {
            if label == "nested" {
                continue; // quadratic; covered by the harness
            }
            let plan = engine::compile(expr);
            group.bench_with_input(BenchmarkId::new(label.clone(), fanout), &plan, |b, plan| {
                b.iter(|| engine::run_streaming_parallel(plan, &catalog, 1).expect("runs"))
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    q1_grouping,
    q2_aggregation,
    q3_existential,
    q4_exists,
    q5_universal,
    q6_having,
    q1_group_size_sweep
);
criterion_main!(benches);
