//! `engine` — the physical query engine (the repo's Natix stand-in).
//!
//! Compiles NAL expressions ([`nal::Expr`]) into physical operator trees
//! ([`PhysPlan`]) and executes them over a document catalog with one
//! streaming executor ([`pipeline`]). Equality
//! predicates run on hash-based, order-preserving operators (§2's
//! implementation discussion); everything else falls back to the
//! definitional forms. Nested scalar expressions — the hallmark of
//! *nested* plans — are evaluated per tuple with the reference
//! evaluator's machinery, which is precisely the nested-loop strategy the
//! paper's baseline measures.
//!
//! Differential tests (`tests/engine_vs_spec.rs`,
//! `tests/streaming_vs_materialized.rs`, the umbrella `tests/`
//! suite and the fuzz oracle) assert that every plan produces results
//! and Ξ output identical to the definitional evaluator,
//! [`nal::eval_query`].

#![warn(missing_docs)]

pub mod access;
pub mod explain;
pub mod key;
pub mod pipeline;
pub mod plan;

pub use access::{
    apply_indexes, for_each_access_path, join_recipe, revalidate_plan, AccessPathRef, AccessRecipe,
};
pub use explain::{run_streaming_traced_parallel, ExplainNode, ExplainReport};
pub use pipeline::par::apply_parallel;
pub use pipeline::{drain, Cursor};
pub use plan::{compile, JoinKind, PhysPlan};

use std::time::{Duration, Instant};

use nal::obs::ExecTrace;
use nal::{EvalCtx, EvalResult, Expr, Metrics, Seq, Tuple};
use xmldb::Catalog;

/// Result of running a query plan.
#[derive(Debug)]
pub struct QueryResult {
    /// The result sequence (identity output of Ξ-rooted plans).
    pub rows: Seq,
    /// The serialized Ξ output stream.
    pub output: String,
    /// Collected per-run counters.
    pub metrics: Metrics,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

/// Compile with index-backed access paths: [`compile`] followed by the
/// [`access::apply_indexes`] rewrite. Document-rooted path scans become
/// [`PhysPlan::IndexScan`]s and hash semi/anti joins over such scans
/// become [`PhysPlan::IndexJoin`]s wherever the conversion is provably
/// output-preserving; everything else compiles exactly as [`compile`].
pub fn compile_indexed(expr: &Expr, catalog: &Catalog) -> PhysPlan {
    access::apply_indexes(compile(expr), catalog)
}

/// Execute a compiled plan with the streaming executor ([`pipeline`]):
/// tuples flow one at a time, and semi/anti (quantifier) joins
/// short-circuit per probe tuple. `workers` is the degree of parallelism
/// for the plan's [`apply_parallel`] segments; output rows, Ξ bytes, and
/// summed metrics are identical at every degree, and degree 1 runs the
/// segments inline.
pub fn run_streaming_parallel(
    plan: &PhysPlan,
    catalog: &Catalog,
    workers: usize,
) -> EvalResult<QueryResult> {
    run_plan(plan, catalog, workers, false).map(|(result, _)| result)
}

/// The runner behind [`run_streaming_parallel`] and
/// [`run_streaming_traced_parallel`]: one execution, optionally traced.
fn run_plan(
    plan: &PhysPlan,
    catalog: &Catalog,
    workers: usize,
    traced: bool,
) -> EvalResult<(QueryResult, Option<ExecTrace>)> {
    let mut ctx = EvalCtx::new(catalog);
    ctx.parallel = workers.max(1);
    if traced {
        ctx.enable_trace();
    }
    let start = Instant::now();
    let rows = pipeline::execute_streaming(plan, &Tuple::empty(), &mut ctx)?;
    let elapsed = start.elapsed();
    let trace = ctx.take_trace();
    let result = QueryResult {
        rows,
        output: ctx.take_output(),
        metrics: ctx.metrics,
        elapsed,
    };
    Ok((result, trace))
}
