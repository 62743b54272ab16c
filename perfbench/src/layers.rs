//! The traced run: spans recorded from the benchmark's own code around
//! the public calls into each crate, kept in memory and written out when
//! the run ends, then folded into the per-layer metrics.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use engine::ExplainReport;
use nal::obs::Stage;
use service::{CacheOutcome, QueryOutcome, ServiceConfig, UpdateOp};
use xmldb::{Catalog, NodeId};

use crate::stats::{median, Rng};

/// A request's layer parts must add up to its untraced-path total within
/// this share of the total plus [`SUM_SLACK_US`].
pub const SUM_TOLERANCE: f64 = 0.25;
pub const SUM_SLACK_US: f64 = 250.0;

/// Every physical operator name `engine` reports, for the fixed list of
/// `engine.op.<op>.self_us` metrics (anything else lands in `other`).
pub const OPS: [&str; 32] = [
    "Singleton",
    "Literal",
    "AttrRel",
    "Select",
    "Project",
    "Map",
    "Cross",
    "HashJoin",
    "HashSemiJoin",
    "HashAntiJoin",
    "HashOuterJoin",
    "LoopJoin",
    "LoopSemiJoin",
    "LoopAntiJoin",
    "LoopOuterJoin",
    "HashGroup",
    "ThetaGroup",
    "HashNestJoin",
    "ThetaNestJoin",
    "Unnest",
    "UnnestMap",
    "Xi",
    "XiGroup",
    "IndexScan",
    "IndexSemiJoin",
    "IndexAntiJoin",
    "IndexCompositeSemiJoin",
    "IndexCompositeAntiJoin",
    "IndexRangeSemiJoin",
    "IndexRangeAntiJoin",
    "Parallel",
    "MorselFeed",
];

/// One span: a named interval, the span that caused it, and the request
/// it belongs to.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span that started at `start_ns` and ends now.
    pub fn close(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start_ns: u64,
    ) -> usize {
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Open a span that [`Tracer::end`] closes later (a parent whose
    /// children are recorded before it ends).
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let start = self.now();
        self.close(name, req, parent, start)
    }

    pub fn end(&mut self, i: usize) {
        self.spans[i].end_ns = self.now();
    }

    /// Time `f` as span `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let r = std::hint::black_box(f());
        self.close(name, req, parent, start);
        r
    }

    pub fn dur_us(&self, i: usize) -> f64 {
        let s = &self.spans[i];
        (s.end_ns - s.start_ns) as f64 / 1000.0
    }

    /// Mean duration of the spans called `name` (µs), so that the layer
    /// means of a request type add up like its spans do.
    fn mean_us(&self, name: &str) -> f64 {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(sum, n), s| {
                (sum + (s.end_ns - s.start_ns), n + 1)
            });
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64 / 1000.0
        }
    }

    /// Write every span as one JSON line to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut f)?;
        f.flush()
    }

    fn write_to(&self, f: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        Ok(())
    }
}

/// Counters gathered next to the spans.
#[derive(Default)]
pub struct Layers {
    pub tracer: Tracer,
    queries: u64,
    plans: u64,
    nested_chosen: u64,
    rows: u64,
    examined: u64,
    lookups: u64,
    hits: u64,
    exec1_ns: u128,
    exec2_ns: u128,
    op_self_us: BTreeMap<&'static str, f64>,
    /// (layer parts, untraced total) per query, µs.
    sums: Vec<(f64, f64)>,
    /// (traced path, untraced total) per query, µs.
    traced: Vec<(f64, f64)>,
    prepare_us: Vec<f64>,
    updates: u64,
    postings: u64,
    full_builds: u64,
    wire_us: Vec<f64>,
    frames: Vec<f64>,
    bytes: Vec<f64>,
    /// Service-level counters set by the workload at the end.
    pub plan_hit_ratio: f64,
    pub revalidations: f64,
    pub evictions: f64,
    pub live_snapshots_end: f64,
    setup_ms: [Vec<f64>; 3],
    /// Replayed outputs that differed from the service's.
    pub replay_mismatches: u64,
}

impl Layers {
    pub fn tr(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Time document generation, parsing and index builds (`xmldb`), the
    /// parts of set-up that grow with the data.
    pub fn time_setup_parts(&mut self, reps: usize) {
        for _ in 0..reps {
            let t = Instant::now();
            let texts = crate::docs::standard_texts();
            self.setup_ms[0].push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let catalog = crate::docs::parse_catalog(&texts);
            self.setup_ms[1].push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            catalog.prewarm_indexes();
            self.setup_ms[2].push(t.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// Record one query the service answered as `outcome` in `total_us`
    /// (the untraced path), and replay its layers on `catalog` under the
    /// span `root` of request `req`. Returns the replay's output digest.
    pub fn query(
        &mut self,
        text: &str,
        catalog: &Catalog,
        cfg: &ServiceConfig,
        (req, root): (u64, usize),
        total_us: f64,
        outcome: &QueryOutcome,
    ) -> Result<u64, String> {
        let trace = &outcome.trace;
        let prepare = trace
            .total_us
            .saturating_sub(trace.stage_us(Stage::Execute)) as f64;
        self.prepare_us.push(prepare);
        let r = replay(text, catalog, cfg, self.tr(), req, root)?;
        self.queries += 1;
        self.plans += r.plans as u64;
        self.nested_chosen += u64::from(r.nested);
        self.rows += r.metrics.0;
        self.examined += r.metrics.1;
        self.lookups += r.metrics.2;
        self.hits += r.metrics.3;
        self.exec1_ns += r.exec_ns.0;
        self.exec2_ns += r.exec_ns.1;
        for (op, us) in r.op_self_us {
            let key = OPS.iter().copied().find(|o| *o == op).unwrap_or("other");
            *self.op_self_us.entry(key).or_insert(0.0) += us;
        }
        // The layer parts on the path this request actually took, with
        // execution timed untraced (`sums`) and traced (`traced`).
        let before_exec = match outcome.cache {
            CacheOutcome::Hit | CacheOutcome::Revalidated => prepare,
            _ => r.frontend_us,
        };
        self.sums
            .push((before_exec + r.untraced_ns as f64 / 1000.0, total_us));
        self.traced.push((before_exec + r.execute_us, total_us));
        Ok(r.digest)
    }

    pub fn wire(&mut self, socket_us: f64, handle_us: f64, frames: usize, bytes: usize) {
        self.wire_us.push(socket_us - handle_us);
        self.frames.push(frames as f64);
        self.bytes.push(bytes as f64);
    }

    /// Apply `op` to the raw catalog `mirror` the way the service does,
    /// timing the target lookup (`xpath`) and the delta-maintaining
    /// catalog call (`xmldb`).
    pub fn update(
        &mut self,
        mirror: &mut Catalog,
        op: &UpdateOp,
        req: u64,
        root: usize,
    ) -> Result<(), String> {
        let before = mirror.index_maintenance_stats();
        let (uri, path) = match op {
            UpdateOp::InsertXml { uri, parent, .. } => (uri, parent),
            UpdateOp::DeleteFirst { uri, path } | UpdateOp::ReplaceText { uri, path, .. } => {
                (uri, path)
            }
        };
        let id = mirror.by_uri(uri).ok_or("unknown document")?;
        let parsed = xpath::parse_path(path).map_err(|e| format!("{e}"))?;
        let tr = self.tr();
        let target = tr.time("xpath.resolve", req, Some(root), || {
            let mut counters = xpath::EvalCounters::default();
            xpath::eval_path(mirror.doc(id), &[NodeId::DOCUMENT], &parsed, &mut counters)
                .into_iter()
                .next()
        });
        let mut target = target.ok_or("update target matches nothing")?;
        let start = tr.now();
        let r = match op {
            UpdateOp::InsertXml { xml, .. } => {
                let frag = xmldb::parse_document("fragment", xml).map_err(|e| format!("{e}"))?;
                let frag_root = frag.root_element().ok_or("empty fragment")?;
                let start = tr.now();
                let r = mirror
                    .insert_subtree(id, target, None, &frag, frag_root)
                    .map(|_| ());
                tr.close("xmldb.update", req, Some(root), start);
                r
            }
            UpdateOp::DeleteFirst { .. } => {
                let r = mirror.delete_subtree(id, target).map(|_| ());
                tr.close("xmldb.update", req, Some(root), start);
                r
            }
            UpdateOp::ReplaceText { text, .. } => {
                let doc = mirror.doc(id);
                if doc.kind(target).is_element() {
                    target = doc
                        .children(target)
                        .find(|&c| matches!(doc.kind(c), xmldb::NodeKind::Text))
                        .ok_or("element without text child")?;
                }
                let start = tr.now();
                let r = mirror.replace_text(id, target, text);
                tr.close("xmldb.update", req, Some(root), start);
                r
            }
        };
        r.map_err(|e| format!("{e}"))?;
        let after = mirror.index_maintenance_stats();
        self.updates += 1;
        self.postings += after.postings_total() - before.postings_total();
        self.full_builds += after.full_builds - before.full_builds;
        Ok(())
    }

    /// Fraction of replayed queries whose parts sum to their untraced
    /// total within the stated tolerance.
    pub fn within_tolerance(&self) -> f64 {
        if self.sums.is_empty() {
            return 0.0;
        }
        let ok = self
            .sums
            .iter()
            .filter(|(p, t)| (p - t).abs() <= SUM_TOLERANCE * t + SUM_SLACK_US)
            .count();
        ok as f64 / self.sums.len() as f64
    }

    /// The per-layer metrics, in `BENCHMARK.json` order: (name, value, unit).
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let tr = &self.tracer;
        let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let q = self.queries as f64;
        let mean = |xs: &[f64]| per(xs.iter().sum(), xs.len() as f64);
        let mut m: Vec<(String, f64, &'static str)> = Vec::new();
        let mut push = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
        for name in [
            "xquery.parse",
            "xquery.normalize",
            "xquery.fingerprint",
            "xquery.translate",
        ] {
            push(&format!("{name}_us"), tr.mean_us(name), "us");
        }
        push("unnest.enumerate_us", tr.mean_us("unnest.enumerate"), "us");
        push("unnest.rank_us", tr.mean_us("unnest.rank"), "us");
        push(
            "unnest.plans_enumerated",
            per(self.plans as f64, q),
            "count",
        );
        push(
            "unnest.nested_chosen",
            per(self.nested_chosen as f64, q),
            "frac",
        );
        push("engine.compile_us", tr.mean_us("engine.compile"), "us");
        push("engine.execute_us", tr.mean_us("engine.execute"), "us");
        for op in OPS.iter().copied().chain(["other"]) {
            let total = self.op_self_us.get(op).copied().unwrap_or(0.0);
            push(&format!("engine.op.{op}.self_us"), per(total, q), "us");
        }
        push(
            "engine.tuples_examined_per_row",
            per(self.examined as f64, self.rows as f64),
            "count",
        );
        push(
            "engine.index_lookups_per_row",
            per(self.lookups as f64, self.rows as f64),
            "count",
        );
        push(
            "engine.index_hit_ratio",
            per(self.hits as f64, self.lookups as f64),
            "frac",
        );
        push(
            "engine.parallel_gain",
            per(self.exec1_ns as f64, self.exec2_ns as f64),
            "ratio",
        );
        push(
            "xmldb.generate_ms",
            median(&self.setup_ms[0]).unwrap_or(0.0),
            "ms",
        );
        push(
            "xmldb.parse_ms",
            median(&self.setup_ms[1]).unwrap_or(0.0),
            "ms",
        );
        push(
            "xmldb.index_build_ms",
            median(&self.setup_ms[2]).unwrap_or(0.0),
            "ms",
        );
        push("xmldb.update_us", tr.mean_us("xmldb.update"), "us");
        push("xpath.resolve_us", tr.mean_us("xpath.resolve"), "us");
        let u = self.updates as f64;
        push(
            "xmldb.postings_per_update",
            per(self.postings as f64, u),
            "count",
        );
        push(
            "xmldb.full_builds",
            per(self.full_builds as f64, u),
            "1/update",
        );
        push("service.prepare_us", mean(&self.prepare_us), "us");
        push("service.plan_hit_ratio", self.plan_hit_ratio, "frac");
        push("service.revalidations", self.revalidations, "1/query");
        push("service.evictions", self.evictions, "1/query");
        push("service.publish_us", tr.mean_us("service.update"), "us");
        push(
            "service.live_snapshots_end",
            self.live_snapshots_end,
            "count",
        );
        push("proto.handle_us", tr.mean_us("proto.handle"), "us");
        push("server.wire_us", mean(&self.wire_us), "us");
        push("proto.frames_per_query", mean(&self.frames), "count");
        push("proto.bytes_per_query", mean(&self.bytes), "bytes");
        let overhead: Vec<f64> = self
            .traced
            .iter()
            .map(|(p, t)| per(p - t, *t) * 100.0)
            .collect();
        push("trace.overhead_pct", median(&overhead).unwrap_or(0.0), "%");
        push("trace.parts_within_tol", self.within_tolerance(), "frac");
        push(
            "trace.requests",
            tr.spans.iter().filter(|s| s.parent.is_none()).count() as f64,
            "count",
        );
        m
    }
}

/// What one layer-by-layer replay of a query measured.
struct Replayed {
    plans: usize,
    nested: bool,
    frontend_us: f64,
    execute_us: f64,
    /// rows, tuples examined, index lookups, index hits.
    metrics: (u64, u64, u64, u64),
    op_self_us: Vec<(String, f64)>,
    /// Untraced execute time at the service's degree.
    untraced_ns: u128,
    /// Untraced execute time of the plan's morsel rewrite at 1 and at 2
    /// workers.
    exec_ns: (u128, u128),
    digest: u64,
}

/// Run `text` through the same public calls the service makes — parse,
/// normalize, fingerprint, translate, enumerate, rank, compile, execute —
/// one span each.
fn replay(
    text: &str,
    catalog: &Catalog,
    cfg: &ServiceConfig,
    tr: &mut Tracer,
    req: u64,
    root: usize,
) -> Result<Replayed, String> {
    let p = Some(root);
    let start = tr.now();
    let parsed = tr
        .time("xquery.parse", req, p, || xquery::parse_query(text))
        .map_err(|e| format!("{e}"))?;
    let normalized = tr.time("xquery.normalize", req, p, || {
        xquery::normalize(&parsed, catalog)
    });
    tr.time("xquery.fingerprint", req, p, || {
        xquery::Fingerprint::of_normalized(&normalized)
    });
    let expr = tr
        .time("xquery.translate", req, p, || {
            xquery::translate(&normalized, catalog)
        })
        .map_err(|e| format!("{e}"))?;
    let candidates = tr.time("unnest.enumerate", req, p, || {
        unnest::enumerate_plans(&expr, catalog)
    });
    let plans = candidates.len();
    let ranked = tr.time("unnest.rank", req, p, || match cfg.calibration {
        Some(cal) => unnest::rank_plans_calibrated(candidates, catalog, cfg.use_indexes, cal),
        None => unnest::rank_plans_with(candidates, catalog, cfg.use_indexes),
    });
    let (choice, _) = ranked.into_iter().next().ok_or("no plan ranked")?;
    let plan = tr.time("engine.compile", req, p, || {
        let plan = if cfg.use_indexes {
            engine::compile_indexed(&choice.expr, catalog)
        } else {
            engine::compile(&choice.expr)
        };
        if cfg.parallel_workers > 1 {
            engine::apply_parallel(&plan)
        } else {
            plan
        }
    });
    let frontend_us = (tr.now() - start) as f64 / 1000.0;
    let workers = cfg.parallel_workers.max(1);
    let start = tr.now();
    let (result, trace) = engine::run_streaming_traced_parallel(&plan, catalog, workers)
        .map_err(|e| format!("{e}"))?;
    let exec = tr.close("engine.execute", req, p, start);
    let execute_us = tr.dur_us(exec);
    let report = ExplainReport::from_trace(&plan, &trace);
    let op_self_us = self_times(&report);
    let timed = |plan: &engine::PhysPlan, w: usize| -> Result<u128, String> {
        let t = Instant::now();
        engine::run_streaming_parallel(plan, catalog, w).map_err(|e| format!("{e}"))?;
        Ok(t.elapsed().as_nanos())
    };
    let untraced_ns = timed(&plan, workers)?;
    // The morsel rewrite of the same plan (a no-op on a rewritten one),
    // at one and at two workers.
    let par = engine::apply_parallel(&plan);
    let exec_ns = (timed(&par, 1)?, timed(&par, 2)?);
    let m = &result.metrics;
    Ok(Replayed {
        plans,
        nested: choice.label == "nested",
        frontend_us,
        execute_us,
        metrics: (
            result.rows.len() as u64,
            m.probe_tuples,
            m.index_lookups,
            m.index_hits,
        ),
        op_self_us,
        untraced_ns,
        exec_ns,
        digest: crate::stats::digest(result.output.as_bytes()),
    })
}

/// Exclusive time per operator: inclusive time minus the inclusive time
/// of its direct children (pre-order nodes with depths). The engine does
/// not time `Parallel` segments themselves, and operators inside one
/// report time summed over workers; an untimed segment is charged its
/// children's time, capped at its parent's inclusive time.
fn self_times(report: &ExplainReport) -> Vec<(String, f64)> {
    let nodes = &report.nodes;
    let children = |i: usize| {
        let depth = nodes[i].depth;
        nodes[i + 1..]
            .iter()
            .enumerate()
            .take_while(move |(_, c)| c.depth > depth)
            .filter(move |(_, c)| c.depth == depth + 1)
            .map(move |(k, _)| i + 1 + k)
    };
    let mut inclusive: Vec<u64> = nodes.iter().map(|n| n.elapsed_us).collect();
    for i in 0..nodes.len() {
        if nodes[i].op == "Parallel" && nodes[i].calls == 0 {
            let parent = (0..i).rev().find(|&p| nodes[p].depth + 1 == nodes[i].depth);
            let cap = parent.map_or(u64::MAX, |p| inclusive[p]);
            inclusive[i] = children(i)
                .map(|c| nodes[c].elapsed_us)
                .sum::<u64>()
                .min(cap);
        }
    }
    (0..nodes.len())
        .map(|i| {
            let below: u64 = children(i).map(|c| inclusive[c]).sum();
            (
                nodes[i].op.clone(),
                inclusive[i].saturating_sub(below) as f64,
            )
        })
        .collect()
}

/// Sample `k` distinct items of `xs` by seed.
pub fn sample<T: Clone>(xs: &[T], k: usize, rng: &mut Rng) -> Vec<T> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    let mut out = Vec::new();
    while out.len() < k && !idx.is_empty() {
        let i = rng.below(idx.len() as u64) as usize;
        out.push(xs[idx.swap_remove(i)].clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::explain::ExplainNode;

    fn node(depth: usize, op: &str, us: u64) -> ExplainNode {
        ExplainNode {
            depth,
            op: op.to_string(),
            node: 0,
            rows: 0,
            calls: 0,
            elapsed_us: us,
            index_lookups: 0,
            index_hits: 0,
            predicted_cost: None,
            workers: None,
        }
    }

    #[test]
    fn self_time_is_inclusive_minus_children() {
        let report = ExplainReport {
            nodes: vec![
                node(0, "Xi", 100),
                node(1, "HashSemiJoin", 80),
                node(2, "IndexScan", 30),
                node(2, "IndexScan", 20),
                node(1, "Select", 5),
            ],
        };
        let s = self_times(&report);
        assert_eq!(s[0], ("Xi".to_string(), 15.0));
        assert_eq!(s[1], ("HashSemiJoin".to_string(), 30.0));
        assert_eq!(s[2].1, 30.0);
        assert_eq!(s[4].1, 5.0);
    }

    #[test]
    fn untimed_parallel_segment_takes_its_childrens_time() {
        let mut par = node(1, "Parallel", 0);
        par.calls = 0;
        let report = ExplainReport {
            nodes: vec![
                node(0, "Xi", 300),
                par,
                node(2, "UnnestMap", 10),
                node(2, "LoopAntiJoin", 500),
                node(3, "Project", 20),
            ],
        };
        let s = self_times(&report);
        assert_eq!(s[0].1, 0.0);
        assert_eq!(s[1].1, 0.0);
        assert_eq!(s[3], ("LoopAntiJoin".to_string(), 480.0));
    }

    #[test]
    fn spans_nest_and_serialize() {
        let mut tr = Tracer::default();
        let root = tr.open("request", 7, None);
        tr.time("xquery.parse", 7, Some(root), || ());
        tr.end(root);
        assert!(tr.spans[1].start_ns >= tr.spans[0].start_ns);
        assert!(tr.spans[1].end_ns <= tr.spans[0].end_ns);
        let mut buf = Vec::new();
        tr.write_to(&mut buf).expect("spans written");
        let text = String::from_utf8(buf).expect("utf-8");
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            service::Json::parse(line).expect("each span is one JSON object");
        }
    }
}
