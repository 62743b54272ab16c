//! The embedded workloads: adhoc-param and scan-quantifiers drive a
//! `QueryService` in this process, timing each `QueryService::query`.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use service::{CacheOutcome, QueryService, ServiceConfig};

use crate::check::{self, Job, Response};
use crate::docs;
use crate::layers::Layers;
use crate::ops::{
    rotation_update, update_kind, AdhocStream, Op, ScanStream, QUANTIFIERS, TEMPLATES,
};
use crate::stats::{digest, Rng};
use crate::{Args, Run, SETUPS};

/// Updates timed on the probe service per run, spread evenly over the
/// timed window.
const PROBE_UPDATES: usize = 2000;
/// Consecutive blocks the probe's updates are grouped in. An insert or a
/// delete costs more the more updates came before it (0.44 ms for the
/// first, 0.67 ms around the 1700th at the seed), so each (kind, block)
/// is its own group and its latency floor is not taken from whichever
/// block the host happened to be quiet in.
const PROBE_BLOCKS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Adhoc,
    Scan,
}

fn config(kind: Kind) -> ServiceConfig {
    match kind {
        Kind::Adhoc => ServiceConfig::default(),
        // One worker: with two, the workers and the merging thread share
        // this box's two cores with everything else, and run-to-run spread
        // of the quantifier latencies grew past the benchmark's bounds.
        // `engine.parallel_gain` still measures the morsel rewrite of the
        // same plans at one and at two workers in the traced run.
        Kind::Scan => ServiceConfig {
            use_indexes: false,
            parallel_workers: 1,
            ..ServiceConfig::default()
        },
    }
}

enum Stream {
    Adhoc(AdhocStream),
    Scan(ScanStream),
}

impl Stream {
    fn next_op(&mut self) -> (usize, String) {
        let op = match self {
            Stream::Adhoc(s) => s.next_op(),
            Stream::Scan(s) => s.next_op(),
        };
        match op {
            Op::Query { template, text } => (template, text),
            Op::Update(_) => unreachable!("embedded streams only query"),
        }
    }

    /// One query of every template the workload uses.
    fn warmup(&mut self) -> Vec<(usize, String)> {
        match self {
            Stream::Adhoc(s) => (0..TEMPLATES.len())
                .map(|t| match s.instance(t) {
                    Op::Query { template, text } => (template, text),
                    Op::Update(_) => unreachable!(),
                })
                .collect(),
            Stream::Scan(_) => QUANTIFIERS
                .iter()
                .map(|&t| (t, TEMPLATES[t].query.to_string()))
                .collect(),
        }
    }
}

pub fn run(kind: Kind, args: &Args) -> Result<Run, String> {
    let cfg = config(kind);
    let mut stream = match kind {
        Kind::Adhoc => Stream::Adhoc(AdhocStream::new(args.seed)),
        Kind::Scan => Stream::Scan(ScanStream::new(args.seed)),
    };
    let mut run = Run::default();
    let mut layers = args.trace.then(Layers::default);
    let mut responses: Vec<Response> = Vec::new();
    let mut texts = BTreeMap::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        // Free the previous set-up before building the next one.
        drop(setup.take());
        let t0 = Instant::now();
        let docs = docs::standard_texts();
        let svc = QueryService::new(cfg);
        for d in &docs {
            svc.load_xml(&d.uri, &d.xml)
                .map_err(|e| format!("load {}: {e}", d.uri))?;
        }
        for (template, text) in stream.warmup() {
            run.attempted += 1;
            match svc.query(&text) {
                Ok(o) if kind == Kind::Scan => responses.push(Response {
                    template,
                    text: digest(text.as_bytes()),
                    state: 0,
                    digest: digest(o.output.as_bytes()),
                }),
                Ok(_) => {}
                Err(e) => run.fail(format!("warm-up Q{}: {e}", template + 1)),
            }
            texts.entry(digest(text.as_bytes())).or_insert(text);
        }
        run.setup_s.push(t0.elapsed().as_secs_f64());
        setup = Some((svc, docs));
    }
    let (svc, docs) = setup.expect("at least one set-up");
    if let Some(l) = layers.as_mut() {
        l.time_setup_parts(SETUPS);
    }

    // Update latency is timed on a second service with this workload's
    // configuration, warmed by one run of every template, so no timed
    // query reads a state the updates made. Its updates run between the
    // queries on an even schedule over the timed window, so their floors
    // sample the same phases of the host as the queries' do.
    let probe = QueryService::new(cfg);
    for d in &docs {
        probe
            .load_xml(&d.uri, &d.xml)
            .map_err(|e| format!("load {}: {e}", d.uri))?;
    }
    for w in TEMPLATES {
        probe
            .query(w.query)
            .map_err(|e| format!("probe warm-up: {e}"))?;
    }
    let mut mirror = layers.is_some().then(|| docs::parse_catalog(&docs));
    let mut rng = Rng::new(args.seed ^ 0x9b0e);
    let mut probed = 0usize;

    let stats0 = svc.stats();
    let mut non_miss = 0u64;
    let mut first_of: BTreeMap<usize, u64> = BTreeMap::new();
    let start = Instant::now();
    let window = Duration::from_secs(args.seconds);
    let deadline = start + window;
    let mut req = 0u64;
    let mut queries = 0u64;
    while Instant::now() < deadline {
        let (template, text) = stream.next_op();
        run.attempted += 1;
        queries += 1;
        let root = layers.as_mut().map(|l| l.tr().open("request", req, None));
        let t = Instant::now();
        let r = svc.query(&text);
        let el = t.elapsed();
        match r {
            Ok(o) => {
                let ms = el.as_secs_f64() * 1e3;
                run.query_ms.push((template, ms));
                // `query` returns every item at once: the first item
                // arrives with the last.
                run.first_item_ms.push((template, ms));
                if kind == Kind::Adhoc && o.cache != CacheOutcome::Miss {
                    non_miss += 1;
                }
                let d = digest(o.output.as_bytes());
                let text_id = digest(text.as_bytes());
                first_of.entry(template).or_insert(text_id);
                responses.push(Response {
                    template,
                    text: text_id,
                    state: 0,
                    digest: d,
                });
                if let (Some(l), Some(root)) = (layers.as_mut(), root) {
                    let s = l.tr().now() - el.as_nanos() as u64;
                    l.tr().close("service.query", req, Some(root), s);
                    let snapshot = svc.snapshot();
                    let rd = l.query(
                        &text,
                        &snapshot,
                        &cfg,
                        (req, root),
                        el.as_secs_f64() * 1e6,
                        &o,
                    )?;
                    if rd != d {
                        l.replay_mismatches += 1;
                    }
                }
                texts.entry(text_id).or_insert(text);
            }
            Err(e) => run.fail(format!("Q{}: {e}", template + 1)),
        }
        if let (Some(l), Some(root)) = (layers.as_mut(), root) {
            l.tr().end(root);
        }
        req += 1;

        let due =
            (PROBE_UPDATES as f64 * start.elapsed().as_secs_f64() / window.as_secs_f64()) as usize;
        while probed < due.min(PROBE_UPDATES) {
            let op = rotation_update(probed, &mut rng);
            let group = update_kind(&op) * PROBE_BLOCKS + probed * PROBE_BLOCKS / PROBE_UPDATES;
            probed += 1;
            run.attempted += 1;
            let root = layers.as_mut().map(|l| l.tr().open("request", req, None));
            let t = Instant::now();
            let r = probe.update(&op);
            let el = t.elapsed();
            match r {
                Ok(_) => run.update_ms.push((group, el.as_secs_f64() * 1e3)),
                Err(e) => run.fail(format!("probe update: {e}")),
            }
            if let (Some(l), Some(root), Some(m)) = (layers.as_mut(), root, mirror.as_mut()) {
                let s = l.tr().now() - el.as_nanos() as u64;
                l.tr().close("service.update", req, Some(root), s);
                l.update(m, &op, req, root)?;
                l.tr().end(root);
            }
            req += 1;
        }
    }
    run.window_s = start.elapsed().as_secs_f64();
    run.timed_ops = queries;

    let stats1 = svc.stats();
    run.peak_rss_mb = crate::stats::peak_rss_mb("self").unwrap_or(0.0);
    drop(probe);

    run.live_snapshots_end = stats1.live_snapshots;
    if let Some(l) = layers.as_mut() {
        let dq = (stats1.queries - stats0.queries).max(1) as f64;
        l.plan_hit_ratio = (stats1.plan_hits - stats0.plan_hits) as f64 / dq;
        l.revalidations = (stats1.cache.revalidations - stats0.cache.revalidations) as f64 / dq;
        l.evictions = (stats1.cache.evictions - stats0.cache.evictions) as f64 / dq;
        l.live_snapshots_end = stats1.live_snapshots as f64;
    }
    drop(svc);
    if non_miss > 0 {
        run.problems.push(format!(
            "{non_miss} adhoc-param requests were not plan-cache misses"
        ));
    }

    // Reference outputs: every template the workload ran, on the
    // (only) catalog state.
    let catalog = docs::parse_catalog(&docs);
    let state = docs::state_key(&docs);
    let chosen: Vec<(usize, u64)> = match kind {
        Kind::Scan => QUANTIFIERS
            .iter()
            .map(|&t| (t, digest(TEMPLATES[t].query.as_bytes())))
            .collect(),
        Kind::Adhoc => first_of.into_iter().collect(),
    };
    let jobs: Vec<Job<'_>> = chosen
        .iter()
        .map(|&(template, id)| Job {
            template,
            text: texts[&id].clone(),
            catalog: &catalog,
            state,
        })
        .collect();
    let memo = check::RefMemo::open(&args.out_dir);
    let t = Instant::now();
    let mut refs = HashMap::new();
    for ((template, id), r) in chosen.iter().zip(memo.digests(&jobs)) {
        match r {
            Ok(d) => {
                refs.insert((0, *id), d);
            }
            Err(e) => run
                .problems
                .push(format!("reference Q{}: {e}", template + 1)),
        }
    }
    run.checked = refs.len();
    run.check_s = t.elapsed().as_secs_f64();
    run.judge(&responses, &refs);
    run.layers = layers;
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn adhoc_texts_have_distinct_fingerprints_and_miss_the_cache() {
        let docs = docs::standard_texts();
        let svc = QueryService::new(config(Kind::Adhoc));
        for d in &docs {
            svc.load_xml(&d.uri, &d.xml).expect("documents load");
        }
        let mut stream = Stream::Adhoc(AdhocStream::new(5));
        let mut seen = HashSet::new();
        for _ in 0..150 {
            let (_, text) = stream.next_op();
            let o = svc.query(&text).expect("instance runs");
            assert_eq!(o.cache, CacheOutcome::Miss, "{text}");
            assert!(seen.insert(o.fingerprint), "fingerprint repeats for {text}");
        }
        // More distinct plans than the cache holds: the working set
        // exceeds it.
        assert!(svc.stats().cache.evictions > 0);
    }
}
