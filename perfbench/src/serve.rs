//! serve-rw: a release `xqd-server` child process, driven over one TCP
//! connection by a closed loop of queries and updates.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use service::{Json, QueryService, ServiceConfig, UpdateOp};
use xmldb::Catalog;

use crate::check::{self, Job, Response};
use crate::client::{Conn, Server};
use crate::docs::{self, DocText};
use crate::layers::{sample, Layers};
use crate::ops::{self, rotation_update, Op, ServeStream, TEMPLATES};
use crate::stats::{digest, Rng};
use crate::{Args, Run, SETUPS};

/// Later (query, state) pairs checked against the definitional
/// evaluator per run.
const LATER_SAMPLES: usize = 2;
/// Rotation updates sent by the warm-up pass.
const WARMUP_UPDATES: usize = 3;

/// Warm-up: every template once (cold plan cache, lazy index builds),
/// then one turn of the update rotation.
fn warmup_ops(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ 0x3a7e);
    let mut v: Vec<Op> = TEMPLATES
        .iter()
        .enumerate()
        .map(|(template, w)| Op::Query {
            template,
            text: w.query.to_string(),
        })
        .collect();
    v.extend((0..WARMUP_UPDATES).map(|k| Op::Update(rotation_update(k, &mut rng))));
    v
}

fn stat(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Embedded copies of the served state for the traced run: `proto` is
/// driven through `proto::handle_line`, `svc` through `QueryService`
/// calls plus the layer replay, and `mirror` is the raw catalog the
/// storage calls are timed on.
struct Replicas {
    proto: QueryService,
    svc: QueryService,
    mirror: Catalog,
}

impl Replicas {
    /// Load the documents and replay the warm-up ops, so every replica is
    /// in the state the server's timed loop starts from.
    fn new(docs: &[DocText], warm: &[Op]) -> Result<Replicas, String> {
        let load = || -> Result<QueryService, String> {
            let s = QueryService::new(ServiceConfig::default());
            for d in docs {
                s.load_xml(&d.uri, &d.xml).map_err(|e| e.to_string())?;
            }
            Ok(s)
        };
        let (proto, svc) = (load()?, load()?);
        for op in warm {
            service::proto::handle_line(&proto, &op.frame(), &mut |_| true);
            match op {
                Op::Query { text, .. } => svc.query(text).map(|_| ()),
                Op::Update(u) => svc.update(u).map(|_| ()),
            }
            .map_err(|e| e.to_string())?;
        }
        let mirror = Catalog::clone(&svc.snapshot());
        Ok(Replicas { proto, svc, mirror })
    }
}

pub fn run(args: &Args) -> Result<Run, String> {
    let mut run = Run::default();
    let warm = warmup_ops(args.seed);
    let mut responses: Vec<Response> = Vec::new();
    let mut base_seq = None;
    let mut session = None;
    for _ in 0..SETUPS {
        if let Some((server, mut conn, _, _)) = session.take() {
            Server::shutdown(server, &mut conn);
        }
        let t0 = Instant::now();
        let docs = docs::standard_texts();
        let server = Server::spawn(&args.server_bin)?;
        let mut conn = Conn::connect(&server.addr)?;
        for d in &docs {
            conn.request(&ops::load_frame(&d.uri, &d.xml))
                .map_err(|e| format!("load {}: {e}", d.uri))?;
        }
        let mut log: Vec<UpdateOp> = Vec::new();
        for op in &warm {
            run.attempted += 1;
            match op {
                Op::Query { template, text } => match conn.query(&op.frame()) {
                    Ok(r) => {
                        base_seq.get_or_insert(r.updates_seen);
                        responses.push(Response {
                            template: *template,
                            text: digest(text.as_bytes()),
                            state: r.updates_seen,
                            digest: digest(r.output.as_bytes()),
                        });
                    }
                    Err(e) => run.fail(format!("warm-up Q{}: {e}", template + 1)),
                },
                Op::Update(u) => match conn.request(&op.frame()) {
                    Ok(_) => log.push(u.clone()),
                    Err(e) => run.fail(format!("warm-up update: {e}")),
                },
            }
        }
        run.setup_s.push(t0.elapsed().as_secs_f64());
        session = Some((server, conn, docs, log));
    }
    let (server, mut conn, docs, mut log) = session.expect("at least one set-up");
    let base_seq = base_seq.ok_or("no warm-up query succeeded")?;
    let mut layers = args.trace.then(Layers::default);
    let mut replicas = None;
    if let Some(l) = layers.as_mut() {
        l.time_setup_parts(SETUPS);
        replicas = Some(Replicas::new(&docs, &warm)?);
    }
    let cfg = ServiceConfig::default();

    let stats0 = conn.request(r#"{"op":"stats"}"#)?;
    let mut stream = ServeStream::new(args.seed, WARMUP_UPDATES);
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let mut req = 0u64;
    while Instant::now() < deadline {
        let op = stream.next_op();
        let frame = op.frame();
        run.attempted += 1;
        let root = layers.as_mut().map(|l| l.tr().open("request", req, None));
        let t = Instant::now();
        let outcome = match &op {
            Op::Query { .. } => conn.query(&frame).map(Some),
            Op::Update(_) => conn.request(&frame).map(|_| None),
        };
        let el = t.elapsed();
        let ms = el.as_secs_f64() * 1e3;
        match (&op, outcome) {
            (Op::Query { template, text }, Ok(Some(r))) => {
                run.query_ms.push((*template, ms));
                run.first_item_ms
                    .push((*template, r.first_item.as_secs_f64() * 1e3));
                let d = digest(r.output.as_bytes());
                responses.push(Response {
                    template: *template,
                    text: digest(text.as_bytes()),
                    state: r.updates_seen,
                    digest: d,
                });
                if let (Some(l), Some(root), Some(rep)) = (layers.as_mut(), root, replicas.as_mut())
                {
                    let s = l.tr().now() - el.as_nanos() as u64;
                    l.tr().close("server.socket", req, Some(root), s);
                    let handle = handle(l, rep, &frame, req, root);
                    l.wire(el.as_secs_f64() * 1e6, handle, r.frames, r.bytes);
                    let s = l.tr().now();
                    let o = rep.svc.query(text).map_err(|e| e.to_string())?;
                    let span = l.tr().close("service.query", req, Some(root), s);
                    let total = l.tr().dur_us(span);
                    let snapshot = rep.svc.snapshot();
                    let rd = l.query(text, &snapshot, &cfg, (req, root), total, &o)?;
                    if rd != d || digest(o.output.as_bytes()) != d {
                        l.replay_mismatches += 1;
                    }
                }
            }
            (Op::Update(u), Ok(None)) => {
                run.update_ms.push((ops::update_kind(u), ms));
                log.push(u.clone());
                if let (Some(l), Some(root), Some(rep)) = (layers.as_mut(), root, replicas.as_mut())
                {
                    let s = l.tr().now() - el.as_nanos() as u64;
                    l.tr().close("server.socket", req, Some(root), s);
                    let handle = handle(l, rep, &frame, req, root);
                    l.wire(el.as_secs_f64() * 1e6, handle, 0, 0);
                    let s = l.tr().now();
                    rep.svc.update(u).map_err(|e| e.to_string())?;
                    l.tr().close("service.update", req, Some(root), s);
                    l.update(&mut rep.mirror, u, req, root)?;
                }
            }
            (_, Err(e)) => run.fail(e),
            _ => unreachable!("a query draws a query reply, an update an update reply"),
        }
        if let (Some(l), Some(root)) = (layers.as_mut(), root) {
            l.tr().end(root);
        }
        req += 1;
    }
    run.window_s = start.elapsed().as_secs_f64();
    run.timed_ops = req;

    let stats1 = conn.request(r#"{"op":"stats"}"#)?;
    run.peak_rss_mb = crate::stats::peak_rss_mb(&server.pid()).unwrap_or(0.0);
    run.live_snapshots_end = stat(&stats1, "live_snapshots") as u64;
    if let Some(l) = layers.as_mut() {
        let d = |k: &str| stat(&stats1, k) - stat(&stats0, k);
        let dq = d("queries").max(1.0);
        l.plan_hit_ratio = d("plan_hits") / dq;
        l.revalidations = d("cache_revalidations") / dq;
        l.evictions = d("cache_evictions") / dq;
        l.live_snapshots_end = stat(&stats1, "live_snapshots");
    }
    Server::shutdown(server, &mut conn);
    drop(replicas);

    // Reference outputs: every template on the initial catalog, plus a
    // seeded sample of later (query, state) pairs rebuilt on a replica.
    let initial = docs::parse_catalog(&docs);
    let doc_key = docs::state_key(&docs);
    let mut later: Vec<(u64, usize)> = responses
        .iter()
        .filter(|r| r.state > base_seq)
        .map(|r| (r.state, r.template))
        .collect();
    later.sort_unstable();
    later.dedup();
    let later = sample(&later, LATER_SAMPLES, &mut Rng::new(args.seed ^ 0xc4ec));
    let mut replicas_at: Vec<Arc<xmldb::CatalogSnapshot>> = Vec::new();
    for &(state, _) in &later {
        let n = (state - base_seq) as usize;
        let replica = QueryService::new(cfg);
        for d in &docs {
            replica
                .load_xml(&d.uri, &d.xml)
                .map_err(|e| e.to_string())?;
        }
        for u in &log[..n] {
            replica
                .update(u)
                .map_err(|e| format!("replica update: {e}"))?;
        }
        let snapshot = replica.snapshot();
        if snapshot.update_seq() != state {
            return Err(format!(
                "replica reached state {} instead of {state}",
                snapshot.update_seq()
            ));
        }
        replicas_at.push(snapshot);
    }
    let mut keys: Vec<(u64, usize)> = (0..TEMPLATES.len()).map(|t| (base_seq, t)).collect();
    let mut jobs: Vec<Job<'_>> = (0..TEMPLATES.len())
        .map(|t| Job {
            template: t,
            text: TEMPLATES[t].query.to_string(),
            catalog: &initial,
            state: doc_key,
        })
        .collect();
    for (&(state, template), snapshot) in later.iter().zip(&replicas_at) {
        let n = (state - base_seq) as usize;
        let frames: String = log[..n].iter().map(ops::update_frame).collect();
        keys.push((state, template));
        jobs.push(Job {
            template,
            text: TEMPLATES[template].query.to_string(),
            catalog: snapshot,
            state: digest(format!("{doc_key:016x}{frames}").as_bytes()),
        });
    }
    let memo = check::RefMemo::open(&args.out_dir);
    let t = Instant::now();
    let mut refs = HashMap::new();
    for ((state, template), r) in keys.into_iter().zip(memo.digests(&jobs)) {
        match r {
            Ok(d) => {
                refs.insert((state, digest(TEMPLATES[template].query.as_bytes())), d);
            }
            Err(e) => run
                .problems
                .push(format!("reference Q{} at state {state}: {e}", template + 1)),
        }
    }
    run.checked = refs.len();
    run.check_s = t.elapsed().as_secs_f64();
    run.judge(&responses, &refs);
    run.layers = layers;
    Ok(run)
}

/// Time `proto::handle_line` on the protocol replica into an in-memory
/// emitter; returns the span in µs.
fn handle(l: &mut Layers, rep: &Replicas, frame: &str, req: u64, root: usize) -> f64 {
    let s = l.tr().now();
    let mut sink = 0usize;
    service::proto::handle_line(&rep.proto, frame, &mut |f| {
        sink += f.len();
        true
    });
    std::hint::black_box(sink);
    let span = l.tr().close("proto.handle", req, Some(root), s);
    l.tr().dur_us(span)
}
