//! Recipe execution: the runtime side of the access-path IR.
//!
//! [`IndexJoinAccess`] resolves an [`AccessRecipe`] against the catalog
//! once per join and then answers each probe tuple. The serial join
//! cursor and the parallel workers call the same
//! [`IndexJoinAccess::probe_matches`], so probe semantics and
//! `index_lookups`/`index_hits` accounting are identical by
//! construction; `probe_tuples` counts examined candidates, matching
//! where the scan-based join cursors track it.

use std::borrow::Cow;
use std::ops::Bound;
use std::sync::Arc;

use nal::eval::scalar::{eval_scalar, truthy};
use nal::eval::{EvalCtx, EvalError, EvalResult};
use nal::{Sym, Tuple, Value};
use xmldb::{Catalog, CompositeEntry, CompositeValueIndex, NodeId, ValueIndex, ValueKey};

use crate::pipeline::scoped;

use super::recipe::{AccessRecipe, AncestorMode, BuildOp, Driver};
use super::{doc_id_of, probe_key_of};

/// The indexed nodes whose value the definitional `=` ([`nal::cmp_general`])
/// equates with the probe value `v`, in document order. Strings resolve
/// through the typed lookup, numbers through the numeric view (a number
/// equals every string that parses to it); booleans and sequences
/// compare with the stored strings by coercion rules no typed key
/// captures, so every indexed key is tested.
fn eq_candidates<'a>(vindex: &'a ValueIndex, v: &Value, catalog: &Catalog) -> Cow<'a, [NodeId]> {
    let key = probe_key_of(v, catalog);
    match key {
        ValueKey::Str(_) | ValueKey::Null => return Cow::Borrowed(vindex.get(&key)),
        ValueKey::Num(_) => return Cow::Borrowed(vindex.get_numeric(&key)),
        ValueKey::Bool(_) | ValueKey::Other(_) => {}
    }
    let mut nodes: Vec<NodeId> = vindex
        .iter()
        .filter(|(k, _)| key_equals(v, k, catalog))
        .flat_map(|(_, nodes)| nodes.iter().copied())
        .collect();
    nodes.sort_unstable();
    Cow::Owned(nodes)
}

/// Does the definitional `=` hold between the probe value `v` and the
/// indexed (string) key `k`?
fn key_equals(v: &Value, k: &ValueKey, catalog: &Catalog) -> bool {
    match k {
        ValueKey::Str(s) => nal::cmp_general(nal::CmpOp::Eq, v, &Value::str(s), catalog),
        _ => false,
    }
}

/// Resolved runtime state of one index-backed join: the document id and
/// the (composite) value index the recipe's driver probes.
pub struct IndexJoinAccess {
    doc: xmldb::DocId,
    vindex: Option<Arc<ValueIndex>>,
    cindex: Option<Arc<CompositeValueIndex>>,
}

impl IndexJoinAccess {
    /// Resolve the recipe's index through the catalog (building it
    /// lazily on first use).
    ///
    /// Recipes are declarative, so one compiled before a document
    /// update is still *correct* — the indexes resolved here are the
    /// delta-maintained (or lazily rebuilt) current ones. The recipe's
    /// epoch stamp is re-validated against the document's: when the
    /// document has advanced and the pattern no longer resolves (e.g.
    /// the URI was re-registered with structurally different content),
    /// the failure is reported as recipe staleness rather than as an
    /// unexplained resolution error.
    pub fn resolve(recipe: &AccessRecipe, ctx: &EvalCtx<'_>) -> EvalResult<IndexJoinAccess> {
        let doc = doc_id_of(&recipe.uri, ctx)?;
        let stale = ctx.catalog.epoch(doc) != recipe.epoch;
        let unresolvable = |what: &str| {
            if stale {
                EvalError::new(format!(
                    "stale access recipe: document `{}` was updated since the plan \
                     was compiled and {what} `{}` no longer resolves — recompile the plan",
                    recipe.uri, recipe.pattern
                ))
            } else {
                EvalError::new(format!(
                    "{what} `{}` is not index-resolvable",
                    recipe.pattern
                ))
            }
        };
        let (vindex, cindex) = match &recipe.driver {
            Driver::Composite { spec, .. } => {
                let idx = ctx
                    .catalog
                    .composite_index(doc, spec)
                    .ok_or_else(|| unresolvable("composite pattern"))?;
                (None, Some(idx))
            }
            _ => {
                let idx = ctx
                    .catalog
                    .value_index(doc, &recipe.pattern)
                    .ok_or_else(|| unresolvable("pattern"))?;
                (Some(idx), None)
            }
        };
        Ok(IndexJoinAccess {
            doc,
            vindex,
            cindex,
        })
    }

    /// Answer one probe tuple: does any build row reconstructed from the
    /// recipe's candidate entries match (pass the replayed pipeline and
    /// the residual)?
    ///
    /// Build rows reconstruct candidate by candidate in document order —
    /// the bucket order of the replaced hash join — so the first
    /// deciding row is the row the scan probe would have stopped at.
    pub fn probe_matches(
        &self,
        recipe: &AccessRecipe,
        lt: &Tuple,
        count_probes: bool,
        env: &Tuple,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<bool> {
        match &recipe.driver {
            Driver::Point { probe } => {
                let Some(v) = lt.get(*probe) else {
                    return Ok(false);
                };
                ctx.metrics.index_lookups += 1;
                let vindex = self.vindex.as_ref().expect("point driver");
                let candidates = eq_candidates(vindex, v, ctx.catalog);
                if candidates.is_empty() {
                    return Ok(false);
                }
                ctx.metrics.index_hits += 1;
                self.decide_from_candidates(recipe, lt, &candidates, count_probes, env, ctx)
            }
            Driver::Composite { probes, .. } => {
                // Every component must be present and matchable (a NULL
                // or NaN component matches nothing). An all-string probe
                // is one typed lookup; any other component type compares
                // with the stored strings by the algebra's coercion
                // rules, which no typed key captures, so every indexed
                // key is tested.
                let mut values: Vec<&Value> = Vec::with_capacity(probes.len());
                let mut key: Vec<ValueKey> = Vec::with_capacity(probes.len());
                for p in probes {
                    let Some(v) = lt.get(*p) else {
                        return Ok(false);
                    };
                    let k = probe_key_of(v, ctx.catalog);
                    if !k.matchable() {
                        return Ok(false);
                    }
                    values.push(v);
                    key.push(k);
                }
                ctx.metrics.index_lookups += 1;
                let cindex = self.cindex.as_ref().expect("composite driver");
                let entries: Cow<'_, [CompositeEntry]> =
                    if key.iter().all(|k| matches!(k, ValueKey::Str(_))) {
                        Cow::Borrowed(cindex.get(&key))
                    } else {
                        let mut found: Vec<CompositeEntry> = cindex
                            .iter()
                            .filter(|(k, _)| {
                                k.iter()
                                    .zip(&values)
                                    .all(|(k, v)| key_equals(v, k, ctx.catalog))
                            })
                            .flat_map(|(_, entries)| entries.iter().cloned())
                            .collect();
                        found.sort_unstable();
                        Cow::Owned(found)
                    };
                if entries.is_empty() {
                    return Ok(false);
                }
                ctx.metrics.index_hits += 1;
                if !recipe.replays_rows() {
                    if count_probes {
                        ctx.metrics.probe_tuples += 1;
                    }
                    return Ok(true);
                }
                for entry in entries.iter() {
                    if self.candidate_matches(
                        recipe,
                        lt,
                        entry.primary,
                        &entry.members,
                        count_probes,
                        env,
                        ctx,
                    )? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Driver::Range { eq_probe, ranges } => {
                self.range_probe_matches(recipe, lt, *eq_probe, ranges, count_probes, env, ctx)
            }
        }
    }

    /// One **range** probe over the ordered key space: evaluate every
    /// conjunct's probe side once, seek the value index for candidate
    /// nodes, filter them by the remaining conjuncts (via
    /// [`nal::cmp_general`] against the candidate node — exactly the
    /// comparison the scan plan's predicate would run), and decide from
    /// the survivors like an equality probe.
    ///
    /// With `eq_probe` set (band conversions), the typed bucket lookup
    /// supplies the candidates and every range conjunct filters. Without
    /// it, the first conjunct whose probe key is a string or number
    /// drives a [`xmldb::ValueIndex::range`] seek (postings already
    /// merged into document order); a NULL/NaN side decides the tuple
    /// outright (those values satisfy no comparison); and if no side is
    /// rangeable (sequences, booleans), every indexed key is examined —
    /// still without ever executing the build side.
    #[allow(clippy::too_many_arguments)]
    fn range_probe_matches(
        &self,
        recipe: &AccessRecipe,
        lt: &Tuple,
        eq_probe: Option<Sym>,
        ranges: &[super::recipe::RangeProbe],
        count_probes: bool,
        env: &Tuple,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<bool> {
        let vindex = self.vindex.as_ref().expect("range driver");
        // The probe sides are pure and replay-safe by conversion; the
        // loop join evaluated them once per candidate row, so evaluating
        // them once per probe tuple is unobservable.
        let mut sides: Vec<(Value, nal::CmpOp)> = Vec::with_capacity(ranges.len());
        for rp in ranges {
            sides.push((eval_scalar(&rp.side, &scoped(env, lt), ctx)?, rp.op));
        }
        // Non-driving conjuncts filter at the node level — a candidate's
        // atomized value is its index key, so this is the scan plan's
        // predicate conjunct verbatim.
        let catalog = ctx.catalog;
        let doc = self.doc;
        let passes = |node: xmldb::NodeId, skip: Option<usize>| {
            sides.iter().enumerate().all(|(i, (v, op))| {
                Some(i) == skip
                    || nal::cmp_general(*op, v, &Value::Node(nal::NodeRef { doc, node }), catalog)
            })
        };
        // Fast path: no pipeline, no residual — existence alone decides,
        // so the key window streams lazily and stops at the first
        // passing candidate (the range analogue of the hash probe's
        // first-bucket-row short-circuit).
        let fast = !recipe.replays_rows();
        let candidates: Vec<xmldb::NodeId> = if let Some(p) = eq_probe {
            let Some(v) = lt.get(p) else {
                return Ok(false);
            };
            ctx.metrics.index_lookups += 1;
            let posting = eq_candidates(vindex, v, ctx.catalog);
            if fast {
                let found = posting.iter().any(|&n| passes(n, None));
                if found {
                    ctx.metrics.index_hits += 1;
                    if count_probes {
                        ctx.metrics.probe_tuples += 1;
                    }
                }
                return Ok(found);
            }
            posting
                .iter()
                .copied()
                .filter(|&n| passes(n, None))
                .collect()
        } else {
            let mut driver: Option<usize> = None;
            let mut keys: Vec<ValueKey> = Vec::with_capacity(sides.len());
            for (i, (v, _)) in sides.iter().enumerate() {
                let k = probe_key_of(v, ctx.catalog);
                if matches!(k, ValueKey::Null) {
                    // NULL (and NaN, which canonicalizes to NULL)
                    // satisfies no comparison: the conjunction is false
                    // for every build row.
                    return Ok(false);
                }
                if driver.is_none() && matches!(k, ValueKey::Num(_) | ValueKey::Str(_)) {
                    driver = Some(i);
                }
                keys.push(k);
            }
            // The first string/numeric side drives the index seek; if no
            // side is rangeable (sequences, booleans), every indexed key
            // is examined — still without executing the build side.
            let (lo, hi) = match driver {
                Some(i) => {
                    let key = &keys[i];
                    match sides[i].1 {
                        nal::CmpOp::Eq => (Bound::Included(key), Bound::Included(key)),
                        nal::CmpOp::Lt => (Bound::Excluded(key), Bound::Unbounded),
                        nal::CmpOp::Le => (Bound::Included(key), Bound::Unbounded),
                        nal::CmpOp::Gt => (Bound::Unbounded, Bound::Excluded(key)),
                        nal::CmpOp::Ge => (Bound::Unbounded, Bound::Included(key)),
                        nal::CmpOp::Ne => unreachable!("≠ never converts to a range probe"),
                    }
                }
                None => (Bound::Unbounded, Bound::Unbounded),
            };
            ctx.metrics.index_lookups += 1;
            if fast {
                let found = vindex.range_iter(lo, hi).any(|n| passes(n, driver));
                if found {
                    ctx.metrics.index_hits += 1;
                    if count_probes {
                        ctx.metrics.probe_tuples += 1;
                    }
                }
                return Ok(found);
            }
            // Residual/pipeline path: materialize the surviving window
            // and merge it back into document order, so rows reconstruct
            // in exactly the build order the scan join examined.
            let mut nodes: Vec<xmldb::NodeId> = vindex
                .range_iter(lo, hi)
                .filter(|&n| passes(n, driver))
                .collect();
            nodes.sort_unstable();
            nodes
        };
        if candidates.is_empty() {
            return Ok(false);
        }
        ctx.metrics.index_hits += 1;
        self.decide_from_candidates(recipe, lt, &candidates, count_probes, env, ctx)
    }

    /// Decide a probe from its candidate nodes (already restricted to
    /// the matching key set, in document order). Fast path: no pipeline,
    /// no residual — existence is decided by the candidate list alone
    /// (one candidate "examined", mirroring the scan probes' first-row
    /// short-circuit). Otherwise candidates reconstruct build rows in
    /// document order and the first passing row decides.
    fn decide_from_candidates(
        &self,
        recipe: &AccessRecipe,
        lt: &Tuple,
        candidates: &[xmldb::NodeId],
        count_probes: bool,
        env: &Tuple,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<bool> {
        if !recipe.replays_rows() {
            if count_probes {
                ctx.metrics.probe_tuples += 1;
            }
            return Ok(true);
        }
        for &node in candidates {
            if self.candidate_matches(recipe, lt, node, &[], count_probes, env, ctx)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Reconstruct one candidate's build rows and test them against the
    /// residual; `true` as soon as one passes.
    #[allow(clippy::too_many_arguments)]
    fn candidate_matches(
        &self,
        recipe: &AccessRecipe,
        lt: &Tuple,
        node: xmldb::NodeId,
        members: &[xmldb::NodeId],
        count_probes: bool,
        env: &Tuple,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<bool> {
        let rows = self.rebuild_rows(recipe, node, members, env, ctx)?;
        for row in rows {
            if count_probes {
                ctx.metrics.probe_tuples += 1;
            }
            match &recipe.residual {
                None => return Ok(true),
                Some(p) => {
                    let joined = lt.concat(&row);
                    if truthy(p, &scoped(env, &joined), ctx)? {
                        return Ok(true);
                    }
                }
            }
        }
        Ok(false)
    }

    /// Reconstruct the build rows of one candidate: seed the key column,
    /// the doc/ancestor bindings (one chain per fixed walk, or one per
    /// matched assignment for variable-depth chains), and any composite
    /// member columns, then replay the recorded pipeline.
    fn rebuild_rows(
        &self,
        recipe: &AccessRecipe,
        node: xmldb::NodeId,
        members: &[xmldb::NodeId],
        env: &Tuple,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<Vec<Tuple>> {
        let doc = self.doc;
        let tree = ctx.catalog.doc(doc).clone();
        let mut base: Vec<(Sym, Value)> = Vec::with_capacity(recipe.doc_seeds.len() + 2);
        for &a in &recipe.doc_seeds {
            base.push((
                a,
                Value::Node(nal::NodeRef {
                    doc,
                    node: xmldb::NodeId::DOCUMENT,
                }),
            ));
        }
        if let Driver::Composite { member_attrs, .. } = &recipe.driver {
            for (&a, &n) in member_attrs.iter().zip(members) {
                base.push((a, Value::Node(nal::NodeRef { doc, node: n })));
            }
        }
        // One seed tuple per reconstructed ancestor chain.
        let mut seed_tuples: Vec<Tuple> = Vec::new();
        match &recipe.ancestors {
            AncestorMode::Fixed(list) => {
                let mut pairs = base;
                for (a, levels) in list {
                    let mut cur = node;
                    for _ in 0..*levels {
                        cur = tree.parent(cur).ok_or_else(|| {
                            EvalError::new("index join: candidate ancestor above document root")
                        })?;
                    }
                    pairs.push((*a, Value::Node(nal::NodeRef { doc, node: cur })));
                }
                pairs.push((recipe.key_attr, Value::Node(nal::NodeRef { doc, node })));
                seed_tuples.push(Tuple::from_pairs(pairs));
            }
            AncestorMode::Matched { attrs, spec } => {
                // One assignment per consistent placement of the chain's
                // bindings on the candidate's ancestor path, in build-row
                // order (outermost binding varies slowest).
                for assignment in xmldb::index::matched_assignments(&tree, node, spec) {
                    let mut pairs = base.clone();
                    for (&a, &n) in attrs.iter().zip(&assignment) {
                        pairs.push((a, Value::Node(nal::NodeRef { doc, node: n })));
                    }
                    pairs.push((recipe.key_attr, Value::Node(nal::NodeRef { doc, node })));
                    seed_tuples.push(Tuple::from_pairs(pairs));
                }
            }
        }
        let mut out: Vec<Tuple> = Vec::new();
        for seed in seed_tuples {
            let mut rows = vec![seed];
            for op in &recipe.ops {
                match op {
                    BuildOp::Map(attr, value) => {
                        let mut next = Vec::with_capacity(rows.len());
                        for t in rows {
                            let v = eval_scalar(value, &scoped(env, &t), ctx)?;
                            next.push(t.extend(*attr, v));
                        }
                        rows = next;
                    }
                    BuildOp::UnnestMap(attr, value) => {
                        let mut next = Vec::new();
                        for t in rows {
                            let v = eval_scalar(value, &scoped(env, &t), ctx)?;
                            for item in v.as_item_seq() {
                                next.push(t.extend(*attr, item));
                            }
                        }
                        rows = next;
                    }
                    BuildOp::Select(pred) => {
                        let mut next = Vec::with_capacity(rows.len());
                        for t in rows {
                            if truthy(pred, &scoped(env, &t), ctx)? {
                                next.push(t);
                            }
                        }
                        rows = next;
                    }
                    BuildOp::Project(op) => {
                        rows = crate::pipeline::project_rows(&rows, op, ctx);
                    }
                }
                if rows.is_empty() {
                    break;
                }
            }
            out.extend(rows);
        }
        Ok(out)
    }
}
