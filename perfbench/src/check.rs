//! Output checking against the paper's definitional evaluator
//! (`nal::eval_query` on the nested `xquery::compile` expression), run
//! outside every timed region.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use xmldb::Catalog;

use crate::stats::digest;

/// Digest of the nested plan's Ξ output for `text` on `catalog`.
pub fn nested_digest(text: &str, catalog: &Catalog) -> Result<u64, String> {
    let expr = xquery::compile(text, catalog).map_err(|e| format!("compile: {e}"))?;
    let mut ctx = nal::EvalCtx::new(catalog);
    nal::eval_query(&expr, &mut ctx).map_err(|e| format!("eval: {e}"))?;
    Ok(digest(ctx.take_output().as_bytes()))
}

/// Rough cost of the definitional evaluator per template at scale 1000
/// (ms, measured on a 2-core x86-64 box), used only to schedule the
/// longest evaluations first.
const NESTED_COST_MS: [u32; 10] = [1800, 380, 620, 5300, 1500, 230, 350, 660, 2000, 7400];

/// One reference to compute: a query text on a catalog state. `state`
/// names the state (the digest of the documents plus the updates applied)
/// for the on-disk memo.
pub struct Job<'a> {
    pub template: usize,
    pub text: String,
    pub catalog: &'a Catalog,
    pub state: u64,
}

/// Reference digests memoised on disk per benchmark executable: the
/// definitional evaluator takes seconds per query at scale 1000, and a
/// fixed (query, state) pair always yields the same output for the same
/// executable. Any rebuild changes the executable's digest and so starts
/// an empty memo.
pub struct RefMemo {
    path: PathBuf,
    known: Mutex<HashMap<(u64, u64), u64>>,
}

impl RefMemo {
    pub fn open(dir: &Path) -> RefMemo {
        let exe = std::env::current_exe()
            .and_then(std::fs::read)
            .map(|bytes| digest(&bytes))
            .unwrap_or(0);
        let path = dir.join(format!("refs-{exe:016x}.tsv"));
        let mut known = HashMap::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            for line in text.lines() {
                let f: Vec<u64> = line
                    .split('\t')
                    .filter_map(|x| u64::from_str_radix(x, 16).ok())
                    .collect();
                if let [state, q, d] = f[..] {
                    known.insert((state, q), d);
                }
            }
        }
        RefMemo {
            path,
            known: Mutex::new(known),
        }
    }

    /// Compute (or recall) every job's reference digest, on up to two
    /// threads, longest evaluations first.
    pub fn digests(&self, jobs: &[Job<'_>]) -> Vec<Result<u64, String>> {
        let key = |j: &Job<'_>| (j.state, digest(j.text.as_bytes()));
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(NESTED_COST_MS[jobs[i].template]));
        let out: Vec<Mutex<Option<Result<u64, String>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(2);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let job = &jobs[i];
                        let k = key(job);
                        let known = self.known.lock().expect("memo lock").get(&k).copied();
                        let r = match known {
                            Some(d) => Ok(d),
                            None => nested_digest(&job.text, job.catalog),
                        };
                        if let Ok(d) = r {
                            self.known.lock().expect("memo lock").insert(k, d);
                        }
                        *out[i].lock().expect("result slot") = Some(r);
                    }
                });
            }
        });
        self.save();
        out.into_iter()
            .map(|m| m.into_inner().expect("result slot").expect("every job ran"))
            .collect()
    }

    fn save(&self) {
        let known = self.known.lock().expect("memo lock");
        let mut text = String::new();
        for ((state, q), d) in known.iter() {
            text.push_str(&format!("{state:016x}\t{q:016x}\t{d:016x}\n"));
        }
        let tmp = self.path.with_extension("tmp");
        if std::fs::write(&tmp, text).is_ok() {
            let _ = std::fs::rename(&tmp, &self.path);
        }
    }
}

/// One checked response: which (query, state) it answered and what it
/// returned.
#[derive(Clone, Copy, Debug)]
pub struct Response {
    pub template: usize,
    pub text: u64,
    pub state: u64,
    pub digest: u64,
}

/// Indexes of responses that disagree with the reference for their
/// `(state, text)` (responses without a reference are not judged).
pub fn mismatches(responses: &[Response], refs: &HashMap<(u64, u64), u64>) -> Vec<usize> {
    responses
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(refs.get(&(r.state, r.text)), Some(&d) if d != r.digest))
        .map(|(i, _)| i)
        .collect()
}

/// Indexes of responses that disagree with an earlier response to the
/// same `(state, text)`: one state must always give one output.
pub fn inconsistent(responses: &[Response]) -> Vec<usize> {
    let mut first: HashMap<(u64, u64), u64> = HashMap::new();
    let mut bad = Vec::new();
    for (i, r) in responses.iter().enumerate() {
        let d = *first.entry((r.state, r.text)).or_insert(r.digest);
        if d != r.digest {
            bad.push(i);
        }
    }
    bad
}

/// The checker must catch a corrupted reference: flip one bit of a
/// reference that some response matched and expect a mismatch.
pub fn corruption_is_caught(responses: &[Response], refs: &HashMap<(u64, u64), u64>) -> bool {
    let Some(r) = responses
        .iter()
        .find(|r| refs.get(&(r.state, r.text)) == Some(&r.digest))
    else {
        return false;
    };
    let mut corrupted = refs.clone();
    corrupted.insert((r.state, r.text), r.digest ^ 1);
    !mismatches(responses, &corrupted).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docs;
    use crate::ops::TEMPLATES;

    fn resp(text: u64, state: u64, digest: u64) -> Response {
        Response {
            template: 0,
            text,
            state,
            digest,
        }
    }

    #[test]
    fn mismatches_and_corruption() {
        let rs = [resp(1, 0, 10), resp(2, 0, 20), resp(1, 5, 11)];
        let refs: HashMap<(u64, u64), u64> = [((0, 1), 10), ((0, 2), 20)].into();
        assert!(mismatches(&rs, &refs).is_empty());
        assert!(corruption_is_caught(&rs, &refs));
        let wrong: HashMap<(u64, u64), u64> = [((0, 2), 21)].into();
        assert_eq!(mismatches(&rs, &wrong), vec![1]);
        assert!(!corruption_is_caught(&rs, &HashMap::new()));
    }

    #[test]
    fn inconsistent_states_are_flagged() {
        let rs = [
            resp(1, 0, 10),
            resp(1, 0, 10),
            resp(1, 0, 12),
            resp(1, 1, 12),
        ];
        assert_eq!(inconsistent(&rs), vec![2]);
    }

    #[test]
    fn nested_reference_agrees_with_the_service_on_a_cheap_template() {
        let texts = docs::standard_texts();
        let catalog = docs::parse_catalog(&texts);
        let svc = service::QueryService::with_catalog(catalog.clone(), Default::default());
        // Q6 is the cheapest nested evaluation at scale 1000.
        let q = TEMPLATES[5].query;
        let served = svc.query(q).expect("Q6 runs");
        let reference = nested_digest(q, &catalog).expect("Q6 evaluates");
        assert_eq!(digest(served.output.as_bytes()), reference);
        assert_ne!(digest(served.output.as_bytes()) ^ 1, reference);
    }
}
