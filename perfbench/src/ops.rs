//! Seeded op streams of the three workloads.

use std::collections::HashSet;

use ordered_unnesting::workloads as w;
use service::{Json, UpdateOp};

use crate::stats::Rng;

/// Q1–Q10, in paper order.
pub const TEMPLATES: [&w::Workload; 10] = [
    &w::Q1_GROUPING,
    &w::Q2_AGGREGATION,
    &w::Q3_EXISTENTIAL,
    &w::Q4_EXISTS,
    &w::Q5_UNIVERSAL,
    &w::Q6_HAVING,
    &w::Q7_RANGE_SOME,
    &w::Q8_RANGE_EVERY,
    &w::Q9_COMPOSITE,
    &w::Q10_DEEP,
];

/// Indexes into [`TEMPLATES`] of the quantifier queries (Q3, Q4, Q5, Q7,
/// Q8, Q9, Q10).
pub const QUANTIFIERS: [usize; 7] = [2, 3, 4, 6, 7, 8, 9];

/// Share of serve-rw ops that are updates.
pub const UPDATE_SHARE: f64 = 0.2;

/// One request of a workload.
#[derive(Clone, Debug)]
pub enum Op {
    Query { template: usize, text: String },
    Update(UpdateOp),
}

impl Op {
    /// The wire frame of this op.
    pub fn frame(&self) -> String {
        match self {
            Op::Query { text, .. } => query_frame(text),
            Op::Update(op) => update_frame(op),
        }
    }
}

pub fn query_frame(text: &str) -> String {
    obj(&[("op", "query"), ("q", text)])
}

fn obj(fields: &[(&str, &str)]) -> String {
    Json::Obj(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), Json::str(*v)))
            .collect(),
    )
    .render()
}

pub fn update_frame(op: &UpdateOp) -> String {
    match op {
        UpdateOp::InsertXml { uri, parent, xml } => obj(&[
            ("op", "update"),
            ("kind", "insert"),
            ("uri", uri),
            ("parent", parent),
            ("xml", xml),
        ]),
        UpdateOp::DeleteFirst { uri, path } => obj(&[
            ("op", "update"),
            ("kind", "delete"),
            ("uri", uri),
            ("path", path),
        ]),
        UpdateOp::ReplaceText { uri, path, text } => obj(&[
            ("op", "update"),
            ("kind", "retext"),
            ("uri", uri),
            ("path", path),
            ("text", text),
        ]),
    }
}

pub fn load_frame(uri: &str, xml: &str) -> String {
    obj(&[("op", "load"), ("uri", uri), ("xml", xml)])
}

/// The `k`-th update of the serve-rw rotation: insert a book, delete the
/// first book, retext the first review title. Inserts and deletes
/// alternate, so `bib.xml` keeps its size.
pub fn rotation_update(k: usize, rng: &mut Rng) -> UpdateOp {
    use xmldb::gen::text;
    let pick = |rng: &mut Rng| rng.below(crate::docs::SCALE as u64) as usize;
    match k % 3 {
        0 => {
            let (t, a, p) = (pick(rng), pick(rng), pick(rng));
            let year = 1990 + rng.below(13);
            UpdateOp::InsertXml {
                uri: "bib.xml".to_string(),
                parent: "/bib".to_string(),
                xml: format!(
                    "<book year=\"{year}\"><title>{}</title><author><last>{}</last>\
                     <first>{}</first></author><publisher>{}</publisher>\
                     <price>{}</price></book>",
                    text::title(t),
                    text::last_name(a),
                    text::first_name(a),
                    text::publisher(p),
                    text::price(p, k as u64),
                ),
            }
        }
        1 => UpdateOp::DeleteFirst {
            uri: "bib.xml".to_string(),
            path: "/bib/book".to_string(),
        },
        _ => UpdateOp::ReplaceText {
            uri: "reviews.xml".to_string(),
            path: "/reviews/entry/title".to_string(),
            text: text::title(pick(rng)),
        },
    }
}

/// Deals items in shuffled rounds: each round holds every item once, so a
/// run's mix matches the round's up to the last, partial round and does
/// not drift with the seed.
struct Deck {
    rng: Rng,
    round: Vec<usize>,
    left: Vec<usize>,
}

impl Deck {
    fn new(seed: u64, round: Vec<usize>) -> Deck {
        Deck {
            rng: Rng::new(seed),
            round,
            left: Vec::new(),
        }
    }

    fn deal(&mut self) -> usize {
        if self.left.is_empty() {
            self.left = self.round.clone();
            for i in (1..self.left.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.left.swap(i, j);
            }
        }
        self.left.pop().expect("a round is never empty")
    }
}

/// Marks an update in the serve-rw deck.
const UPDATE: usize = usize::MAX;

/// Which rotation update `op` is (0 insert, 1 delete, 2 retext).
pub fn update_kind(op: &UpdateOp) -> usize {
    match op {
        UpdateOp::InsertXml { .. } => 0,
        UpdateOp::DeleteFirst { .. } => 1,
        UpdateOp::ReplaceText { .. } => 2,
    }
}

/// serve-rw: rounds of 25 ops, each template twice plus five updates
/// (80% queries uniform over Q1–Q10, 20% rotation updates).
pub struct ServeStream {
    deck: Deck,
    rng: Rng,
    updates: usize,
}

impl ServeStream {
    /// `updates_before` is the number of rotation updates already sent
    /// (by the warm-up pass), so the rotation continues where it stopped.
    pub fn new(seed: u64, updates_before: usize) -> ServeStream {
        let mut round: Vec<usize> = (0..TEMPLATES.len()).chain(0..TEMPLATES.len()).collect();
        let updates = (round.len() as f64 * UPDATE_SHARE / (1.0 - UPDATE_SHARE)).round() as usize;
        round.extend(std::iter::repeat_n(UPDATE, updates));
        ServeStream {
            deck: Deck::new(seed, round),
            rng: Rng::new(seed ^ 0x0b0c),
            updates: updates_before,
        }
    }

    pub fn next_op(&mut self) -> Op {
        match self.deck.deal() {
            UPDATE => {
                let op = rotation_update(self.updates, &mut self.rng);
                self.updates += 1;
                Op::Update(op)
            }
            template => Op::Query {
                template,
                text: TEMPLATES[template].query.to_string(),
            },
        }
    }
}

/// scan-quantifiers: uniform over the quantifier templates.
pub struct ScanStream {
    deck: Deck,
}

impl ScanStream {
    pub fn new(seed: u64) -> ScanStream {
        ScanStream {
            deck: Deck::new(seed, QUANTIFIERS.to_vec()),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let template = self.deck.deal();
        Op::Query {
            template,
            text: TEMPLATES[template].query.to_string(),
        }
    }
}

/// adhoc-param: every request instantiates a template with literals never
/// used before in the run, so no two texts share a fingerprint.
pub struct AdhocStream {
    deck: Deck,
    rng: Rng,
    seen: HashSet<String>,
}

/// `(pattern, occurrences)` each template instantiation replaces.
const SLOTS: [&[(&str, usize)]; 10] = [
    &[("author>", 2)],
    &[("minprice", 2)],
    &[("book-with-review", 2)],
    &[("\"an\"", 1)],
    &[("> 1993", 1)],
    &[(">= 3", 1)],
    &[("has-later-review", 2)],
    &[("> 5", 1)],
    &[("same-title-year", 2)],
    &[("> 1993", 1)],
];

impl AdhocStream {
    pub fn new(seed: u64) -> AdhocStream {
        AdhocStream {
            deck: Deck::new(seed, (0..TEMPLATES.len()).collect()),
            rng: Rng::new(seed ^ 0x11e5),
            seen: HashSet::new(),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let template = self.deck.deal();
        self.instance(template)
    }

    /// A fresh instance of `template`.
    pub fn instance(&mut self, template: usize) -> Op {
        for _ in 0..10_000 {
            let text = instantiate(template, &mut self.rng);
            if self.seen.insert(text.clone()) {
                return Op::Query { template, text };
            }
        }
        panic!("literal space of template {template} exhausted");
    }
}

fn decimal(rng: &mut Rng, lo: u64, hi: u64) -> String {
    let v = lo * 10_000 + rng.below((hi - lo) * 10_000);
    format!("{}.{:04}", v / 10_000, v % 10_000)
}

fn tag(rng: &mut Rng) -> String {
    (0..6)
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .fold(String::from("r-"), |mut s, c| {
            s.push(c);
            s
        })
}

/// Replace each literal slot of `template` with a seeded value:
/// comparison constants, the `contains()` needle, the `count()`
/// threshold, or — for templates without a literal — the result
/// constructor's element name.
fn instantiate(template: usize, rng: &mut Rng) -> String {
    let mut text = TEMPLATES[template].query.to_string();
    for &(pattern, count) in SLOTS[template] {
        assert_eq!(
            text.matches(pattern).count(),
            count,
            "Q{} slot",
            template + 1
        );
        let value = match template {
            0 => format!("{}>", tag(rng)),
            3 => {
                let len = 2 + rng.below(3) as usize;
                let needle: String = (0..len)
                    .map(|_| b"aeilnorst"[rng.below(9) as usize] as char)
                    .collect();
                format!("\"{needle}\"")
            }
            4 | 9 => format!("> {}", decimal(rng, 1990, 2002)),
            5 => format!(">= {}", decimal(rng, 1, 5)),
            7 => format!("> {}", decimal(rng, 0, 10)),
            _ => tag(rng),
        };
        text = text.replace(pattern, &value);
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(mut next: impl FnMut() -> Op, n: usize) -> Vec<String> {
        (0..n).map(|_| next().frame()).collect()
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = ServeStream::new(7, 3);
        let mut b = ServeStream::new(7, 3);
        let mut c = ServeStream::new(8, 3);
        let (sa, sb, sc) = (
            take(|| a.next_op(), 300),
            take(|| b.next_op(), 300),
            take(|| c.next_op(), 300),
        );
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
        let mut a = AdhocStream::new(7);
        let mut b = AdhocStream::new(7);
        assert_eq!(take(|| a.next_op(), 300), take(|| b.next_op(), 300));
        let mut a = ScanStream::new(7);
        let mut b = ScanStream::new(7);
        assert_eq!(take(|| a.next_op(), 300), take(|| b.next_op(), 300));
    }

    #[test]
    fn serve_mix_and_insert_delete_balance() {
        let mut s = ServeStream::new(11, 0);
        let ops: Vec<Op> = (0..5000).map(|_| s.next_op()).collect();
        let updates = ops.iter().filter(|o| matches!(o, Op::Update(_))).count();
        assert_eq!(updates, 1000, "one op in five is an update");
        let (mut inserts, mut deletes) = (0i64, 0i64);
        for op in &ops {
            match op {
                Op::Update(UpdateOp::InsertXml { .. }) => inserts += 1,
                Op::Update(UpdateOp::DeleteFirst { .. }) => deletes += 1,
                _ => {}
            }
            // At every prefix, bib.xml is at most one book larger.
            assert!((0..=1).contains(&(inserts - deletes)));
        }
        let mut seen = [false; 10];
        for op in &ops {
            if let Op::Query { template, .. } = op {
                seen[*template] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn every_slot_is_replaced() {
        let mut s = AdhocStream::new(1);
        for (t, template) in TEMPLATES.iter().enumerate() {
            let texts: HashSet<String> = (0..50)
                .map(|_| match s.instance(t) {
                    Op::Query { text, .. } => text,
                    Op::Update(_) => unreachable!(),
                })
                .collect();
            assert_eq!(texts.len(), 50, "Q{} instances repeat", t + 1);
            assert!(!texts.contains(template.query), "Q{} unchanged", t + 1);
        }
    }
}
