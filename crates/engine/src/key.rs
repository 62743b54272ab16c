//! Typed join/group keys.
//!
//! Hash operators need `Eq + Hash` keys whose equality coincides with the
//! algebra's `=` on atomized values ([`nal::cmp_atomic`]): numbers compare
//! numerically (`Int(2)` = `Dec(2.0)`), strings as strings, NULL matches
//! nothing. Within one of those classes typed key equality *is* the
//! definitional `=`. Across classes it is not — a number equals every
//! string that parses to it (`2 = "2"` and `2 = "2.0"`, yet
//! `"2" != "2.0"`), so no single key can hash both consistently. The
//! operators therefore stay exact by checking classes at run time: a
//! [`KeyTable`] probe whose key classes differ from the build side's
//! falls back to the definitional comparison over every build row, and
//! hash grouping falls back to the definitional grouping when its keys
//! mix classes.

use std::borrow::Cow;
use std::collections::HashMap;

use nal::{CmpOp, Sym, Tuple, Value};
use xmldb::Catalog;

/// One key component.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum KeyVal {
    /// NULL — carries "never equal" semantics via [`KeyVal::matchable`].
    Null,
    /// A boolean component.
    Bool(bool),
    /// Numeric values, unified across `Int`/`Dec` (total-order bits).
    Num(u64),
    /// A string component.
    Str(String),
    /// Sequences and other non-atomic leftovers, by canonical rendering.
    Other(String),
}

impl KeyVal {
    /// Build from an attribute value (atomizing nodes).
    pub fn from_value(v: &Value, catalog: &Catalog) -> KeyVal {
        match v.atomize(catalog) {
            Value::Null => KeyVal::Null,
            Value::Bool(b) => KeyVal::Bool(b),
            Value::Int(i) => KeyVal::num(i as f64),
            Value::Dec(d) => KeyVal::num(d.0),
            Value::Str(s) => KeyVal::Str(s.to_string()),
            other => KeyVal::Other(format!("{other}")),
        }
    }

    /// Numeric key component with `cmp_atomic`'s edge semantics: `NaN`
    /// behaves like NULL (matches nothing, not even another NaN) and
    /// `-0.0` canonicalizes to `0.0` (they are equal, so they must hash
    /// to one bucket).
    pub fn num(v: f64) -> KeyVal {
        if v.is_nan() {
            return KeyVal::Null;
        }
        let v = if v == 0.0 { 0.0 } else { v };
        KeyVal::Num(v.to_bits())
    }

    /// NULL keys never join/group with anything, including other NULLs.
    pub fn matchable(&self) -> bool {
        !matches!(self, KeyVal::Null)
    }

    /// The component's class bit. Two components of the same class other
    /// than [`OTHER`] are equal as keys iff they are equal under the
    /// definitional `=`; sequences ([`OTHER`]) compare existentially and
    /// never hash exactly.
    fn class(&self) -> u8 {
        match self {
            KeyVal::Null => 0,
            KeyVal::Bool(_) => 1,
            KeyVal::Num(_) => 2,
            KeyVal::Str(_) => 4,
            KeyVal::Other(_) => OTHER,
        }
    }
}

/// Class bit of [`KeyVal::Other`] components.
const OTHER: u8 = 8;

/// A composite key.
pub type Key = Vec<KeyVal>;

/// Extract the composite key of `attrs` from a tuple; `None` when any
/// component is NULL or missing (such tuples match nothing).
pub fn key_of(t: &Tuple, attrs: &[nal::Sym], catalog: &Catalog) -> Option<Key> {
    let mut key = Vec::with_capacity(attrs.len());
    for &a in attrs {
        let v = t.get(a)?;
        let kv = KeyVal::from_value(v, catalog);
        if !kv.matchable() {
            return None;
        }
        key.push(kv);
    }
    Some(key)
}

/// A value comparison with the signature of [`nal::cmp_general`] and
/// [`nal::cmp_atomic`] — the definitional `=` a [`KeyTable`] falls back to.
pub type ValueCmp = fn(CmpOp, &Value, &Value, &Catalog) -> bool;

/// Which build rows of a [`KeyTable`] a probe tuple has to examine.
#[derive(Clone, Copy, Debug)]
pub enum Probe {
    /// No build row can match.
    Miss,
    /// Exactly the rows of this bucket match on the key.
    Bucket(usize),
    /// Typed keys cannot decide (the probe's key classes differ from the
    /// build side's): every build row is compared definitionally.
    Scan,
}

/// The build side of the hash operators: rows bucketed by [`Key`] in
/// arrival order, answering probes exactly as the definitional `=` on
/// the key attributes would.
pub struct KeyTable {
    /// Build rows with a matchable key, in arrival order.
    rows: Vec<Tuple>,
    /// Bucket storage, arrival order within each bucket.
    buckets: Vec<Vec<Tuple>>,
    /// Key → bucket slot.
    index: HashMap<Key, usize>,
    /// Build-side key attributes.
    keys: Vec<Sym>,
    /// Per key component, the union of the build rows' class bits.
    classes: Vec<u8>,
    /// The definitional comparison a [`Probe::Scan`] applies per key pair.
    eq: ValueCmp,
}

impl KeyTable {
    /// Bucket `rows` by their `keys` values; rows with a NULL or missing
    /// key component match nothing and are dropped.
    pub fn build(rows: Vec<Tuple>, keys: &[Sym], eq: ValueCmp, catalog: &Catalog) -> KeyTable {
        let mut table = KeyTable {
            rows: Vec::with_capacity(rows.len()),
            buckets: Vec::new(),
            index: HashMap::with_capacity(rows.len()),
            keys: keys.to_vec(),
            classes: vec![0; keys.len()],
            eq,
        };
        for rt in rows {
            let Some(k) = key_of(&rt, keys, catalog) else {
                continue;
            };
            for (seen, c) in table.classes.iter_mut().zip(&k) {
                *seen |= c.class();
            }
            let slot = *table.index.entry(k).or_insert_with(|| {
                table.buckets.push(Vec::new());
                table.buckets.len() - 1
            });
            table.buckets[slot].push(rt.clone());
            table.rows.push(rt);
        }
        table
    }

    /// Resolve where `lt`'s matches are (`left_keys` pair up with the
    /// build keys positionally).
    pub fn probe(&self, lt: &Tuple, left_keys: &[Sym], catalog: &Catalog) -> Probe {
        let Some(k) = key_of(lt, left_keys, catalog) else {
            return Probe::Miss;
        };
        let exact = k.iter().zip(&self.classes).all(|(c, seen)| {
            let class = c.class();
            class != OTHER && seen & !class == 0
        });
        if !exact {
            return Probe::Scan;
        }
        match self.index.get(&k) {
            Some(&slot) => Probe::Bucket(slot),
            None => Probe::Miss,
        }
    }

    /// The first of `probe`'s matches at or after candidate position
    /// `pos`, with its position; matches come in build arrival order.
    pub fn next_match(
        &self,
        probe: Probe,
        pos: usize,
        lt: &Tuple,
        left_keys: &[Sym],
        catalog: &Catalog,
    ) -> Option<(usize, &Tuple)> {
        match probe {
            Probe::Miss => None,
            Probe::Bucket(slot) => self.buckets[slot].get(pos).map(|rt| (pos, rt)),
            Probe::Scan => self
                .rows
                .iter()
                .enumerate()
                .skip(pos)
                .find(|(_, rt)| self.keys_equal(lt, left_keys, rt, catalog)),
        }
    }

    /// All of `probe`'s matches, in build arrival order.
    pub fn matches(
        &self,
        probe: Probe,
        lt: &Tuple,
        left_keys: &[Sym],
        catalog: &Catalog,
    ) -> Cow<'_, [Tuple]> {
        match probe {
            Probe::Miss => Cow::Borrowed(&[]),
            Probe::Bucket(slot) => Cow::Borrowed(&self.buckets[slot]),
            Probe::Scan => Cow::Owned(
                self.rows
                    .iter()
                    .filter(|rt| self.keys_equal(lt, left_keys, rt, catalog))
                    .cloned()
                    .collect(),
            ),
        }
    }

    fn keys_equal(&self, lt: &Tuple, left_keys: &[Sym], rt: &Tuple, catalog: &Catalog) -> bool {
        left_keys
            .iter()
            .zip(&self.keys)
            .all(|(a, b)| match (lt.get(*a), rt.get(*b)) {
                (Some(l), Some(r)) => (self.eq)(CmpOp::Eq, l, r, catalog),
                _ => false,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nal::{Dec, Sym};

    fn cat() -> Catalog {
        Catalog::new()
    }

    #[test]
    fn numeric_unification() {
        let c = cat();
        assert_eq!(
            KeyVal::from_value(&Value::Int(2), &c),
            KeyVal::from_value(&Value::Dec(Dec(2.0)), &c)
        );
        assert_ne!(
            KeyVal::from_value(&Value::Int(2), &c),
            KeyVal::from_value(&Value::str("2"), &c),
            "strings stay strings (cmp_atomic only coerces when one side is numeric)"
        );
    }

    #[test]
    fn nan_and_negative_zero_mirror_cmp_atomic() {
        let c = cat();
        // NaN keys are unmatchable, like NULL (cmp_atomic: NaN never
        // satisfies any comparison).
        assert!(!KeyVal::from_value(&Value::Dec(Dec(f64::NAN)), &c).matchable());
        let t = Tuple::singleton(Sym::new("a"), Value::Dec(Dec(f64::NAN)));
        assert_eq!(key_of(&t, &[Sym::new("a")], &c), None);
        // -0.0 and 0.0 are one bucket (cmp_atomic: they are equal).
        assert_eq!(
            KeyVal::from_value(&Value::Dec(Dec(-0.0)), &c),
            KeyVal::from_value(&Value::Int(0), &c)
        );
    }

    #[test]
    fn null_is_unmatchable() {
        let c = cat();
        let t = Tuple::from_pairs(vec![
            (Sym::new("a"), Value::Int(1)),
            (Sym::new("b"), Value::Null),
        ]);
        assert!(key_of(&t, &[Sym::new("a")], &c).is_some());
        assert_eq!(key_of(&t, &[Sym::new("a"), Sym::new("b")], &c), None);
        assert_eq!(key_of(&t, &[Sym::new("missing")], &c), None);
    }

    #[test]
    fn mixed_class_probes_compare_definitionally() {
        let c = cat();
        let b = Sym::new("b");
        let rows = ["3", "3.00", "x"]
            .iter()
            .map(|v| Tuple::singleton(b, Value::str(v)))
            .collect();
        let table = KeyTable::build(rows, &[b], nal::cmp_general, &c);
        let a = Sym::new("a");
        let hits = |v: Value| {
            let lt = Tuple::singleton(a, v);
            let probe = table.probe(&lt, &[a], &c);
            table.matches(probe, &lt, &[a], &c).len()
        };
        // Same class: one typed bucket.
        assert_eq!(hits(Value::str("3")), 1);
        // A number equals both strings that parse to it, though they
        // differ from each other.
        assert_eq!(hits(Value::Dec(Dec(3.0))), 2);
        assert_eq!(hits(Value::Int(4)), 0);
        assert_eq!(hits(Value::Null), 0);
    }

    #[test]
    fn composite_keys_compare_componentwise() {
        let c = cat();
        let t1 = Tuple::from_pairs(vec![
            (Sym::new("a"), Value::Int(1)),
            (Sym::new("b"), Value::str("x")),
        ]);
        let t2 = Tuple::from_pairs(vec![
            (Sym::new("a"), Value::Dec(Dec(1.0))),
            (Sym::new("b"), Value::str("x")),
        ]);
        let ks = [Sym::new("a"), Sym::new("b")];
        assert_eq!(key_of(&t1, &ks, &c), key_of(&t2, &ks, &c));
    }
}
