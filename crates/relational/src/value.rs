//! Interned domain values.
//!
//! Every domain element (and every variable of a tableau — the paper does not
//! distinguish the two, a dependency simply *is* a pair of a tuple and a
//! finite relation) is an interned [`Value`] handle. A [`ValuePool`] owns the
//! metadata: a display name and, for typed universes, the *sort* — the unique
//! attribute whose domain the value belongs to. Sorts make the paper's
//! typedness restriction (`A ≠ B ⟹ DOM(A) ∩ DOM(B) = ∅`) machine-checked.
//!
//! # Named and fresh values
//!
//! A value interned by name ([`ValuePool::typed`], [`ValuePool::untyped`],
//! [`ValuePool::for_attr`]) stores that name and is found again through a
//! per-sort name map. A value minted by [`ValuePool::fresh`] — the tableau
//! variables of normalization and the chase's nulls — stores only its
//! `(prefix, counter, sort)`: its name `"{prefix}{counter}"` is rendered the
//! first time [`ValuePool::name`] asks for it, and name lookups find it by
//! splitting a looked-up name into a prefix and a trailing counter. Minting
//! therefore builds no string and touches no hash map, and lookups by name
//! allocate nothing; every name, lookup and clash-dodge still behaves as if
//! each fresh name had been interned when its value was minted.

use crate::fx::FxHashMap;
use crate::universe::{AttrId, Typing, Universe};
use std::fmt::{self, Write};
use std::sync::{Arc, OnceLock};

/// An interned domain value (or tableau variable).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Value(pub u32);

impl Value {
    /// Raw interner index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// How a value's display name is formed.
#[derive(Clone)]
enum Name {
    /// Interned by this name.
    Given(Box<str>),
    /// Minted by `fresh`: the name is `"{prefixes[prefix]}{counter}"`,
    /// rendered on first request.
    Fresh {
        prefix: u32,
        counter: u32,
        text: OnceLock<Box<str>>,
    },
}

/// Marks a fresh counter that was skipped to dodge a name clash.
const NO_VALUE: Value = Value(u32::MAX);

/// Owner of value metadata for one universe.
#[derive(Clone)]
pub struct ValuePool {
    universe: Arc<Universe>,
    names: Vec<Name>,
    sorts: Vec<Option<AttrId>>,
    /// Named values, one map per sort slot (see [`sort_slot`]).
    named: Vec<FxHashMap<Box<str>, Value>>,
    /// Distinct fresh-value prefixes, indexed by `Name::Fresh::prefix`
    /// (a pool mints under a handful, so they are found by a scan).
    prefixes: Vec<Box<str>>,
    /// Some prefix is another one followed by digits (`"x"` and `"x1"`),
    /// so two fresh names can coincide (`"x11"`) and minting must check.
    digit_prefixes: bool,
    /// The fresh value minted at each counter (index 0 unused).
    by_counter: Vec<Value>,
    /// Reused buffer for candidate fresh names.
    scratch: String,
}

/// `true` if `long` is `short` followed by a counter's leading digits
/// (nonempty, no leading zero).
fn extends_by_digits(short: &str, long: &str) -> bool {
    long.strip_prefix(short).is_some_and(|rest| {
        !rest.is_empty() && !rest.starts_with('0') && rest.bytes().all(|b| b.is_ascii_digit())
    })
}

/// Index of `sort`'s name map: 0 for unsorted values, `a + 1` for sort `a`.
fn sort_slot(sort: Option<AttrId>) -> usize {
    sort.map_or(0, |a| a.index() + 1)
}

impl ValuePool {
    /// Creates an empty pool for `universe`.
    pub fn new(universe: Arc<Universe>) -> Self {
        Self {
            universe,
            names: Vec::new(),
            sorts: Vec::new(),
            named: Vec::new(),
            prefixes: Vec::new(),
            digit_prefixes: false,
            by_counter: vec![NO_VALUE],
            scratch: String::new(),
        }
    }

    /// The universe this pool belongs to.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.universe
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if no value has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    fn push(&mut self, sort: Option<AttrId>, name: Name) -> Value {
        let v = Value(self.names.len() as u32);
        self.names.push(name);
        self.sorts.push(sort);
        v
    }

    /// The value named `name` of sort `sort`, or interns a new one.
    fn intern(&mut self, sort: Option<AttrId>, name: &str) -> Value {
        if let Some(v) = self.get(sort, name) {
            return v;
        }
        let v = self.push(sort, Name::Given(name.into()));
        let slot = sort_slot(sort);
        if self.named.len() <= slot {
            self.named.resize_with(slot + 1, FxHashMap::default);
        }
        self.named[slot].insert(name.into(), v);
        v
    }

    /// Interns a value of attribute `attr`'s domain in a **typed** universe.
    ///
    /// Repeated calls with the same `(attr, name)` return the same handle.
    ///
    /// # Panics
    /// Panics if the universe is untyped.
    pub fn typed(&mut self, attr: AttrId, name: &str) -> Value {
        assert_eq!(
            self.universe.typing(),
            Typing::Typed,
            "typed() requires a typed universe; use untyped()"
        );
        self.intern(Some(attr), name)
    }

    /// Interns a value of the shared domain in an **untyped** universe.
    ///
    /// # Panics
    /// Panics if the universe is typed.
    pub fn untyped(&mut self, name: &str) -> Value {
        assert_eq!(
            self.universe.typing(),
            Typing::Untyped,
            "untyped() requires an untyped universe; use typed()"
        );
        self.intern(None, name)
    }

    /// Interns a value appropriate for `attr` under the pool's discipline:
    /// sorted in typed universes, unsorted otherwise.
    pub fn for_attr(&mut self, attr: AttrId, name: &str) -> Value {
        match self.universe.typing() {
            Typing::Typed => self.typed(attr, name),
            Typing::Untyped => self.untyped(name),
        }
    }

    /// Allocates a brand-new value that is distinct from every existing one.
    ///
    /// In a typed universe the value is sorted by `attr`. Its name is
    /// `"{prefix}{counter}"` for the pool's next counter, skipping any
    /// counter whose name a value of the same sort already has. The name
    /// is not built here: [`ValuePool::name`] renders it on first request,
    /// and the interning and lookup methods find the value by that name
    /// from the moment it is minted.
    pub fn fresh(&mut self, attr: Option<AttrId>, prefix: &str) -> Value {
        let sort = match self.universe.typing() {
            Typing::Typed => Some(attr.expect("typed universes require a sort for fresh values")),
            Typing::Untyped => None,
        };
        let prefix_id = self.prefix_id(prefix);
        loop {
            let counter = u32::try_from(self.by_counter.len()).expect("fresh counter overflow");
            if self.name_taken(sort, prefix, counter) {
                self.by_counter.push(NO_VALUE);
                continue;
            }
            let v = self.push(
                sort,
                Name::Fresh {
                    prefix: prefix_id,
                    counter,
                    text: OnceLock::new(),
                },
            );
            self.by_counter.push(v);
            return v;
        }
    }

    /// `true` if a value of sort `sort` is already named
    /// `"{prefix}{counter}"`. Only a named value, or a fresh value whose
    /// prefix extends or truncates `prefix` by digits, can be: the name is
    /// built (into a reused buffer) only when one of those may exist.
    fn name_taken(&mut self, sort: Option<AttrId>, prefix: &str, counter: u32) -> bool {
        let named = self
            .named
            .get(sort_slot(sort))
            .is_some_and(|m| !m.is_empty());
        if !named && !self.digit_prefixes {
            return false;
        }
        let mut candidate = std::mem::take(&mut self.scratch);
        candidate.clear();
        write!(candidate, "{prefix}{counter}").expect("writing to a String cannot fail");
        let taken = self.get(sort, &candidate).is_some();
        self.scratch = candidate;
        taken
    }

    /// The id of fresh-name prefix `prefix`, registering it if new.
    fn prefix_id(&mut self, prefix: &str) -> u32 {
        if let Some(id) = self.prefixes.iter().rposition(|p| **p == *prefix) {
            return id as u32;
        }
        self.digit_prefixes |= self
            .prefixes
            .iter()
            .any(|p| extends_by_digits(p, prefix) || extends_by_digits(prefix, p));
        self.prefixes.push(prefix.into());
        (self.prefixes.len() - 1) as u32
    }

    /// The fresh value of sort `sort` whose name is `name`: each split of
    /// `name` into a prefix and a trailing counter (no leading zero) names
    /// at most the one value minted at that counter.
    fn get_fresh(&self, sort: Option<AttrId>, name: &str) -> Option<Value> {
        let bytes = name.as_bytes();
        let digits = bytes
            .iter()
            .rev()
            .take_while(|b| b.is_ascii_digit())
            .count();
        (bytes.len() - digits..bytes.len())
            .filter(|&k| bytes[k] != b'0')
            .find_map(|k| {
                let counter: usize = name[k..].parse().ok()?;
                let v = *self.by_counter.get(counter)?;
                match self.names.get(v.index())? {
                    Name::Fresh { prefix, .. }
                        if *self.prefixes[*prefix as usize] == name[..k]
                            && self.sorts[v.index()] == sort =>
                    {
                        Some(v)
                    }
                    _ => None,
                }
            })
    }

    /// Looks a value up without interning it. Finds fresh values by their
    /// name too.
    pub fn get(&self, sort: Option<AttrId>, name: &str) -> Option<Value> {
        self.named
            .get(sort_slot(sort))
            .and_then(|m| m.get(name).copied())
            .or_else(|| self.get_fresh(sort, name))
    }

    /// Display name of `v`.
    pub fn name(&self, v: Value) -> &str {
        match &self.names[v.index()] {
            Name::Given(name) => name,
            Name::Fresh {
                prefix,
                counter,
                text,
            } => {
                text.get_or_init(|| format!("{}{counter}", self.prefixes[*prefix as usize]).into())
            }
        }
    }

    /// Sort of `v` (`None` in untyped universes).
    pub fn sort(&self, v: Value) -> Option<AttrId> {
        self.sorts[v.index()]
    }

    /// `true` if `v` may legally appear in column `attr`.
    pub fn fits(&self, v: Value, attr: AttrId) -> bool {
        match self.sorts[v.index()] {
            None => true,
            Some(s) => s == attr,
        }
    }
}

impl fmt::Debug for ValuePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ValuePool({} values over {:?})", self.len(), self.universe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_interning_is_idempotent() {
        let u = Universe::typed_abcdef();
        let mut p = ValuePool::new(u.clone());
        let a1 = p.typed(u.a("A"), "a1");
        let a1_again = p.typed(u.a("A"), "a1");
        assert_eq!(a1, a1_again);
        assert_eq!(p.len(), 1);
        assert_eq!(p.name(a1), "a1");
        assert_eq!(p.sort(a1), Some(u.a("A")));
    }

    #[test]
    fn same_name_different_sorts_are_distinct() {
        let u = Universe::typed_abcdef();
        let mut p = ValuePool::new(u.clone());
        let va = p.typed(u.a("A"), "x");
        let vb = p.typed(u.a("B"), "x");
        assert_ne!(va, vb);
        assert!(p.fits(va, u.a("A")));
        assert!(!p.fits(va, u.a("B")));
    }

    #[test]
    fn untyped_values_fit_everywhere() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let a = p.untyped("a");
        assert!(p.fits(a, u.a("A'")));
        assert!(p.fits(a, u.a("C'")));
    }

    #[test]
    fn fresh_values_never_collide() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u);
        let named = p.untyped("n1");
        let f1 = p.fresh(None, "n");
        let f2 = p.fresh(None, "n");
        assert_ne!(f1, f2);
        assert_ne!(f1, named, "fresh must dodge existing names");
        assert_ne!(p.name(f1), p.name(named));
        assert_eq!((p.name(f1), p.name(f2)), ("n2", "n3"));
    }

    #[test]
    fn fresh_names_follow_one_counter_across_prefixes() {
        let u = Universe::typed_abcdef();
        let mut p = ValuePool::new(u.clone());
        let names: Vec<String> = [("x", "A"), ("y", "B"), ("y", "C"), ("z", "B"), ("y", "A")]
            .iter()
            .map(|&(prefix, attr)| {
                let v = p.fresh(Some(u.a(attr)), prefix);
                assert_eq!(p.sort(v), Some(u.a(attr)));
                p.name(v).to_string()
            })
            .collect();
        assert_eq!(names, ["x1", "y2", "y3", "z4", "y5"]);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn fresh_values_are_found_by_name() {
        let u = Universe::typed_abcdef();
        let mut p = ValuePool::new(u.clone());
        let (a, b) = (u.a("A"), u.a("B"));
        let f = p.fresh(Some(a), "y");
        assert_eq!(p.get(Some(a), "y1"), Some(f));
        assert_eq!(p.typed(a, "y1"), f);
        assert_eq!(p.for_attr(a, "y1"), f);
        assert_eq!(p.len(), 1, "looking a fresh value up interns nothing");
        assert_eq!(p.get(Some(b), "y1"), None, "other sorts have their own y1");
        assert_ne!(p.typed(b, "y1"), f);
        for near_miss in ["y01", "y", "y10", "x1", "1"] {
            assert_eq!(p.get(Some(a), near_miss), None, "{near_miss}");
        }

        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let f = p.fresh(None, "n");
        assert_eq!(p.get(None, "n1"), Some(f));
        assert_eq!(p.untyped("n1"), f);
        assert_eq!(p.for_attr(u.a("B'"), "n1"), f);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn fresh_dodges_same_sort_names_only() {
        let u = Universe::typed_abcdef();
        let mut p = ValuePool::new(u.clone());
        let (a, b) = (u.a("A"), u.a("B"));
        let other_sort = p.typed(b, "y1");
        let f1 = p.fresh(Some(a), "y");
        assert_eq!(
            p.name(f1),
            "y1",
            "a B-sorted y1 does not block an A-sorted one"
        );
        assert_ne!(f1, other_sort);
        let named = p.typed(a, "y2");
        let f3 = p.fresh(Some(a), "y");
        assert_eq!(p.name(f3), "y3", "an A-sorted y2 is skipped");
        assert_ne!(f3, named);
        assert_eq!(p.typed(a, "y2"), named);
    }

    #[test]
    fn fresh_dodges_names_of_digit_extended_prefixes() {
        // "x1" + 1 and "x" + 11 render alike: the second mint must skip.
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u);
        let first = p.fresh(None, "x1");
        assert_eq!(p.name(first), "x11");
        for _ in 2..=10 {
            p.fresh(None, "q");
        }
        let next = p.fresh(None, "x");
        assert_eq!(p.name(next), "x12");
        assert_eq!(p.get(None, "x11"), Some(first));
        assert_eq!(p.get(None, "x12"), Some(next));
    }

    #[test]
    #[should_panic(expected = "typed() requires a typed universe")]
    fn typed_on_untyped_universe_panics() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let _ = p.typed(u.a("A'"), "a");
    }

    #[test]
    fn get_does_not_intern() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u);
        assert!(p.get(None, "ghost").is_none());
        let v = p.untyped("ghost");
        assert_eq!(p.get(None, "ghost"), Some(v));
    }
}
