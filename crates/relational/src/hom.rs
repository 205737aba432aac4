//! Valuations and homomorphism (embedding) search.
//!
//! A *valuation* (Section 2.2) is a partial map on values; in typed
//! universes it preserves sorts. Dependency satisfaction, chase triggers,
//! tableau cores, and the paper's `T⁻¹` construction all reduce to one
//! primitive: enumerate the valuations `α` with `α(I) ⊆ J` for a list of
//! source rows `I` and a target relation `J`, optionally extending a fixed
//! partial valuation.
//!
//! # Compiled patterns and frames
//!
//! The search runs on a [`Pattern`]: the source rows compiled once into
//! dense *slot* ids, one per distinct source value, numbered by first
//! occurrence (row by row, column by column). A pattern stores its rows
//! flat, `width` slots per row, next to a slot → source-value table. A
//! dependency is compiled when it is loaded, so a chase that scans it every
//! round never hashes a source value again.
//!
//! An embedding in progress is a [`Frame`]: one `Vec<Value>` indexed by
//! slot, holding each bound slot's image (or [`UNBOUND`]), plus an undo
//! stack of the slots the search bound. Binding a slot is one store and
//! one push; backtracking pops the stack back to a mark and clears those
//! slots. The visitor receives the frame itself as `&[Value]`, so nothing
//! is allocated or hashed per embedding. Slots bound before the search
//! starts are its *seed* and are never unbound.
//!
//! # Search order
//!
//! The search is hash-join-shaped: source rows are placed
//! most-constrained-first ([`Pattern::scan_plan`]); at each level the
//! bound slots of the row select the shortest `(column, value) → rows`
//! posting of the target's [`ColumnIndex`] (or, for the semi-naive pinned
//! row, the delta itself) as the candidate list, and each candidate is
//! probed by comparing target cells column-wise against the frame.
//!
//! Slots change how bindings are stored, not which embeddings are tried or
//! in what order: plans, candidate lists, delta classes and [`ScanStats`]
//! depend only on which source values are bound and to what, so the
//! search emits the same embeddings in the same sequence as a search that
//! keeps its bindings on a `(value, image)` trail and builds a
//! [`Valuation`] per emission. A property test pins this against such a
//! trail search, kept as a test-only reference.
//!
//! The [`Valuation`]-based entry points ([`Embedder::for_each_embedding`],
//! [`Embedder::embeds`], …) compile their source rows and run the same
//! frame search; a [`Valuation`] is built only where an API hands one
//! out, in one buffer reused across emissions.

use crate::fx::FxHashMap;
use crate::relation::{ColumnIndex, Relation};
use crate::tuple::Tuple;
use crate::universe::AttrId;
use crate::value::Value;
use std::ops::ControlFlow;

/// A partial mapping from values to values.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Valuation {
    map: FxHashMap<Value, Value>,
}

impl Valuation {
    /// The empty valuation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a valuation from pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Value, Value)>) -> Self {
        Self {
            map: pairs.into_iter().collect(),
        }
    }

    /// The identity valuation on `values`.
    pub fn identity_on(values: impl IntoIterator<Item = Value>) -> Self {
        Self::from_pairs(values.into_iter().map(|v| (v, v)))
    }

    /// Image of `v`, if bound.
    #[inline]
    pub fn get(&self, v: Value) -> Option<Value> {
        self.map.get(&v).copied()
    }

    /// Binds `v ↦ w`. Returns the previous image, if any.
    pub fn bind(&mut self, v: Value, w: Value) -> Option<Value> {
        self.map.insert(v, w)
    }

    /// Removes the binding of `v`.
    pub fn unbind(&mut self, v: Value) {
        self.map.remove(&v);
    }

    /// Number of bound values.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(source, image)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Value, Value)> + '_ {
        self.map.iter().map(|(&a, &b)| (a, b))
    }

    /// Applies the valuation to a tuple — `α(w)`.
    ///
    /// # Panics
    /// Panics if some value of the tuple is unbound.
    pub fn apply_tuple(&self, t: &Tuple) -> Tuple {
        t.map(|v| {
            self.get(v)
                .unwrap_or_else(|| panic!("valuation undefined on {v:?}"))
        })
    }

    /// Applies the valuation to every row — `α(I)`.
    pub fn apply_rows(&self, rows: &[Tuple]) -> Vec<Tuple> {
        rows.iter().map(|t| self.apply_tuple(t)).collect()
    }

    /// Raw map access (for [`Relation::map`]).
    pub fn as_map(&self) -> &FxHashMap<Value, Value> {
        &self.map
    }
}

/// A set of target-row positions used to restrict embedding search: the
/// semi-naive chase's *delta* (rows added or rewritten since a dependency
/// was last checked).
#[derive(Clone, Debug, Default)]
pub struct RowDelta {
    sorted: Vec<u32>,
}

impl RowDelta {
    /// Builds a delta from row positions (deduplicated, kept sorted).
    pub fn from_ids(mut ids: Vec<u32>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        Self { sorted: ids }
    }

    /// Number of delta rows.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if the delta is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Membership test (binary search on the sorted positions).
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.sorted.binary_search(&id).is_ok()
    }

    /// The positions, ascending.
    pub fn ids(&self) -> &[u32] {
        &self.sorted
    }
}

/// Per-scan join counters: how much work one embedding enumeration did.
///
/// `build_rows` counts delta rows taken as the pinned (build-side) source
/// row; `probe_hits` counts index-probe candidates that matched the partial
/// valuation. Passed in by the caller so one counter can span several
/// scans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Delta rows enumerated as the pinned source row.
    pub build_rows: u64,
    /// Probed candidate rows consistent with the bindings so far.
    pub probe_hits: u64,
}

/// How a source row may be placed during delta-restricted search.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RowClass {
    /// Any target row.
    Any,
    /// Only delta rows (the pinned source row).
    Delta,
    /// Only non-delta rows (source rows before the pin, so each embedding is
    /// enumerated exactly once: at its smallest delta-touching source index).
    Old,
}

/// The class of source row `row` when `touch` pins `(delta, pin)`.
#[inline]
fn row_class(row: usize, touch: Option<(&RowDelta, usize)>) -> RowClass {
    match touch {
        None => RowClass::Any,
        Some((_, pin)) => match row.cmp(&pin) {
            std::cmp::Ordering::Less => RowClass::Old,
            std::cmp::Ordering::Equal => RowClass::Delta,
            std::cmp::Ordering::Greater => RowClass::Any,
        },
    }
}

/// Marks an unbound slot of a [`Frame`]. No interned value has this index.
pub const UNBOUND: Value = Value(u32::MAX);

/// Source rows compiled to dense slot ids (see the module docs).
///
/// Slot `s` stands for source value `values()[s]`; row `i` is the slice
/// [`Pattern::row`]`(i)` of `width` slot ids, one per attribute.
#[derive(Clone, Debug, Default)]
pub struct Pattern {
    width: usize,
    rows: usize,
    cells: Vec<u32>,
    values: Vec<Value>,
}

impl Pattern {
    /// Compiles `rows`, numbering values by first occurrence.
    pub fn new(rows: &[Tuple]) -> Self {
        Self::default().with_rows(rows)
    }

    /// Compiles `rows` over this pattern's numbering: values already
    /// numbered here keep their slots, new values get the next ones. The
    /// result holds only `rows`, but its slot table extends this one's —
    /// so a frame of the result also carries this pattern's slots (a td's
    /// conclusion compiled over its hypothesis marks its existential
    /// values as the slots past the hypothesis's).
    pub fn with_rows(&self, rows: &[Tuple]) -> Self {
        let mut values = self.values.clone();
        let mut slot_of: FxHashMap<Value, u32> = values
            .iter()
            .enumerate()
            .map(|(s, &v)| (v, s as u32))
            .collect();
        let width = rows.first().map_or(self.width, Tuple::width);
        let mut cells = Vec::with_capacity(rows.len() * width);
        for t in rows {
            assert_eq!(t.width(), width, "pattern rows must share one width");
            for v in t.val() {
                let next = values.len() as u32;
                let s = *slot_of.entry(v).or_insert(next);
                if s == next {
                    values.push(v);
                }
                cells.push(s);
            }
        }
        Self {
            width,
            rows: rows.len(),
            cells,
            values,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` if the pattern has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Slot ids of row `i`, one per attribute.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.cells[i * self.width..(i + 1) * self.width]
    }

    /// Number of slots (distinct values numbered so far).
    pub fn slots(&self) -> usize {
        self.values.len()
    }

    /// The source value of each slot.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The slot of source value `v`, if numbered.
    pub fn slot_of(&self, v: Value) -> Option<usize> {
        self.values.iter().position(|&x| x == v)
    }

    /// Every row under the frame `vals` (every slot bound) — `α(I)`.
    pub fn images(&self, vals: &[Value]) -> Vec<Tuple> {
        (0..self.rows)
            .map(|i| Tuple::new(self.row(i).iter().map(|&s| vals[s as usize]).collect()))
            .collect()
    }

    /// The frame `vals` as a valuation on this pattern's source values.
    pub fn valuation(&self, vals: &[Value]) -> Valuation {
        Valuation::from_pairs(
            self.values
                .iter()
                .zip(vals)
                .filter(|&(_, &img)| img != UNBOUND)
                .map(|(&v, &img)| (v, img)),
        )
    }

    /// Resets `frame` to this pattern's slots, binding those `seed` binds.
    fn seed_frame(&self, seed: &Valuation, frame: &mut Frame) {
        frame.reset(self.slots());
        for (s, &v) in self.values.iter().enumerate() {
            if let Some(img) = seed.get(v) {
                frame.bind(s, img);
            }
        }
    }

    /// The placement order for a full (un-pinned) scan: rows
    /// most-constrained-first. `seeded` is the frame the scan will start
    /// from (slots past its end count as unbound, so `&[]` seeds nothing);
    /// only which slots are bound matters, so a plan may be cached and
    /// reused across scans whose seeds bind the same slots.
    pub fn scan_plan(&self, seeded: &[Value]) -> Vec<usize> {
        self.plan(seeded, None)
    }

    /// One placement plan per pin for delta-touching scans (see
    /// [`Embedder::for_each_frame`]). Cache these per dependency: they are
    /// invariant across chase rounds.
    pub fn touch_plans(&self, seeded: &[Value]) -> Vec<Vec<usize>> {
        (0..self.rows)
            .map(|pin| self.plan(seeded, Some(pin)))
            .collect()
    }

    /// Orders rows most-constrained-first: rows with more cells bound by
    /// the seed or by already-placed rows come early (ties go to the
    /// earlier row). With `first` set, that row is placed up front (the
    /// semi-naive pin, whose candidate set is the small delta).
    fn plan(&self, seeded: &[Value], first: Option<usize>) -> Vec<usize> {
        let n = self.rows;
        if n <= 1 {
            return (0..n).collect();
        }
        let mut placed = vec![false; n];
        let mut bound: Vec<bool> = (0..self.slots())
            .map(|s| seeded.get(s).is_some_and(|&v| v != UNBOUND))
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut place = |i: usize, placed: &mut [bool], bound: &mut [bool]| {
            placed[i] = true;
            for &s in self.row(i) {
                bound[s as usize] = true;
            }
            order.push(i);
        };
        if let Some(pin) = first {
            place(pin, &mut placed, &mut bound);
        }
        for _ in usize::from(first.is_some())..n {
            let best = (0..n)
                .filter(|&i| !placed[i])
                .max_by_key(|&i| {
                    let b = self.row(i).iter().filter(|&&s| bound[s as usize]).count();
                    // Tie-break toward earlier rows for determinism.
                    (b, usize::MAX - i)
                })
                .expect("unplaced row exists");
            place(best, &mut placed, &mut bound);
        }
        order
    }
}

/// The bindings of an embedding in progress: one image per slot of a
/// [`Pattern`] ([`UNBOUND`] if none), plus the undo stack of the slots the
/// search bound. Reuse one frame across searches to avoid reallocating.
#[derive(Clone, Debug, Default)]
pub struct Frame {
    vals: Vec<Value>,
    undo: Vec<u32>,
}

impl Frame {
    /// An empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the frame to `slots` slots, all unbound.
    pub fn reset(&mut self, slots: usize) {
        self.vals.clear();
        self.vals.resize(slots, UNBOUND);
        self.undo.clear();
    }

    /// Copies `vals` in as the frame's bindings ([`UNBOUND`] entries stay
    /// unbound).
    pub fn load(&mut self, vals: &[Value]) {
        self.vals.clear();
        self.vals.extend_from_slice(vals);
        self.undo.clear();
    }

    /// Binds `slot` to `v` (a seed: searches never unbind it).
    #[inline]
    pub fn bind(&mut self, slot: usize, v: Value) {
        self.vals[slot] = v;
    }

    /// The image of every slot.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.vals
    }

    /// Unbinds the slots bound since the undo stack held `mark` entries.
    #[inline]
    fn undo_to(&mut self, mark: usize) {
        for s in self.undo.drain(mark..) {
            self.vals[s as usize] = UNBOUND;
        }
    }
}

/// Reusable embedding searcher for one target relation.
///
/// Borrows the target's incrementally maintained [`ColumnIndex`] —
/// construction is free of index-build cost and allocates nothing. Holds
/// no interior mutability, so one `Embedder` may be shared across scoped
/// threads.
pub struct Embedder<'a> {
    target: &'a Relation,
    index: &'a ColumnIndex,
}

impl<'a> Embedder<'a> {
    /// Prepares a searcher over `target` (no index build; the relation
    /// maintains its index incrementally).
    pub fn new(target: &'a Relation) -> Self {
        Self {
            target,
            index: target.index(),
        }
    }

    /// The target relation.
    pub fn target(&self) -> &'a Relation {
        self.target
    }

    /// The frame search: calls `f` with the frame of every embedding of
    /// `pattern` into the target that extends the slots already bound in
    /// `frame`, placing rows in `plan` order.
    ///
    /// With `touch = Some((delta, pin))` only embeddings whose row `pin`
    /// lands in `delta` while earlier rows avoid it are enumerated; `plan`
    /// must then place `pin` first (see [`Pattern::touch_plans`]).
    /// Enumerating pins `0..pattern.len()` in order visits every embedding
    /// touching the delta exactly once, at its smallest delta-touching
    /// row. An empty pattern or delta then enumerates nothing.
    ///
    /// `frame` must have at least `pattern.slots()` slots; slots past the
    /// pattern's are passed through untouched. The frame is restored to
    /// its seed when the search returns. Join counters accumulate into
    /// `stats`. Returns `true` if `f` broke out early.
    pub fn for_each_frame(
        &self,
        pattern: &Pattern,
        plan: &[usize],
        touch: Option<(&RowDelta, usize)>,
        frame: &mut Frame,
        stats: &mut ScanStats,
        f: impl FnMut(&[Value]) -> ControlFlow<()>,
    ) -> bool {
        if touch.is_some_and(|(delta, _)| pattern.is_empty() || delta.is_empty()) {
            return false;
        }
        debug_assert!(frame.vals.len() >= pattern.slots(), "frame too small");
        debug_assert_eq!(plan.len(), pattern.len(), "plan must place every row");
        let mut walk = Walk {
            target: self.target,
            index: self.index,
            pattern,
            plan,
            touch,
            frame,
            stats,
            f,
        };
        walk.descend(0).is_break()
    }

    /// `true` if some embedding of `pattern` extends `frame`'s seed.
    pub fn embeds_frame(&self, pattern: &Pattern, plan: &[usize], frame: &mut Frame) -> bool {
        let mut stats = ScanStats::default();
        self.for_each_frame(pattern, plan, None, frame, &mut stats, |_| {
            ControlFlow::Break(())
        })
    }

    /// Calls `f` for every valuation `α ⊇ seed` with `α(source) ⊆ target`.
    ///
    /// Returns `true` if `f` broke out early. Valuations are *not*
    /// required to be injective (per the paper's definition).
    pub fn for_each_embedding(
        &self,
        source: &[Tuple],
        seed: &Valuation,
        f: impl FnMut(&Valuation) -> ControlFlow<()>,
    ) -> bool {
        let pattern = Pattern::new(source);
        let mut frame = Frame::new();
        pattern.seed_frame(seed, &mut frame);
        let plan = pattern.scan_plan(frame.values());
        let mut stats = ScanStats::default();
        self.each_valuation(&pattern, &plan, None, seed, &mut frame, &mut stats, f)
    }

    /// Calls `f` for every valuation `α ⊇ seed` with `α(source) ⊆ target`
    /// that maps **at least one source row onto a row of `delta`**.
    ///
    /// Each qualifying embedding is enumerated exactly once: it is produced
    /// for the *smallest* source-row index whose image lies in the delta
    /// (earlier rows are constrained to old rows, later rows are free).
    /// With an empty `source` or an empty `delta` nothing is enumerated.
    ///
    /// Returns `true` if `f` broke out early.
    pub fn for_each_embedding_touching(
        &self,
        source: &[Tuple],
        seed: &Valuation,
        delta: &RowDelta,
        mut f: impl FnMut(&Valuation) -> ControlFlow<()>,
    ) -> bool {
        let pattern = Pattern::new(source);
        let mut frame = Frame::new();
        pattern.seed_frame(seed, &mut frame);
        let mut stats = ScanStats::default();
        for (pin, plan) in pattern.touch_plans(frame.values()).iter().enumerate() {
            let touch = Some((delta, pin));
            if self.each_valuation(&pattern, plan, touch, seed, &mut frame, &mut stats, &mut f) {
                return true;
            }
        }
        false
    }

    /// The frame search with each emission handed out as a valuation: one
    /// buffer starts as `seed` and has the unseeded slots rebound per
    /// emission (every emission binds all of them, so nothing is unbound
    /// in between).
    #[allow(clippy::too_many_arguments)]
    fn each_valuation(
        &self,
        pattern: &Pattern,
        plan: &[usize],
        touch: Option<(&RowDelta, usize)>,
        seed: &Valuation,
        frame: &mut Frame,
        stats: &mut ScanStats,
        mut f: impl FnMut(&Valuation) -> ControlFlow<()>,
    ) -> bool {
        let free: Vec<usize> = (0..pattern.slots())
            .filter(|&s| frame.vals[s] == UNBOUND)
            .collect();
        let mut alpha = seed.clone();
        self.for_each_frame(pattern, plan, touch, frame, stats, |vals| {
            for &s in &free {
                alpha.bind(pattern.values[s], vals[s]);
            }
            f(&alpha)
        })
    }

    /// First embedding extending `seed`, if any.
    pub fn find_embedding(&self, source: &[Tuple], seed: &Valuation) -> Option<Valuation> {
        let mut found = None;
        self.for_each_embedding(source, seed, |alpha| {
            found = Some(alpha.clone());
            ControlFlow::Break(())
        });
        found
    }

    /// `true` if some embedding extending `seed` exists (no valuation is
    /// materialized).
    pub fn embeds(&self, source: &[Tuple], seed: &Valuation) -> bool {
        self.count_frames(source, seed, true) > 0
    }

    /// Number of embeddings extending `seed` (for tests and diagnostics).
    pub fn count_embeddings(&self, source: &[Tuple], seed: &Valuation) -> usize {
        self.count_frames(source, seed, false)
    }

    /// Counts the frames of `source`'s embeddings extending `seed`,
    /// stopping after the first if `first_only`.
    fn count_frames(&self, source: &[Tuple], seed: &Valuation, first_only: bool) -> usize {
        let pattern = Pattern::new(source);
        let mut frame = Frame::new();
        pattern.seed_frame(seed, &mut frame);
        let plan = pattern.scan_plan(frame.values());
        let mut n = 0;
        let mut stats = ScanStats::default();
        self.for_each_frame(&pattern, &plan, None, &mut frame, &mut stats, |_| {
            n += 1;
            if first_only {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        n
    }
}

/// One frame search in progress (see [`Embedder::for_each_frame`]).
struct Walk<'w, F> {
    target: &'w Relation,
    index: &'w ColumnIndex,
    pattern: &'w Pattern,
    plan: &'w [usize],
    touch: Option<(&'w RowDelta, usize)>,
    frame: &'w mut Frame,
    stats: &'w mut ScanStats,
    f: F,
}

impl<'w, F: FnMut(&[Value]) -> ControlFlow<()>> Walk<'w, F> {
    fn descend(&mut self, depth: usize) -> ControlFlow<()> {
        if depth == self.plan.len() {
            return (self.f)(&self.frame.vals);
        }
        let src = self.plan[depth];
        let row: &'w [u32] = self.pattern.row(src);
        let class = row_class(src, self.touch);

        // Choose the cheapest candidate source: the bound column with the
        // shortest posting list, or the whole relation if nothing is bound.
        let index: &'w ColumnIndex = self.index;
        let mut best: Option<&'w [u32]> = None;
        for (a, &s) in row.iter().enumerate() {
            let img = self.frame.vals[s as usize];
            if img != UNBOUND {
                let posting = index.rows_with(AttrId(a as u16), img);
                if best.is_none_or(|b| posting.len() < b.len()) {
                    best = Some(posting);
                }
            }
        }

        // For a pinned (delta-class) row, the delta itself is usually the
        // smallest candidate set; consistency with the bindings is re-checked
        // per candidate, so any superset of the true candidates is sound.
        let delta_ids = match (class, self.touch) {
            (RowClass::Delta, Some((delta, _))) => Some(delta.ids()),
            _ => None,
        };
        match (best, delta_ids) {
            (Some(posting), Some(ids)) if ids.len() < posting.len() => {
                for &ri in ids {
                    self.try_row(depth, row, class, ri)?;
                }
            }
            (None, Some(ids)) => {
                for &ri in ids {
                    self.try_row(depth, row, class, ri)?;
                }
            }
            (Some(posting), _) => {
                for &ri in posting {
                    self.try_row(depth, row, class, ri)?;
                }
            }
            (None, None) => {
                for ri in 0..self.target.len() as u32 {
                    self.try_row(depth, row, class, ri)?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Places `row` on target row `ri` if its class admits `ri` and its
    /// cells agree with the frame, then descends; undoes its bindings
    /// before returning.
    #[inline]
    fn try_row(&mut self, depth: usize, row: &[u32], class: RowClass, ri: u32) -> ControlFlow<()> {
        match (class, self.touch) {
            (RowClass::Delta, Some((delta, _))) => {
                if !delta.contains(ri) {
                    return ControlFlow::Continue(());
                }
                self.stats.build_rows += 1;
            }
            (RowClass::Old, Some((delta, _))) if delta.contains(ri) => {
                return ControlFlow::Continue(());
            }
            _ => {}
        }
        let mark = self.frame.undo.len();
        let mut ok = true;
        for (a, &s) in row.iter().enumerate() {
            let tv = self.target.cell(ri as usize, AttrId(a as u16));
            let cur = &mut self.frame.vals[s as usize];
            if *cur == UNBOUND {
                *cur = tv;
                self.frame.undo.push(s);
            } else if *cur != tv {
                ok = false;
                break;
            }
        }
        let flow = if ok {
            if class != RowClass::Delta {
                self.stats.probe_hits += 1;
            }
            self.descend(depth + 1)
        } else {
            ControlFlow::Continue(())
        };
        self.frame.undo_to(mark);
        flow
    }
}

/// Convenience: `true` if the rows of `source` embed into `target` extending
/// `seed`.
pub fn embeds(source: &[Tuple], target: &Relation, seed: &Valuation) -> bool {
    Embedder::new(target).embeds(source, seed)
}

/// Convenience: first embedding of `source` into `target` extending `seed`.
pub fn find_embedding(source: &[Tuple], target: &Relation, seed: &Valuation) -> Option<Valuation> {
    Embedder::new(target).find_embedding(source, seed)
}

/// `true` if some row of `target` is an image of `row` under a valuation
/// extending `seed` — the satisfaction probe for a one-row td conclusion.
/// Callers probing the same row repeatedly compile it once and use
/// [`Embedder::embeds_frame`] instead.
pub fn satisfies_row(target: &Relation, row: &Tuple, seed: &Valuation) -> bool {
    embeds(std::slice::from_ref(row), target, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;
    use crate::value::ValuePool;
    use std::sync::Arc;

    fn rel(u: &Arc<Universe>, p: &mut ValuePool, rows: &[[&str; 3]]) -> (Relation, Vec<Tuple>) {
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|r| Tuple::new(r.iter().map(|n| p.untyped(n)).collect()))
            .collect();
        (
            Relation::from_rows(u.clone(), tuples.iter().cloned()),
            tuples,
        )
    }

    #[test]
    fn identity_embedding_always_exists() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, rows) = rel(&u, &mut p, &[["a", "b", "c"], ["b", "a", "c"]]);
        let e = Embedder::new(&r);
        assert!(e.embeds(&rows, &Valuation::new()));
        // And the identity is among the embeddings.
        let id = Valuation::identity_on(r.val());
        assert!(e.embeds(&rows, &id));
    }

    #[test]
    fn embedding_respects_seed() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, _) = rel(&u, &mut p, &[["a", "b", "c"]]);
        let x = p.untyped("x");
        let y = p.untyped("y");
        let z = p.untyped("z");
        let pattern = vec![Tuple::new(vec![x, y, z])];
        let e = Embedder::new(&r);
        // Unconstrained: embeds.
        assert!(e.embeds(&pattern, &Valuation::new()));
        // Seed forcing x ↦ b cannot match (a,b,c) in column A'.
        let b = p.get(None, "b").unwrap();
        let seed = Valuation::from_pairs([(x, b)]);
        assert!(!e.embeds(&pattern, &seed));
    }

    #[test]
    fn non_injective_embeddings_are_allowed() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, _) = rel(&u, &mut p, &[["a", "a", "a"]]);
        let x = p.untyped("x");
        let y = p.untyped("y");
        let z = p.untyped("z");
        // Pattern with three distinct variables maps onto the single
        // constant row by collapsing all of them.
        let pattern = vec![Tuple::new(vec![x, y, z])];
        assert!(embeds(&pattern, &r, &Valuation::new()));
    }

    #[test]
    fn shared_variable_forces_equality() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, _) = rel(&u, &mut p, &[["a", "b", "c"], ["d", "d", "e"]]);
        let x = p.untyped("x");
        let z = p.untyped("z");
        // Pattern row (x, x, z): only (d,d,e) matches.
        let pattern = vec![Tuple::new(vec![x, x, z])];
        let e = Embedder::new(&r);
        assert_eq!(e.count_embeddings(&pattern, &Valuation::new()), 1);
        let hom = e.find_embedding(&pattern, &Valuation::new()).unwrap();
        assert_eq!(hom.get(x), p.get(None, "d"));
    }

    #[test]
    fn multi_row_pattern_with_join_variable() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, _) = rel(
            &u,
            &mut p,
            &[["a", "b", "c"], ["c", "d", "e"], ["a", "d", "e"]],
        );
        // Pattern: rows (x,_,m), (m,_,_) — chained through m.
        let x = p.untyped("x");
        let m = p.untyped("m");
        let q1 = p.untyped("q1");
        let q2 = p.untyped("q2");
        let q3 = p.untyped("q3");
        let pattern = vec![Tuple::new(vec![x, q1, m]), Tuple::new(vec![m, q2, q3])];
        let e = Embedder::new(&r);
        // (a,b,c) chains to (c,d,e); no other first row has its C'-value in
        // column A' of the relation... except (a,d,e)? e not in column A'.
        assert_eq!(e.count_embeddings(&pattern, &Valuation::new()), 1);
    }

    #[test]
    fn count_embeddings_product() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, _) = rel(&u, &mut p, &[["a", "b", "c"], ["d", "e", "f"]]);
        // Two independent single-variable-per-column rows: 2 × 2 embeddings.
        let mk = |p: &mut ValuePool, i: usize| {
            Tuple::new(vec![
                p.untyped(&format!("x{i}")),
                p.untyped(&format!("y{i}")),
                p.untyped(&format!("z{i}")),
            ])
        };
        let pattern = vec![mk(&mut p, 1), mk(&mut p, 2)];
        let e = Embedder::new(&r);
        assert_eq!(e.count_embeddings(&pattern, &Valuation::new()), 4);
    }

    #[test]
    fn empty_source_has_exactly_the_seed_embedding() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, _) = rel(&u, &mut p, &[["a", "b", "c"]]);
        let e = Embedder::new(&r);
        assert_eq!(e.count_embeddings(&[], &Valuation::new()), 1);
    }

    fn count_touching(e: &Embedder<'_>, source: &[Tuple], delta: &RowDelta) -> usize {
        let mut n = 0;
        e.for_each_embedding_touching(source, &Valuation::new(), delta, |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        n
    }

    /// The delta-restricted enumeration must produce exactly the embeddings
    /// that touch the delta, each exactly once: full = touching + avoiding.
    #[test]
    fn touching_partitions_the_embedding_space() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, _) = rel(
            &u,
            &mut p,
            &[
                ["a", "b", "c"],
                ["c", "d", "e"],
                ["a", "d", "e"],
                ["e", "b", "a"],
            ],
        );
        // A two-row chained pattern with plenty of matches.
        let x = p.untyped("x");
        let m = p.untyped("m");
        let q1 = p.untyped("q1");
        let q2 = p.untyped("q2");
        let q3 = p.untyped("q3");
        let pattern = vec![Tuple::new(vec![x, q1, m]), Tuple::new(vec![m, q2, q3])];
        let e = Embedder::new(&r);

        for delta_ids in [vec![0u32], vec![1, 3], vec![0, 1, 2, 3], vec![]] {
            let delta = RowDelta::from_ids(delta_ids.clone());
            // Count "avoiding" embeddings: all rows land outside the delta.
            let old_rows: Vec<Tuple> = r
                .iter()
                .enumerate()
                .filter(|(i, _)| !delta.contains(*i as u32))
                .map(|(_, t)| t.to_tuple())
                .collect();
            let old_rel = Relation::from_rows(u.clone(), old_rows);
            let old_emb = Embedder::new(&old_rel);
            let avoiding = old_emb.count_embeddings(&pattern, &Valuation::new());
            let total = e.count_embeddings(&pattern, &Valuation::new());
            assert_eq!(
                count_touching(&e, &pattern, &delta) + avoiding,
                total,
                "partition failed for delta {delta_ids:?}"
            );
        }
    }

    /// The pin-level frame search, driven with cached plans in pin order,
    /// must reproduce the one-shot touching enumeration.
    #[test]
    fn pinned_scans_reproduce_touching_enumeration() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, _) = rel(
            &u,
            &mut p,
            &[
                ["a", "b", "c"],
                ["c", "d", "e"],
                ["a", "d", "e"],
                ["e", "b", "a"],
            ],
        );
        let x = p.untyped("x");
        let m = p.untyped("m");
        let q1 = p.untyped("q1");
        let q2 = p.untyped("q2");
        let q3 = p.untyped("q3");
        let pattern = vec![Tuple::new(vec![x, q1, m]), Tuple::new(vec![m, q2, q3])];
        let e = Embedder::new(&r);
        let seed = Valuation::new();
        let compiled = Pattern::new(&pattern);
        let plans = compiled.touch_plans(&[]);
        let delta = RowDelta::from_ids(vec![1, 3]);

        let mut whole: Vec<Valuation> = Vec::new();
        e.for_each_embedding_touching(&pattern, &seed, &delta, |a| {
            whole.push(a.clone());
            ControlFlow::Continue(())
        });
        let mut pinned: Vec<Valuation> = Vec::new();
        let mut stats = ScanStats::default();
        let mut frame = Frame::new();
        frame.reset(compiled.slots());
        for (pin, plan) in plans.iter().enumerate() {
            let touch = Some((&delta, pin));
            e.for_each_frame(&compiled, plan, touch, &mut frame, &mut stats, |vals| {
                pinned.push(compiled.valuation(vals));
                ControlFlow::Continue(())
            });
        }
        assert_eq!(whole, pinned);
        // Every emission pinned one source row onto a delta row, so the
        // build-side counter saw at least one row.
        assert!(!pinned.is_empty());
        assert!(stats.build_rows >= 1);
        // The search leaves its frame as it found it.
        assert!(frame.values().iter().all(|&v| v == UNBOUND));
    }

    #[test]
    fn touching_with_empty_delta_or_source_finds_nothing() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, rows) = rel(&u, &mut p, &[["a", "b", "c"]]);
        let e = Embedder::new(&r);
        assert_eq!(count_touching(&e, &rows, &RowDelta::from_ids(vec![])), 0);
        assert_eq!(count_touching(&e, &[], &RowDelta::from_ids(vec![0])), 0);
    }

    #[test]
    fn touching_respects_break() {
        let u = Universe::untyped_abc();
        let mut p = ValuePool::new(u.clone());
        let (r, _) = rel(&u, &mut p, &[["a", "b", "c"], ["d", "e", "f"]]);
        let x = p.untyped("x");
        let y = p.untyped("y");
        let z = p.untyped("z");
        let pattern = vec![Tuple::new(vec![x, y, z])];
        let e = Embedder::new(&r);
        let delta = RowDelta::from_ids(vec![0, 1]);
        let mut calls = 0;
        let broke = e.for_each_embedding_touching(&pattern, &Valuation::new(), &delta, |_| {
            calls += 1;
            ControlFlow::Break(())
        });
        assert!(broke);
        assert_eq!(calls, 1);
    }

    /// `satisfies_row` runs the compiled one-row search; pin it to the
    /// reference trail search on random single-row probes, covering bound,
    /// unbound, and repeated-unbound cells against a random target.
    #[test]
    fn satisfies_row_matches_general_embeds() {
        let mut state = 0x853c_49e6_748f_ea9bu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let u = Universe::untyped_abc();
        for case in 0..200 {
            let mut p = ValuePool::new(u.clone());
            let consts: Vec<Value> = (0..4).map(|i| p.untyped(&format!("c{i}"))).collect();
            let mut r = Relation::new(u.clone());
            for _ in 0..(1 + next() % 4) {
                r.insert(Tuple::new(
                    (0..3).map(|_| consts[(next() % 4) as usize]).collect(),
                ));
            }
            // Probe-row cells draw from two existential variables (possibly
            // repeated across columns) and the constants; the seed binds a
            // random subset of the existentials.
            let exts = [p.untyped("e0"), p.untyped("e1")];
            let row = Tuple::new(
                (0..3)
                    .map(|_| {
                        if next() % 2 == 0 {
                            exts[(next() % 2) as usize]
                        } else {
                            consts[(next() % 4) as usize]
                        }
                    })
                    .collect(),
            );
            let mut seed = Valuation::new();
            for &e in &exts {
                if next() % 2 == 0 {
                    seed.bind(e, consts[(next() % 4) as usize]);
                }
            }
            let fast = satisfies_row(&r, &row, &seed);
            let slow = reference::embeds(&r, std::slice::from_ref(&row), &seed);
            assert_eq!(fast, slow, "case {case}: probe row {row:?} seed {seed:?}");
        }
    }

    /// The trail search the frame search replaced, kept as the oracle the
    /// frame search is tested against: bindings live on a linear trail of
    /// `(source, image)` pairs layered over the read-only seed, and a full
    /// [`Valuation`] is materialized per emission.
    mod reference {
        use super::*;

        /// Image of `v` under the layered bindings: trail first (most recent
        /// wins), then the read-only seed.
        fn lookup(seed: &Valuation, trail: &[(Value, Value)], v: Value) -> Option<Value> {
            for &(s, t) in trail.iter().rev() {
                if s == v {
                    return Some(t);
                }
            }
            seed.get(v)
        }

        /// Most-constrained-first placement over source values.
        pub fn plan(source: &[Tuple], seed: &Valuation, first: Option<usize>) -> Vec<usize> {
            let n = source.len();
            if n <= 1 {
                return (0..n).collect();
            }
            let mut placed = vec![false; n];
            let mut bound: crate::fx::FxHashSet<Value> = seed.iter().map(|(v, _)| v).collect();
            let mut order = Vec::with_capacity(n);
            if let Some(pin) = first {
                placed[pin] = true;
                bound.extend(source[pin].val());
                order.push(pin);
            }
            while order.len() < n {
                let best = (0..n)
                    .filter(|&i| !placed[i])
                    .max_by_key(|&i| {
                        let b = source[i].val().filter(|v| bound.contains(v)).count();
                        (b, usize::MAX - i)
                    })
                    .expect("unplaced row exists");
                placed[best] = true;
                bound.extend(source[best].val());
                order.push(best);
            }
            order
        }

        /// Every embedding of `source` into `target` extending `seed`, in
        /// `plan` order, restricted by `touch` like the frame search.
        /// Returns `true` if `f` broke out early.
        pub fn for_each(
            target: &Relation,
            source: &[Tuple],
            seed: &Valuation,
            plan: &[usize],
            touch: Option<(&RowDelta, usize)>,
            stats: &mut ScanStats,
            f: &mut dyn FnMut(&Valuation) -> ControlFlow<()>,
        ) -> bool {
            if touch.is_some_and(|(delta, _)| source.is_empty() || delta.is_empty()) {
                return false;
            }
            let mut trail = Vec::new();
            search(target, source, plan, 0, seed, &mut trail, touch, stats, f).is_break()
        }

        /// `true` if some embedding extends `seed`.
        pub fn embeds(target: &Relation, source: &[Tuple], seed: &Valuation) -> bool {
            let plan = plan(source, seed, None);
            let mut stats = ScanStats::default();
            for_each(target, source, seed, &plan, None, &mut stats, &mut |_| {
                ControlFlow::Break(())
            })
        }

        #[allow(clippy::too_many_arguments)]
        fn search(
            target: &Relation,
            source: &[Tuple],
            order: &[usize],
            depth: usize,
            seed: &Valuation,
            trail: &mut Vec<(Value, Value)>,
            touch: Option<(&RowDelta, usize)>,
            stats: &mut ScanStats,
            f: &mut dyn FnMut(&Valuation) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            if depth == order.len() {
                let mut alpha = seed.clone();
                for &(s, t) in trail.iter() {
                    alpha.bind(s, t);
                }
                return f(&alpha);
            }
            let row = &source[order[depth]];
            let class = row_class(order[depth], touch);
            let attrs: Vec<AttrId> = target.universe().attrs().collect();
            let mut best: Option<&[u32]> = None;
            for &a in &attrs {
                if let Some(img) = lookup(seed, trail, row.get(a)) {
                    let posting = target.index().rows_with(a, img);
                    if best.is_none_or(|b| posting.len() < b.len()) {
                        best = Some(posting);
                    }
                }
            }
            let try_candidate = |ri: u32,
                                 trail: &mut Vec<(Value, Value)>,
                                 stats: &mut ScanStats,
                                 f: &mut dyn FnMut(&Valuation) -> ControlFlow<()>|
             -> ControlFlow<()> {
                let delta = touch.map(|(d, _)| d);
                match class {
                    RowClass::Any => {}
                    RowClass::Delta => {
                        if !delta.expect("delta class").contains(ri) {
                            return ControlFlow::Continue(());
                        }
                        stats.build_rows += 1;
                    }
                    RowClass::Old => {
                        if delta.expect("old class").contains(ri) {
                            return ControlFlow::Continue(());
                        }
                    }
                }
                let mark = trail.len();
                let mut ok = true;
                for &a in &attrs {
                    let sv = row.get(a);
                    let tv = target.cell(ri as usize, a);
                    match lookup(seed, trail, sv) {
                        Some(existing) => {
                            if existing != tv {
                                ok = false;
                                break;
                            }
                        }
                        None => trail.push((sv, tv)),
                    }
                }
                let flow = if ok {
                    if class != RowClass::Delta {
                        stats.probe_hits += 1;
                    }
                    search(
                        target,
                        source,
                        order,
                        depth + 1,
                        seed,
                        trail,
                        touch,
                        stats,
                        f,
                    )
                } else {
                    ControlFlow::Continue(())
                };
                trail.truncate(mark);
                flow
            };
            let delta_ids = match (class, touch) {
                (RowClass::Delta, Some((d, _))) => Some(d.ids()),
                _ => None,
            };
            match (best, delta_ids) {
                (Some(posting), Some(ids)) if ids.len() < posting.len() => {
                    for &ri in ids {
                        try_candidate(ri, trail, stats, f)?;
                    }
                }
                (None, Some(ids)) => {
                    for &ri in ids {
                        try_candidate(ri, trail, stats, f)?;
                    }
                }
                (Some(posting), _) => {
                    for &ri in posting {
                        try_candidate(ri, trail, stats, f)?;
                    }
                }
                (None, None) => {
                    for ri in 0..target.len() as u32 {
                        try_candidate(ri, trail, stats, f)?;
                    }
                }
            }
            ControlFlow::Continue(())
        }
    }

    /// One random case for the frame-vs-reference property: a target over
    /// `width` columns, a source of 1–4 rows drawing on few variables (so
    /// values repeat within and across rows, and some coincide with target
    /// values), a seed binding a random subset of them, and a delta.
    struct Case {
        target: Relation,
        source: Vec<Tuple>,
        seed: Valuation,
        delta: RowDelta,
    }

    fn random_case(seed: u64) -> Case {
        let mut state = seed | 1;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let width = 1 + next(6) as usize;
        let names: Vec<String> = (0..width).map(|i| format!("A{i}")).collect();
        let u = Universe::untyped(names);
        let mut p = ValuePool::new(u.clone());
        let consts: Vec<Value> = (0..3).map(|i| p.untyped(&format!("c{i}"))).collect();
        let vars: Vec<Value> = (0..4).map(|i| p.untyped(&format!("x{i}"))).collect();
        let mut target = Relation::new(u.clone());
        for _ in 0..1 + next(8) {
            target.insert(Tuple::new(
                (0..width).map(|_| consts[next(3) as usize]).collect(),
            ));
        }
        let source: Vec<Tuple> = (0..1 + next(4))
            .map(|_| {
                Tuple::new(
                    (0..width)
                        .map(|_| match next(5) {
                            0 => consts[next(3) as usize],
                            _ => {
                                let k = 1 + next(4);
                                vars[next(k) as usize]
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        let mut seed = Valuation::new();
        for &v in vars.iter().chain(&consts) {
            if next(3) == 0 {
                seed.bind(v, consts[next(3) as usize]);
            }
        }
        let delta = RowDelta::from_ids((0..target.len() as u32).filter(|_| next(2) == 0).collect());
        Case {
            target,
            source,
            seed,
            delta,
        }
    }

    /// Runs the frame search and the reference on one (plan, touch) and
    /// returns both emission sequences, stats and break flags; `stop`
    /// breaks after that many emissions.
    #[allow(clippy::type_complexity)]
    fn both(
        case: &Case,
        pattern: &Pattern,
        plan: &[usize],
        touch: Option<(&RowDelta, usize)>,
        stop: usize,
    ) -> (
        (Vec<Valuation>, ScanStats, bool),
        (Vec<Valuation>, ScanStats, bool),
    ) {
        let mut frame = Frame::new();
        pattern.seed_frame(&case.seed, &mut frame);
        let seeded = frame.values().to_vec();
        let mut got = Vec::new();
        let mut stats = ScanStats::default();
        let broke = Embedder::new(&case.target).for_each_frame(
            pattern,
            plan,
            touch,
            &mut frame,
            &mut stats,
            |vals| {
                let mut alpha = case.seed.clone();
                for (v, img) in pattern.valuation(vals).iter() {
                    alpha.bind(v, img);
                }
                got.push(alpha);
                if got.len() == stop {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(frame.values(), seeded.as_slice(), "frame not restored");
        let mut want = Vec::new();
        let mut ref_stats = ScanStats::default();
        let ref_broke = reference::for_each(
            &case.target,
            &case.source,
            &case.seed,
            plan,
            touch,
            &mut ref_stats,
            &mut |alpha| {
                want.push(alpha.clone());
                if want.len() == stop {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        ((got, stats, broke), (want, ref_stats, ref_broke))
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The frame search emits exactly the reference trail search's
        /// embeddings, in the same order, with the same join counters and
        /// the same plans — full scans and every pin of a delta-touching
        /// scan, run to the end and cut short by an early `Break` — and
        /// the `Valuation` adapters agree with it.
        #[test]
        fn frame_search_matches_reference_sequence(seed in 0u64..u64::MAX, cut in 1usize..6) {
            let case = random_case(seed);
            let pattern = Pattern::new(&case.source);
            let mut frame = Frame::new();
            pattern.seed_frame(&case.seed, &mut frame);
            let seeded = frame.values().to_vec();

            let plan = pattern.scan_plan(&seeded);
            prop_assert_eq!(&plan, &reference::plan(&case.source, &case.seed, None));
            let pins: Vec<Option<(&RowDelta, usize)>> = std::iter::once(None)
                .chain((0..case.source.len()).map(|pin| Some((&case.delta, pin))))
                .collect();
            for touch in pins {
                let plan = match touch {
                    None => plan.clone(),
                    Some((_, pin)) => {
                        let p = pattern.touch_plans(&seeded).swap_remove(pin);
                        prop_assert_eq!(&p, &reference::plan(&case.source, &case.seed, Some(pin)));
                        p
                    }
                };
                for stop in [usize::MAX, cut] {
                    let (got, want) = both(&case, &pattern, &plan, touch, stop);
                    prop_assert_eq!(&got.0, &want.0, "seed {seed}: emissions differ (touch {:?}, stop {})", touch.map(|t| t.1), stop);
                    prop_assert_eq!(got.1, want.1, "seed {seed}: stats differ");
                    prop_assert_eq!(got.2, want.2, "seed {seed}: break flags differ");
                }
            }

            let emb = Embedder::new(&case.target);
            let mut all = Vec::new();
            emb.for_each_embedding(&case.source, &case.seed, |a| {
                all.push(a.clone());
                ControlFlow::Continue(())
            });
            let (_, want) = both(&case, &pattern, &plan, None, usize::MAX);
            prop_assert_eq!(&all, &want.0, "for_each_embedding differs");
            prop_assert_eq!(emb.count_embeddings(&case.source, &case.seed), want.0.len());
            prop_assert_eq!(emb.find_embedding(&case.source, &case.seed), want.0.first().cloned());
            let embeds = reference::embeds(&case.target, &case.source, &case.seed);
            prop_assert_eq!(emb.embeds(&case.source, &case.seed), embeds);
            let one = &case.source[0];
            prop_assert_eq!(
                satisfies_row(&case.target, one, &case.seed),
                reference::embeds(&case.target, std::slice::from_ref(one), &case.seed)
            );

            let mut touching = Vec::new();
            emb.for_each_embedding_touching(&case.source, &case.seed, &case.delta, |a| {
                touching.push(a.clone());
                ControlFlow::Continue(())
            });
            let mut want_touching = Vec::new();
            for pin in 0..case.source.len() {
                let p = reference::plan(&case.source, &case.seed, Some(pin));
                let (_, want) = both(&case, &pattern, &p, Some((&case.delta, pin)), usize::MAX);
                want_touching.extend(want.0);
            }
            prop_assert_eq!(&touching, &want_touching, "for_each_embedding_touching differs");
        }
    }
}
