//! Tds and egds compiled once for the frame search.
//!
//! Checking a dependency means enumerating the embeddings of its
//! hypothesis, so its rows are compiled to a [`Pattern`] of dense slots
//! (see [`typedtd_relational::hom`]) together with the full-scan placement
//! plan. A td's conclusion is compiled over the same numbering: its slots
//! shared with the hypothesis are bound by every hypothesis embedding, and
//! the slots past the hypothesis's are its existential values. An egd
//! keeps the slots of its two equated values.
//!
//! The chase compiles each Σ dependency when a task starts and the
//! finite-model search when it starts; [`Td::violation`], [`Egd::violation`]
//! and the `satisfied_by` checks compile per call.

use crate::dependency::TdOrEgd;
use crate::egd::Egd;
use crate::td::Td;
use std::ops::ControlFlow;
use typedtd_relational::{
    Embedder, Frame, Pattern, Relation, RowDelta, ScanStats, Tuple, Value, UNBOUND,
};

/// A td compiled for the frame search.
#[derive(Clone, Debug)]
pub struct CompiledTd {
    hypothesis: Pattern,
    /// The conclusion as one row over the hypothesis numbering.
    conclusion: Pattern,
    plan: Vec<usize>,
}

impl CompiledTd {
    /// Compiles `td`.
    pub fn new(td: &Td) -> Self {
        let hypothesis = Pattern::new(td.hypothesis());
        let conclusion = hypothesis.with_rows(std::slice::from_ref(td.conclusion()));
        let plan = hypothesis.scan_plan(&[]);
        Self {
            hypothesis,
            conclusion,
            plan,
        }
    }

    /// The compiled hypothesis rows.
    pub fn hypothesis(&self) -> &Pattern {
        &self.hypothesis
    }

    /// The full-scan placement plan (nothing seeded).
    pub fn plan(&self) -> &[usize] {
        &self.plan
    }

    /// The conclusion row's slots, one per attribute. Slots from
    /// `hypothesis().slots()` on are existential.
    pub fn conclusion(&self) -> &[u32] {
        self.conclusion.row(0)
    }

    /// `true` if every conclusion value occurs in the hypothesis.
    fn is_total(&self) -> bool {
        self.conclusion.slots() == self.hypothesis.slots()
    }

    /// Slots a frame for this td needs: the hypothesis's plus one per
    /// existential value.
    pub fn frame_slots(&self) -> usize {
        self.conclusion.slots()
    }

    /// `true` if the conclusion holds in `target` under the hypothesis
    /// bindings in `vals` — a frame of [`Self::frame_slots`] slots whose
    /// existential slots are unbound. A total td's bound conclusion row is
    /// looked up directly (one hash probe); otherwise a one-row frame
    /// search looks for a row matching it. `probe` and `key` are
    /// buffers, reused across calls.
    pub fn holds_at(
        &self,
        target: &Relation,
        vals: &[Value],
        probe: &mut Frame,
        key: &mut Vec<Value>,
    ) -> bool {
        if self.is_total() {
            key.clear();
            key.extend(self.conclusion().iter().map(|&s| vals[s as usize]));
            target.contains_values(key)
        } else {
            probe.load(vals);
            Embedder::new(target).embeds_frame(&self.conclusion, &[0], probe)
        }
    }

    /// The conclusion row under the hypothesis bindings in `vals`, each
    /// existential value replaced by `fresh(attribute index)` — called once
    /// per existential value, in attribute order.
    pub fn conclusion_row(&self, vals: &[Value], mut fresh: impl FnMut(usize) -> Value) -> Tuple {
        let h = self.hypothesis.slots();
        let mut ext = vec![UNBOUND; self.frame_slots() - h];
        let cells = self.conclusion().iter().enumerate().map(|(a, &s)| {
            let s = s as usize;
            if s < h {
                vals[s]
            } else {
                if ext[s - h] == UNBOUND {
                    ext[s - h] = fresh(a);
                }
                ext[s - h]
            }
        });
        Tuple::new(cells.collect())
    }

    /// The frame of the first hypothesis embedding into `j` whose
    /// conclusion fails, if any: [`Self::frame_slots`] slots with the
    /// existential ones unbound.
    pub fn violation(&self, j: &Relation) -> Option<Vec<Value>> {
        let mut frame = Frame::new();
        frame.reset(self.frame_slots());
        let (mut probe, mut key) = (Frame::new(), Vec::new());
        let mut witness = None;
        Embedder::new(j).for_each_frame(
            &self.hypothesis,
            &self.plan,
            None,
            &mut frame,
            &mut ScanStats::default(),
            |vals| {
                if self.holds_at(j, vals, &mut probe, &mut key) {
                    ControlFlow::Continue(())
                } else {
                    witness = Some(vals.to_vec());
                    ControlFlow::Break(())
                }
            },
        );
        witness
    }

    /// Decides `j ⊨ td`.
    pub fn satisfied_by(&self, j: &Relation) -> bool {
        self.violation(j).is_none()
    }
}

/// An egd compiled for the frame search.
#[derive(Clone, Debug)]
pub struct CompiledEgd {
    hypothesis: Pattern,
    left: usize,
    right: usize,
    plan: Vec<usize>,
}

impl CompiledEgd {
    /// Compiles `egd`.
    pub fn new(egd: &Egd) -> Self {
        let hypothesis = Pattern::new(egd.hypothesis());
        let slot = |v| {
            hypothesis
                .slot_of(v)
                .expect("egd sides occur in its hypothesis")
        };
        let (left, right) = (slot(egd.left()), slot(egd.right()));
        let plan = hypothesis.scan_plan(&[]);
        Self {
            hypothesis,
            left,
            right,
            plan,
        }
    }

    /// The compiled hypothesis rows.
    pub fn hypothesis(&self) -> &Pattern {
        &self.hypothesis
    }

    /// The full-scan placement plan (nothing seeded).
    pub fn plan(&self) -> &[usize] {
        &self.plan
    }

    /// Slots of the left and right equated values.
    pub fn sides(&self) -> (usize, usize) {
        (self.left, self.right)
    }

    /// Runs one frame search of the hypothesis (arguments as for
    /// [`Embedder::for_each_frame`]) and copies the first embedding that
    /// maps the two sides apart into `witness`. Returns `true` if it found
    /// one.
    pub fn find_violation(
        &self,
        emb: &Embedder<'_>,
        plan: &[usize],
        touch: Option<(&RowDelta, usize)>,
        frame: &mut Frame,
        stats: &mut ScanStats,
        witness: &mut Vec<Value>,
    ) -> bool {
        emb.for_each_frame(&self.hypothesis, plan, touch, frame, stats, |vals| {
            if vals[self.left] == vals[self.right] {
                ControlFlow::Continue(())
            } else {
                witness.clear();
                witness.extend_from_slice(vals);
                ControlFlow::Break(())
            }
        })
    }

    /// The frame of the first hypothesis embedding into `j` that maps the
    /// sides apart, among those touching `delta` (all of them when `delta`
    /// is `None`), if any.
    pub fn violation(&self, j: &Relation, delta: Option<&RowDelta>) -> Option<Vec<Value>> {
        let emb = Embedder::new(j);
        let mut frame = Frame::new();
        frame.reset(self.hypothesis.slots());
        let mut stats = ScanStats::default();
        let mut witness = Vec::new();
        let found = match delta {
            None => {
                self.find_violation(&emb, &self.plan, None, &mut frame, &mut stats, &mut witness)
            }
            Some(delta) => {
                self.hypothesis
                    .touch_plans(&[])
                    .iter()
                    .enumerate()
                    .any(|(pin, plan)| {
                        let touch = Some((delta, pin));
                        self.find_violation(&emb, plan, touch, &mut frame, &mut stats, &mut witness)
                    })
            }
        };
        found.then_some(witness)
    }
}

/// A td or an egd, compiled.
#[derive(Clone, Debug)]
pub enum CompiledDep {
    /// A compiled td.
    Td(CompiledTd),
    /// A compiled egd.
    Egd(CompiledEgd),
}

impl CompiledDep {
    /// Compiles `dep`.
    pub fn new(dep: &TdOrEgd) -> Self {
        match dep {
            TdOrEgd::Td(t) => CompiledDep::Td(CompiledTd::new(t)),
            TdOrEgd::Egd(e) => CompiledDep::Egd(CompiledEgd::new(e)),
        }
    }

    /// The compiled hypothesis rows.
    pub fn hypothesis(&self) -> &Pattern {
        match self {
            CompiledDep::Td(t) => t.hypothesis(),
            CompiledDep::Egd(e) => e.hypothesis(),
        }
    }

    /// Decides `j ⊨ dep`.
    pub fn satisfied_by(&self, j: &Relation) -> bool {
        match self {
            CompiledDep::Td(t) => t.satisfied_by(j),
            CompiledDep::Egd(e) => e.violation(j, None).is_none(),
        }
    }
}
