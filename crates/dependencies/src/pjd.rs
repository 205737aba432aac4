//! Projected join dependencies (Section 6 of the paper).
//!
//! A pjd `*[R₁, …, R_k]_X` (with `X ⊆ R = ∪Rᵢ`) is satisfied by `I` when
//! `(m_R(I))[X] = I[X]`, where `m_R` is the project-join mapping. Join
//! dependencies (`X = R`), total dependencies (`R = U`), and multivalued
//! dependencies (`k = 2`) are special cases.
//!
//! Lemma 6 of the paper identifies pjds with *shallow* tds;
//! [`Pjd::to_td`] and [`Pjd::from_shallow_td`] implement the two directions.

use crate::td::Td;
use std::sync::Arc;
use typedtd_relational::{
    project_join, AttrId, AttrSet, FxHashMap, Relation, Tuple, Universe, Value, ValuePool,
};

/// A projected join dependency `*[R₁, …, R_k]_X`.
///
/// ```
/// use typedtd_dependencies::Pjd;
/// use typedtd_relational::Universe;
///
/// let u = Universe::typed(vec!["A", "B", "C"]);
/// let jd = Pjd::parse(&u, "*[AB, BC]").unwrap();
/// assert!(jd.is_jd() && jd.is_total(&u) && jd.is_mvd());
/// let pjd = Pjd::parse(&u, "*[AB, BC] on AC").unwrap();
/// assert!(!pjd.is_jd());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Pjd {
    components: Vec<AttrSet>,
    projection: AttrSet,
}

impl Pjd {
    /// Builds `*[R₁, …, R_k]_X`.
    ///
    /// # Panics
    /// Panics if there are no components, a component repeats (the paper
    /// requires a sequence without repetition), a component is empty, or
    /// `X ⊄ ∪Rᵢ`.
    pub fn new(components: Vec<AttrSet>, projection: AttrSet) -> Self {
        assert!(!components.is_empty(), "pjd needs at least one component");
        for (i, c) in components.iter().enumerate() {
            assert!(!c.is_empty(), "pjd components must be nonempty");
            assert!(
                !components[..i].contains(c),
                "pjd components must not repeat"
            );
        }
        let r = components
            .iter()
            .fold(AttrSet::new(), |acc, c| acc.union(c));
        assert!(projection.is_subset(&r), "projection X must satisfy X ⊆ R");
        Self {
            components,
            projection,
        }
    }

    /// A join dependency `*[R₁, …, R_k]` (projection = the whole of `R`).
    pub fn jd(components: Vec<AttrSet>) -> Self {
        let r = components
            .iter()
            .fold(AttrSet::new(), |acc, c| acc.union(c));
        Self::new(components, r)
    }

    /// Parses `*[AB, BC]` (jd) or `*[AB, BC] on B` (pjd) notation.
    ///
    /// # Errors
    /// Returns a description of the first syntax problem: malformed
    /// brackets, an unknown attribute, an empty or repeated component, or
    /// a projection outside `∪Rᵢ`. Never panics on malformed input — the
    /// structural invariants [`Pjd::new`] asserts are checked here first.
    pub fn parse(universe: &Universe, spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        let rest = spec
            .strip_prefix("*[")
            .ok_or_else(|| format!("pjd must start with '*[': {spec:?}"))?;
        let (inside, tail) = rest
            .split_once(']')
            .ok_or_else(|| format!("pjd missing ']': {spec:?}"))?;
        let mut components: Vec<AttrSet> = Vec::new();
        for c in inside.split(',') {
            let comp = universe.try_set(c.trim())?;
            if comp.is_empty() {
                return Err(format!("pjd components must be nonempty: {spec:?}"));
            }
            if components.contains(&comp) {
                return Err(format!(
                    "pjd component {} repeats: {spec:?}",
                    universe.render_set(&comp)
                ));
            }
            components.push(comp);
        }
        if components.is_empty() {
            return Err(format!("pjd needs at least one component: {spec:?}"));
        }
        let tail = tail.trim();
        if tail.is_empty() {
            Ok(Self::jd(components))
        } else {
            let x = tail
                .strip_prefix("on")
                .ok_or_else(|| format!("pjd projection must follow 'on': {spec:?}"))?;
            let projection = universe.try_set(x.trim())?;
            let r = components
                .iter()
                .fold(AttrSet::new(), |acc, c| acc.union(c));
            if !projection.is_subset(&r) {
                return Err(format!("pjd projection X must satisfy X ⊆ R: {spec:?}"));
            }
            Ok(Self::new(components, projection))
        }
    }

    /// The component sequence `R₁, …, R_k`.
    pub fn components(&self) -> &[AttrSet] {
        &self.components
    }

    /// The projection set `X`.
    pub fn projection(&self) -> &AttrSet {
        &self.projection
    }

    /// `attr(θ) = ∪Rᵢ` — the attributes mentioned (Section 6).
    pub fn attr(&self) -> AttrSet {
        self.components
            .iter()
            .fold(AttrSet::new(), |acc, c| acc.union(c))
    }

    /// `true` if this is a join dependency (`X = R`).
    pub fn is_jd(&self) -> bool {
        self.projection == self.attr()
    }

    /// `true` if total over `universe` (`R = U`); otherwise embedded.
    pub fn is_total(&self, universe: &Universe) -> bool {
        self.attr() == universe.all()
    }

    /// `true` if this is a multivalued dependency (a two-component jd).
    pub fn is_mvd(&self) -> bool {
        self.is_jd() && self.components.len() == 2
    }

    /// Decides `I ⊨ *[R₁, …, R_k]_X` via the project-join mapping.
    pub fn satisfied_by(&self, i: &Relation) -> bool {
        let joined = project_join(i, &self.components);
        // I[X] ⊆ m_R(I)[X] always holds; only the converse can fail.
        let lhs = joined.project(&self.projection);
        let rhs = i.project(&self.projection);
        lhs.rows().iter().all(|row| rhs.rows().contains(row))
    }

    /// The equivalent shallow td over `universe` (one direction of Lemma 6).
    ///
    /// One hypothesis row per component, sharing a variable `x_A` in each
    /// column `A ∈ Rᵢ`; the conclusion carries `x_A` on `X` and fresh values
    /// elsewhere.
    ///
    /// # Panics
    /// Panics if some component mentions an attribute outside `universe`.
    pub fn to_td(&self, universe: &Arc<Universe>, pool: &mut ValuePool) -> Td {
        assert!(
            self.attr().is_subset(&universe.all()),
            "pjd mentions attributes outside the universe"
        );
        let sorted = universe.is_typed();
        let mut shared: Vec<Option<Value>> = vec![None; universe.width()];
        for a in self.attr().iter() {
            shared[a.index()] = Some(pool.fresh(Some(a).filter(|_| sorted), "x"));
        }
        let shared = |a: AttrId| shared[a.index()].expect("component attributes are shared");
        let mut hyp = Vec::with_capacity(self.components.len());
        for r in &self.components {
            let row: Vec<Value> = universe
                .attrs()
                .map(|a| {
                    if r.contains(a) {
                        shared(a)
                    } else {
                        pool.fresh(Some(a).filter(|_| sorted), "y")
                    }
                })
                .collect();
            hyp.push(Tuple::new(row));
        }
        let w: Vec<Value> = universe
            .attrs()
            .map(|a| {
                if self.projection.contains(a) {
                    shared(a)
                } else {
                    pool.fresh(Some(a).filter(|_| sorted), "z")
                }
            })
            .collect();
        Td::new(universe.clone(), Tuple::new(w), hyp)
    }

    /// Recovers a pjd from a shallow td (the other direction of Lemma 6).
    ///
    /// # Errors
    /// Returns a description of why the td is not pjd-shaped: a value used
    /// in two columns, two distinct repeating values in one column, a
    /// conclusion value that occurs in the hypothesis without being the
    /// column's repeating value, or a non-repeating hypothesis value used
    /// twice.
    pub fn from_shallow_td(td: &Td) -> Result<Pjd, String> {
        let universe = td.universe();
        // 1. Every value must live in a single column.
        let mut column_of: FxHashMap<Value, u16> = FxHashMap::default();
        let all_rows = || {
            td.hypothesis()
                .iter()
                .chain(std::iter::once(td.conclusion()))
        };
        for t in all_rows() {
            for a in universe.attrs() {
                let v = t.get(a);
                if let Some(&c) = column_of.get(&v) {
                    if c != a.0 {
                        return Err(format!(
                            "value appears in two columns ({} and {}); not expressible as a pjd",
                            universe.name(AttrId(c)),
                            universe.name(a)
                        ));
                    }
                } else {
                    column_of.insert(v, a.0);
                }
            }
        }
        // 2. Per column: at most one repeating value x_A.
        let mut x: FxHashMap<u16, Value> = FxHashMap::default();
        for a in universe.attrs() {
            let rep = td.rep(a);
            match rep.len() {
                0 => {}
                1 => {
                    x.insert(a.0, *rep.iter().next().unwrap());
                }
                _ => {
                    return Err(format!(
                        "column {} has {} repeating values; a pjd allows one",
                        universe.name(a),
                        rep.len()
                    ));
                }
            }
        }
        // 3. Conclusion values are either the column's x_A or globally fresh.
        let hyp_vals = td.hypothesis_values();
        for a in universe.attrs() {
            let v = td.conclusion().get(a);
            if hyp_vals.contains(&v) && x.get(&a.0) != Some(&v) {
                return Err(format!(
                    "conclusion value in column {} occurs in the hypothesis but is not its repeating value",
                    universe.name(a)
                ));
            }
        }
        // 4. Non-repeating hypothesis values occur exactly once.
        for a in universe.attrs() {
            let mut seen: FxHashMap<Value, usize> = FxHashMap::default();
            for t in td.hypothesis() {
                *seen.entry(t.get(a)).or_insert(0) += 1;
            }
            for (v, n) in seen {
                if n > 1 && x.get(&a.0) != Some(&v) {
                    return Err(format!(
                        "column {} repeats a value that is not its unique repeating value",
                        universe.name(a)
                    ));
                }
            }
        }
        // Build components and projection.
        let mut components = Vec::new();
        for t in td.hypothesis() {
            let r: AttrSet = universe
                .attrs()
                .filter(|&a| x.get(&a.0) == Some(&t.get(a)))
                .collect();
            if r.is_empty() {
                // A row sharing nothing constrains nothing; it corresponds
                // to no component. (The join with a component on ∅ would be
                // a cross product — such a row is vacuous.)
                continue;
            }
            if !components.contains(&r) {
                components.push(r);
            }
        }
        let projection: AttrSet = universe
            .attrs()
            .filter(|&a| x.get(&a.0) == Some(&td.conclusion().get(a)))
            .collect();
        if components.is_empty() {
            return Err("td shares no values between rows; vacuous as a pjd".into());
        }
        Ok(Pjd::new(components, projection))
    }

    /// Renders as `*[AB, BC]` or `*[AB, BC] on X`.
    pub fn render(&self, universe: &Universe) -> String {
        let comps: Vec<String> = self
            .components
            .iter()
            .map(|c| universe.render_set(c))
            .collect();
        if self.is_jd() {
            format!("*[{}]", comps.join(", "))
        } else {
            format!(
                "*[{}] on {}",
                comps.join(", "),
                universe.render_set(&self.projection)
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typedtd_relational::AttrId;

    fn rel(u: &Arc<Universe>, p: &mut ValuePool, rows: &[&[&str]]) -> Relation {
        Relation::from_rows(
            u.clone(),
            rows.iter().map(|r| {
                Tuple::new(
                    r.iter()
                        .enumerate()
                        .map(|(i, n)| p.for_attr(AttrId(i as u16), n))
                        .collect(),
                )
            }),
        )
    }

    #[test]
    fn parse_roundtrip() {
        let u = Universe::typed(vec!["A", "B", "C"]);
        let jd = Pjd::parse(&u, "*[AB, BC]").unwrap();
        assert!(jd.is_jd());
        assert!(jd.is_total(&u));
        assert!(jd.is_mvd());
        assert_eq!(jd.render(&u), "*[AB, BC]");
        let pjd = Pjd::parse(&u, "*[AB, BC] on AC").unwrap();
        assert!(!pjd.is_jd());
        assert_eq!(pjd.render(&u), "*[AB, BC] on AC");
    }

    #[test]
    fn jd_satisfaction_matches_lossless_join() {
        let u = Universe::typed(vec!["A", "B", "C"]);
        let mut p = ValuePool::new(u.clone());
        let jd = Pjd::parse(&u, "*[AB, BC]").unwrap();
        // B → C holds, so *[AB, BC] holds.
        let good = rel(&u, &mut p, &[&["a1", "b", "c"], &["a2", "b", "c"]]);
        assert!(jd.satisfied_by(&good));
        // Lossy case.
        let bad = rel(&u, &mut p, &[&["a1", "b", "c1"], &["a2", "b", "c2"]]);
        assert!(!jd.satisfied_by(&bad));
    }

    #[test]
    fn projection_weakens_the_jd() {
        let u = Universe::typed(vec!["A", "B", "C"]);
        let mut p = ValuePool::new(u.clone());
        // Project on B only: (m_R(I))[B] = I[B] always holds here.
        let pjd = Pjd::parse(&u, "*[AB, BC] on B").unwrap();
        let bad_for_jd = rel(&u, &mut p, &[&["a1", "b", "c1"], &["a2", "b", "c2"]]);
        assert!(pjd.satisfied_by(&bad_for_jd));
        assert!(!Pjd::parse(&u, "*[AB, BC]").unwrap().satisfied_by(&bad_for_jd));
    }

    #[test]
    fn to_td_is_shallow_and_equisatisfied() {
        let u = Universe::typed(vec!["A", "B", "C"]);
        let mut p = ValuePool::new(u.clone());
        let pjd = Pjd::parse(&u, "*[AB, BC] on AC").unwrap();
        let td = pjd.to_td(&u, &mut p);
        assert!(td.is_shallow());
        td.check_typed(&p).unwrap();
        for rows in [
            vec!["a1 b c1", "a2 b c2", "a1 x c2"],
            vec!["a1 b c1", "a2 b c2"],
            vec!["a b c"],
        ] {
            let parsed: Vec<Vec<&str>> = rows
                .iter()
                .map(|r| r.split_whitespace().collect())
                .collect();
            let slices: Vec<&[&str]> = parsed.iter().map(|r| r.as_slice()).collect();
            let i = rel(&u, &mut p, &slices);
            assert_eq!(
                pjd.satisfied_by(&i),
                td.satisfied_by(&i),
                "Lemma 6 equivalence failed on {rows:?}"
            );
        }
    }

    #[test]
    fn shallow_roundtrip_recovers_pjd() {
        let u = Universe::typed(vec!["A", "B", "C", "D"]);
        let mut p = ValuePool::new(u.clone());
        let pjd = Pjd::parse(&u, "*[AB, BC, CD] on AD").unwrap();
        let td = pjd.to_td(&u, &mut p);
        let back = Pjd::from_shallow_td(&td).unwrap();
        assert_eq!(back.components(), pjd.components());
        assert_eq!(back.projection(), pjd.projection());
    }

    #[test]
    fn non_shallow_td_is_rejected() {
        let u = Universe::typed(vec!["A", "B", "C"]);
        let mut p = ValuePool::new(u.clone());
        let td = crate::td::td_from_names(
            &u,
            &mut p,
            &[
                &["x", "y", "c1"],
                &["x", "y2", "c2"],
                &["x2", "y", "c3"],
                &["x2", "y2", "c4"],
            ],
            &["x", "y2", "c5"],
        );
        assert!(Pjd::from_shallow_td(&td).is_err());
    }

    #[test]
    #[should_panic(expected = "X ⊆ R")]
    fn projection_outside_r_is_rejected() {
        let u = Universe::typed(vec!["A", "B", "C"]);
        let _ = Pjd::new(vec![u.set("AB")], u.set("C"));
    }

    #[test]
    #[should_panic(expected = "must not repeat")]
    fn repeated_components_rejected() {
        let u = Universe::typed(vec!["A", "B", "C"]);
        let _ = Pjd::jd(vec![u.set("AB"), u.set("AB")]);
    }
}
