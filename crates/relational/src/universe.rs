//! Universes of attributes (Section 2.1 of the paper).
//!
//! A universe is a finite, ordered list of named attributes. The paper's two
//! domain disciplines are both supported:
//!
//! * **untyped** — all attributes share one domain (`DOM(U) = DOM(A) = …`);
//! * **typed** — distinct attributes have disjoint domains, so a value may
//!   only ever appear in the column it belongs to.
//!
//! Typedness is data, not convention: the [`crate::value::ValuePool`] of a
//! typed universe tags every value with its sort, and tuple construction
//! rejects values placed in a foreign column.

use crate::bitset::AttrSet;
use std::fmt;
use std::sync::Arc;

/// Index of an attribute within its [`Universe`] (column position).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u16);

impl fmt::Debug for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Attr({})", self.0)
    }
}

impl AttrId {
    /// Column position as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Whether attribute domains are shared or pairwise disjoint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Typing {
    /// All attributes share a single domain.
    Untyped,
    /// Distinct attributes have disjoint domains.
    Typed,
}

/// A finite ordered set of named attributes.
#[derive(Clone, PartialEq, Eq)]
pub struct Universe {
    names: Vec<String>,
    typing: Typing,
}

impl Universe {
    /// Creates a universe from attribute names.
    ///
    /// # Panics
    /// Panics on duplicate names, an empty list, or more than `u16::MAX`
    /// attributes.
    pub fn new<S: Into<String>>(names: Vec<S>, typing: Typing) -> Arc<Self> {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        assert!(!names.is_empty(), "universe must have at least one attribute");
        assert!(names.len() <= u16::MAX as usize, "too many attributes");
        for (i, n) in names.iter().enumerate() {
            assert!(
                !names[..i].contains(n),
                "duplicate attribute name {n:?} in universe"
            );
        }
        Arc::new(Self { names, typing })
    }

    /// A typed universe with the given attribute names.
    pub fn typed<S: Into<String>>(names: Vec<S>) -> Arc<Self> {
        Self::new(names, Typing::Typed)
    }

    /// An untyped universe with the given attribute names.
    pub fn untyped<S: Into<String>>(names: Vec<S>) -> Arc<Self> {
        Self::new(names, Typing::Untyped)
    }

    /// The paper's untyped universe `U' = A'B'C'`.
    pub fn untyped_abc() -> Arc<Self> {
        Self::untyped(vec!["A'", "B'", "C'"])
    }

    /// The paper's typed universe `U = ABCDEF` of Section 3.
    pub fn typed_abcdef() -> Arc<Self> {
        Self::typed(vec!["A", "B", "C", "D", "E", "F"])
    }

    /// Number of attributes (columns).
    #[inline]
    pub fn width(&self) -> usize {
        self.names.len()
    }

    /// Domain discipline of this universe.
    #[inline]
    pub fn typing(&self) -> Typing {
        self.typing
    }

    /// `true` if distinct attributes have disjoint domains.
    #[inline]
    pub fn is_typed(&self) -> bool {
        self.typing == Typing::Typed
    }

    /// Name of attribute `a`.
    pub fn name(&self, a: AttrId) -> &str {
        &self.names[a.index()]
    }

    /// Looks an attribute up by name.
    pub fn attr(&self, name: &str) -> Option<AttrId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| AttrId(i as u16))
    }

    /// Looks an attribute up by name, panicking when absent.
    ///
    /// Convenience for tests and examples where the name is a literal.
    pub fn a(&self, name: &str) -> AttrId {
        self.attr(name)
            .unwrap_or_else(|| panic!("no attribute named {name:?} in {self:?}"))
    }

    /// All attributes, in column order.
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.names.len()).map(|i| AttrId(i as u16))
    }

    /// The full attribute set `U`.
    pub fn all(&self) -> AttrSet {
        AttrSet::full(self.width())
    }

    /// Parses a set of attributes from whitespace- or empty-separated names.
    ///
    /// Single-character attribute names may be run together, e.g. `"ABC"`;
    /// multi-character names must be whitespace separated, e.g. `"A' B'"`.
    pub fn set(&self, spec: &str) -> AttrSet {
        let mut out = AttrSet::new();
        if spec.split_whitespace().count() > 1 {
            for tok in spec.split_whitespace() {
                out.insert(self.a(tok));
            }
        } else if let Some(a) = self.attr(spec.trim()) {
            out.insert(a);
        } else {
            for ch in spec.trim().chars() {
                out.insert(self.a(&ch.to_string()));
            }
        }
        out
    }

    /// Fallible version of [`Universe::set`], for parsers that must turn
    /// malformed input into an error instead of a panic.
    ///
    /// # Errors
    /// Returns a description naming the first unknown attribute.
    pub fn try_set(&self, spec: &str) -> Result<AttrSet, String> {
        let mut out = AttrSet::new();
        let mut insert = |u: &Self, tok: &str| -> Result<(), String> {
            let a = u
                .attr(tok)
                .ok_or_else(|| format!("no attribute named {tok:?} in {u:?}"))?;
            out.insert(a);
            Ok(())
        };
        if spec.split_whitespace().count() > 1 {
            for tok in spec.split_whitespace() {
                insert(self, tok)?;
            }
        } else if self.attr(spec.trim()).is_some() {
            insert(self, spec.trim())?;
        } else {
            for ch in spec.trim().chars() {
                insert(self, ch.encode_utf8(&mut [0; 4]))?;
            }
        }
        Ok(out)
    }

    /// Parses an *ordered sequence* of attributes (repetitions allowed) —
    /// the shape inclusion dependencies are written over. Same tokenization
    /// as [`Universe::set`]: whitespace-separated names, or single-character
    /// names run together (`"ABA"` is the sequence `A, B, A`).
    ///
    /// # Errors
    /// Returns a description naming the first unknown attribute.
    pub fn try_seq(&self, spec: &str) -> Result<Vec<AttrId>, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        let resolve = |u: &Self, tok: &str| -> Result<AttrId, String> {
            u.attr(tok)
                .ok_or_else(|| format!("no attribute named {tok:?} in {u:?}"))
        };
        if spec.split_whitespace().count() > 1 {
            for tok in spec.split_whitespace() {
                out.push(resolve(self, tok)?);
            }
        } else if let Some(a) = self.attr(spec) {
            out.push(a);
        } else {
            for ch in spec.chars() {
                out.push(resolve(self, &ch.to_string())?);
            }
        }
        Ok(out)
    }

    /// Renders an attribute sequence as concatenated names (`ABA`), falling
    /// back to space separation when any name is multi-character.
    pub fn render_seq(&self, seq: &[AttrId]) -> String {
        let parts: Vec<&str> = seq.iter().map(|&a| self.name(a)).collect();
        if parts.iter().all(|p| p.chars().count() == 1) {
            parts.concat()
        } else {
            parts.join(" ")
        }
    }

    /// Renders an attribute set as concatenated names (paper style: `ABCE`).
    pub fn render_set(&self, set: &AttrSet) -> String {
        let parts: Vec<&str> = set.iter().map(|a| self.name(a)).collect();
        if parts.iter().all(|p| p.chars().count() == 1) {
            parts.concat()
        } else {
            parts.join(" ")
        }
    }
}

impl fmt::Debug for Universe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Universe[{}]({})",
            match self.typing {
                Typing::Typed => "typed",
                Typing::Untyped => "untyped",
            },
            self.names.join(" ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let u = Universe::typed_abcdef();
        assert_eq!(u.width(), 6);
        assert_eq!(u.a("C"), AttrId(2));
        assert_eq!(u.name(AttrId(5)), "F");
        assert!(u.attr("Z").is_none());
    }

    #[test]
    fn untyped_abc_names() {
        let u = Universe::untyped_abc();
        assert_eq!(u.a("B'"), AttrId(1));
        assert!(!u.is_typed());
    }

    #[test]
    fn set_parsing_single_chars() {
        let u = Universe::typed_abcdef();
        let x = u.set("ABCE");
        assert_eq!(x.len(), 4);
        assert!(x.contains(u.a("E")));
        assert!(!x.contains(u.a("D")));
        assert_eq!(u.render_set(&x), "ABCE");
    }

    #[test]
    fn set_parsing_multichar() {
        let u = Universe::untyped_abc();
        let x = u.set("A' B'");
        assert_eq!(x.len(), 2);
        assert_eq!(u.render_set(&x), "A' B'");
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_names_rejected() {
        let _ = Universe::typed(vec!["A", "A"]);
    }

    #[test]
    fn all_attrs() {
        let u = Universe::untyped_abc();
        assert_eq!(u.all().len(), 3);
        assert_eq!(u.attrs().count(), 3);
    }
}
