//! Dependency classes of Vardi's *"The Implication and Finite Implication
//! Problems for Typed Template Dependencies"* (PODS 1982 / JCSS 1984).
//!
//! This crate implements Sections 2.3–2.4 and the Section 6 definitions:
//!
//! * [`Td`] — template dependencies `(w, I)`, with totality, `V`-totality,
//!   `REP(θ, A)`, shallowness, and k-simplicity;
//! * [`Egd`] — equality-generating dependencies `(a = b, I)`;
//! * [`Fd`] — functional dependencies `X → Y` plus the Armstrong-closure
//!   implication oracle;
//! * [`Mvd`] — total multivalued dependencies `X ↠ Y` plus the
//!   dependency-basis implication oracle;
//! * [`Pjd`] — projected join dependencies `*[R₁, …, R_k]_X` (join
//!   dependencies as the `X = R` case) with the Lemma 6 equivalence to
//!   shallow tds in both directions;
//! * [`Ind`] — inclusion dependencies `R[X] ⊆ R[Y]` over attribute
//!   sequences (related work: Casanova–Fagin–Papadimitriou), compiling to
//!   single-row tds over untyped universes;
//! * [`IndependenceAtom`] — (conditional) independence atoms `Y ⊥_X Z`
//!   (related work: Hannula–Kontinen–Link), normalizing to egds + one
//!   exchange td;
//! * [`Dependency`] / [`TdOrEgd`] — a unified enum and normalization into
//!   the td + egd fragment consumed by the chase engine, with
//!   [`DependencyClass`] tags for heterogeneous-workload accounting;
//! * [`CompiledTd`] / [`CompiledEgd`] — tds and egds compiled once into
//!   slot patterns for the frame search (the chase's and the finite-model
//!   search's form).
//!
//! Every class carries a *decidable* satisfaction test over finite
//! relations (`satisfied_by`), which is the semantic ground truth the rest
//! of the workspace is verified against.

#![warn(missing_docs)]

pub mod compiled;
pub mod dependency;
pub mod egd;
pub mod fd;
pub mod ind;
pub mod independence;
pub mod mvd;
pub mod oracles;
pub mod parser;
pub mod pjd;
pub mod td;

pub use compiled::{CompiledDep, CompiledEgd, CompiledTd};
pub use dependency::{Dependency, DependencyClass, TdOrEgd};
pub use egd::Egd;
pub use fd::{closure as fd_closure, implies as fd_implies, Fd};
pub use ind::Ind;
pub use independence::IndependenceAtom;
pub use mvd::Mvd;
pub use oracles::{dependency_basis, mvd_implies};
pub use parser::{parse_dependency, parse_egd, parse_td};
pub use pjd::Pjd;
pub use td::{egd_from_names, td_from_names, Td};
