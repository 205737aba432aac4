//! A straightforward, allocation-heavy transcription of the canonical
//! encoding described in the parent module's docs, kept as the oracle the
//! production encoder is tested against: both must produce identical keys.

use super::{
    GroupKey, GroupQuery, QueryKey, QueryParts, COL_CAP, LEAF_CAP, ROW_CAP, TAG_EGD, TAG_TD,
};
use typedtd_dependencies::TdOrEgd;
use typedtd_relational::{FxHashMap, Tuple, Value};

/// Reference for [`super::query_parts`].
pub fn query_parts(sigma: &[TdOrEgd], goal: &TdOrEgd) -> QueryParts {
    let universe = match goal {
        TdOrEgd::Td(t) => t.universe().clone(),
        TdOrEgd::Egd(e) => e.universe().clone(),
    };
    let width = universe.width();
    let perm = column_order(sigma, goal, width);
    let dep_keys: Vec<Vec<u32>> = sigma.iter().map(|d| dep_key_under(d, &perm)).collect();
    let goal_key = dep_key_under(goal, &perm);
    let mut sigma_keys = dep_keys.clone();
    sigma_keys.sort_unstable();
    sigma_keys.dedup();
    let key = QueryKey {
        width: width as u16,
        typed: universe.is_typed(),
        sigma: sigma_keys,
        goal: goal_key.clone(),
    };
    QueryParts {
        key,
        sigma_keys: dep_keys,
        goal_key,
        perm,
    }
}

/// Reference for [`super::group_query`].
pub fn group_query(sigma: &[TdOrEgd], goal: &TdOrEgd) -> Option<GroupQuery> {
    let universe = match goal {
        TdOrEgd::Td(t) => t.universe().clone(),
        TdOrEgd::Egd(e) => e.universe().clone(),
    };
    let width = universe.width();
    if width == 0 {
        return None;
    }
    let perm = sigma_column_order(sigma, width);
    let mut sigma_keys: Vec<Vec<u32>> = sigma.iter().map(|d| dep_key_under(d, &perm)).collect();
    sigma_keys.sort_unstable();
    sigma_keys.dedup();
    let goal_key = dep_key_under(goal, &perm);
    let nrows = *goal_key.get(1)? as usize;
    let hyp = goal_key.get(2..2 + nrows.checked_mul(width)?)?.to_vec();
    Some(GroupQuery {
        key: GroupKey {
            width: width as u16,
            typed: universe.is_typed(),
            sigma: sigma_keys,
            hyp,
        },
        goal: goal_key,
    })
}

/// The canonical column order for `(sigma, goal)`: columns sorted by
/// their invariant signature, submitted position breaking ties. A tied
/// block is almost always an automorphic (fully interchangeable) set of
/// columns, for which any order yields the same canonical encodings —
/// so no enumeration runs on the hot submit path.
fn column_order(sigma: &[TdOrEgd], goal: &TdOrEgd, width: usize) -> Vec<u16> {
    let mut order: Vec<u16> = (0..width as u16).collect();
    if !(2..=COL_CAP).contains(&width) {
        return order;
    }
    let sigs = column_signatures(sigma, goal, width);
    order.sort_by(|&a, &b| sigs[a as usize].cmp(&sigs[b as usize]).then(a.cmp(&b)));
    order
}

/// The per-column invariant signatures of the whole query, one per
/// column: the goal's per-column descriptor followed by the sorted
/// multiset of Σ's descriptors (separated by sentinels). Columns related
/// by a uniform permutation of the query carry equal signatures in their
/// permuted positions, so the signature sort is itself
/// permutation-invariant. This runs on every cached submit, so each
/// dependency is scanned once for all of its columns.
fn column_signatures(sigma: &[TdOrEgd], goal: &TdOrEgd, width: usize) -> Vec<Vec<u32>> {
    let goal_descs = dep_col_descs(goal, width);
    let sigma_descs: Vec<Vec<Vec<u32>>> = sigma.iter().map(|d| dep_col_descs(d, width)).collect();
    (0..width)
        .map(|c| {
            let mut sig = goal_descs[c].clone();
            sig.push(u32::MAX);
            let mut deps: Vec<&Vec<u32>> = sigma_descs.iter().map(|d| &d[c]).collect();
            deps.sort_unstable();
            for d in deps {
                sig.extend(d.iter());
                sig.push(u32::MAX);
            }
            sig
        })
        .collect()
}

/// One dependency's descriptors, one per column: counts only (invariant
/// under value renaming and hypothesis-row order), computed in a single
/// pass over the tableau.
fn dep_col_descs(dep: &TdOrEgd, width: usize) -> Vec<Vec<u32>> {
    let hyp = match dep {
        TdOrEgd::Td(t) => t.hypothesis(),
        TdOrEgd::Egd(e) => e.hypothesis(),
    };
    // Per column: the column's values (for the frequency profile) and the
    // cross-column sharing count, gathered row by row.
    let mut col_vals: Vec<Vec<Value>> = vec![Vec::with_capacity(hyp.len()); width];
    let mut shared = vec![0u32; width];
    for row in hyp {
        let vals = row.values();
        for (c, v) in vals.iter().enumerate() {
            col_vals[c].push(*v);
            shared[c] += vals
                .iter()
                .enumerate()
                .filter(|&(i, w)| i != c && w == v)
                .count() as u32;
        }
    }
    (0..width)
        .map(|c| {
            let mut out = Vec::with_capacity(8 + hyp.len());
            // Value-frequency profile: sorted multiset of per-distinct-
            // value occurrence counts (tableaux are small, so a sort
            // beats a hash map).
            col_vals[c].sort_unstable();
            let mut profile: Vec<u32> = Vec::new();
            let mut run = 0u32;
            for (i, v) in col_vals[c].iter().enumerate() {
                run += 1;
                if i + 1 == col_vals[c].len() || col_vals[c][i + 1] != *v {
                    profile.push(run);
                    run = 0;
                }
            }
            profile.sort_unstable();
            match dep {
                TdOrEgd::Td(t) => {
                    let w = t.conclusion().values();
                    out.push(0);
                    out.push(hyp.len() as u32);
                    out.push(profile.len() as u32);
                    out.push(shared[c]);
                    out.extend(&profile);
                    // Conclusion linkage: same-column hypothesis
                    // occurrences of the conclusion value, its repeats
                    // across the conclusion row, and whether it is
                    // existential (fresh anywhere).
                    let same_col = hyp.iter().filter(|r| r.values()[c] == w[c]).count() as u32;
                    let in_concl = w
                        .iter()
                        .enumerate()
                        .filter(|&(i, v)| i != c && *v == w[c])
                        .count();
                    let fresh = !hyp.iter().any(|r| r.values().contains(&w[c]));
                    out.push(same_col);
                    out.push(in_concl as u32);
                    out.push(u32::from(fresh));
                }
                TdOrEgd::Egd(e) => {
                    out.push(1);
                    out.push(hyp.len() as u32);
                    out.push(profile.len() as u32);
                    out.push(shared[c]);
                    out.extend(&profile);
                    // Equality linkage, order-normalized (the equality
                    // is symmetric): same-column occurrence counts of
                    // each equated value.
                    let l = hyp.iter().filter(|r| r.values()[c] == e.left()).count() as u32;
                    let r = hyp
                        .iter()
                        .filter(|row| row.values()[c] == e.right())
                        .count() as u32;
                    out.push(l.min(r));
                    out.push(l.max(r));
                }
            }
            out
        })
        .collect()
}

/// What follows the hypothesis rows in a dependency encoding.
enum Tail<'a> {
    /// A td's conclusion row (may contain existential values).
    Row(&'a Tuple),
    /// An egd's equated pair (order-normalized: the equality is symmetric).
    Pair(Value, Value),
}

/// Reference for [`super::dep_key`].
pub fn dep_key(dep: &TdOrEgd) -> Vec<u32> {
    let width = match dep {
        TdOrEgd::Td(t) => t.universe().width(),
        TdOrEgd::Egd(e) => e.universe().width(),
    };
    let identity: Vec<u16> = (0..width as u16).collect();
    dep_key_under(dep, &identity)
}

/// As [`dep_key`] but reading columns through `perm` (canonical position
/// `i` reads submitted column `perm[i]`) — the per-dependency piece of the
/// query-wide column-permutation normalization.
fn dep_key_under(dep: &TdOrEgd, perm: &[u16]) -> Vec<u32> {
    match dep {
        TdOrEgd::Td(t) => {
            let mut out = vec![TAG_TD, t.hypothesis().len() as u32];
            out.extend(canonical_rows(
                t.hypothesis(),
                &Tail::Row(t.conclusion()),
                perm,
            ));
            out
        }
        TdOrEgd::Egd(e) => {
            let mut out = vec![TAG_EGD, e.hypothesis().len() as u32];
            out.extend(canonical_rows(
                e.hypothesis(),
                &Tail::Pair(e.left(), e.right()),
                perm,
            ));
            out
        }
    }
}

/// Encodes `row` (read through `perm`) under `numbering`, assigning
/// provisional ids (starting at `numbering.len()`) to unseen values in
/// canonical column order. Returns the encoded tuple and the newly seen
/// values in assignment order.
fn encode_row(
    row: &Tuple,
    numbering: &FxHashMap<Value, u32>,
    perm: &[u16],
) -> (Vec<u32>, Vec<Value>) {
    let vals = row.values();
    let mut enc = Vec::with_capacity(perm.len());
    let mut fresh: Vec<Value> = Vec::new();
    for &c in perm {
        let v = &vals[c as usize];
        if let Some(&id) = numbering.get(v) {
            enc.push(id);
        } else if let Some(pos) = fresh.iter().position(|f| f == v) {
            enc.push((numbering.len() + pos) as u32);
        } else {
            enc.push((numbering.len() + fresh.len()) as u32);
            fresh.push(*v);
        }
    }
    (enc, fresh)
}

/// Appends the tail encoding under (a copy of) `numbering`.
fn encode_tail(tail: &Tail<'_>, numbering: &FxHashMap<Value, u32>, perm: &[u16]) -> Vec<u32> {
    match tail {
        Tail::Row(conclusion) => encode_row(conclusion, numbering, perm).0,
        Tail::Pair(l, r) => {
            let li = numbering[l];
            let ri = numbering[r];
            vec![li.min(ri), li.max(ri)]
        }
    }
}

/// The lexicographically minimal encoding of `rows ++ tail` over all row
/// orders, or the identity-order encoding when the search would blow up.
fn canonical_rows(rows: &[Tuple], tail: &Tail<'_>, perm: &[u16]) -> Vec<u32> {
    if rows.len() > ROW_CAP {
        return identity_encoding(rows, tail, perm);
    }
    let mut search = Search {
        rows,
        tail,
        perm,
        best: None,
        leaves: 0,
        aborted: false,
    };
    let mut used = vec![false; rows.len()];
    let mut numbering = FxHashMap::default();
    let mut acc = Vec::new();
    search.dfs(&mut used, &mut numbering, &mut acc);
    if search.aborted {
        return identity_encoding(rows, tail, perm);
    }
    search
        .best
        .expect("nonempty hypothesis yields a best order")
}

/// Encoding in the submitted row order (renaming-invariant only).
fn identity_encoding(rows: &[Tuple], tail: &Tail<'_>, perm: &[u16]) -> Vec<u32> {
    let mut numbering = FxHashMap::default();
    let mut out = Vec::new();
    for row in rows {
        let (enc, fresh) = encode_row(row, &numbering, perm);
        for v in fresh {
            let id = numbering.len() as u32;
            numbering.insert(v, id);
        }
        out.extend(enc);
    }
    out.extend(encode_tail(tail, &numbering, perm));
    out
}

struct Search<'a> {
    rows: &'a [Tuple],
    tail: &'a Tail<'a>,
    perm: &'a [u16],
    best: Option<Vec<u32>>,
    leaves: usize,
    aborted: bool,
}

impl Search<'_> {
    /// Backtracking minimal-order search. At every level only the rows
    /// whose encoded tuple is lexicographically minimal under the current
    /// numbering can extend a minimal prefix (encodings have fixed width,
    /// so prefix dominance is exact); ties branch because they bind
    /// different values.
    fn dfs(
        &mut self,
        used: &mut [bool],
        numbering: &mut FxHashMap<Value, u32>,
        acc: &mut Vec<u32>,
    ) {
        if self.aborted {
            return;
        }
        if acc.len() == self.rows.len() * self.rows.first().map_or(0, Tuple::width) {
            self.leaves += 1;
            if self.leaves > LEAF_CAP {
                self.aborted = true;
                return;
            }
            let mut candidate = acc.to_vec();
            candidate.extend(encode_tail(self.tail, numbering, self.perm));
            if self.best.as_ref().is_none_or(|b| candidate < *b) {
                self.best = Some(candidate);
            }
            return;
        }
        // Encode every unused row once, keep the minimal encoded tuple.
        let candidates: Vec<(usize, Vec<u32>, Vec<Value>)> = self
            .rows
            .iter()
            .enumerate()
            .filter(|(i, _)| !used[*i])
            .map(|(i, row)| {
                let (enc, fresh) = encode_row(row, numbering, self.perm);
                (i, enc, fresh)
            })
            .collect();
        let min_enc = candidates
            .iter()
            .map(|(_, enc, _)| enc)
            .min()
            .expect("unused row exists below full depth")
            .clone();
        for (i, enc, fresh) in candidates {
            if enc != min_enc {
                continue;
            }
            used[i] = true;
            for v in &fresh {
                let id = numbering.len() as u32;
                numbering.insert(*v, id);
            }
            let mark = acc.len();
            acc.extend(&enc);
            self.dfs(used, numbering, acc);
            acc.truncate(mark);
            for v in &fresh {
                numbering.remove(v);
            }
            used[i] = false;
            if self.aborted {
                return;
            }
        }
    }
}

/// The canonical column order of Σ alone: like `column_order` but with no
/// goal contribution, so every member of a Σ-group computes the same
/// permutation regardless of its goal's shape.
fn sigma_column_order(sigma: &[TdOrEgd], width: usize) -> Vec<u16> {
    let mut order: Vec<u16> = (0..width as u16).collect();
    if !(2..=COL_CAP).contains(&width) {
        return order;
    }
    let sigma_descs: Vec<Vec<Vec<u32>>> = sigma.iter().map(|d| dep_col_descs(d, width)).collect();
    let sigs: Vec<Vec<u32>> = (0..width)
        .map(|c| {
            let mut deps: Vec<&Vec<u32>> = sigma_descs.iter().map(|d| &d[c]).collect();
            deps.sort_unstable();
            let mut sig = Vec::new();
            for d in deps {
                sig.extend(d.iter());
                sig.push(u32::MAX);
            }
            sig
        })
        .collect();
    order.sort_by(|&a, &b| sigs[a as usize].cmp(&sigs[b as usize]).then(a.cmp(&b)));
    order
}
