//! Key stability: canonical keys are persisted by the answer log, so the
//! bytes of every [`QueryKey`] and Σ-group key must never change between
//! versions. This test hashes them over a fixed corpus — the service's
//! query files plus seeded random fd/mvd queries — and compares the hash
//! with a value recorded once; any change to the encoder that alters a
//! single key byte fails it.

use super::{group_query, query_parts, GroupQuery};
use crate::batch::{parse_query_line, parse_universe_spec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use typedtd_dependencies::TdOrEgd;
use typedtd_relational::{Universe, ValuePool};

/// FNV-1a 64 of every key byte of the corpus (see `corpus_key_hash`).
const GOLDEN: u64 = 8_659_317_321_425_579_064;

/// Random queries added to the query files.
const RANDOM_QUERIES: usize = 500;

/// One normalized query: Σ and one goal part.
type Query = (Vec<TdOrEgd>, TdOrEgd);

/// Parses and normalizes `line` under `universe` as `typedtd-serve`
/// does, one query per goal part; `None` for lines it would reject.
fn normalized(universe: &Arc<Universe>, line: &str) -> Option<Vec<Query>> {
    let mut pool = ValuePool::new(universe.clone());
    let (sigma, goal) = parse_query_line(universe, &mut pool, line).ok()?;
    let mut sigma_normal = Vec::new();
    for d in &sigma {
        sigma_normal.extend(d.try_normalize(universe, &mut pool).ok()?);
    }
    let parts = goal.try_normalize(universe, &mut pool).ok()?;
    Some(
        parts
            .into_iter()
            .map(|g| (sigma_normal.clone(), g))
            .collect(),
    )
}

/// Every query of a `.tdq` file, following its `@universe` directives.
fn file_queries(text: &str, out: &mut Vec<Query>) {
    let mut universe = None;
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(spec) = line.strip_prefix("@universe") {
            universe = parse_universe_spec(spec).ok();
        } else if let Some(u) = &universe {
            out.extend(normalized(u, line).into_iter().flatten());
        }
    }
}

/// A random fd or mvd over the first `width` letters.
fn random_fd_or_mvd(rng: &mut StdRng, width: usize) -> String {
    let names: Vec<char> = ('A'..='F').take(width).collect();
    let side = |rng: &mut StdRng| -> String {
        let n = rng.random_range(1..=2usize);
        (0..n).map(|_| names[rng.random_range(0..width)]).collect()
    };
    let lhs = side(rng);
    let rhs = side(rng);
    let arrow = if rng.random_range(0..2usize) == 0 {
        "->"
    } else {
        "->>"
    };
    format!("{lhs} {arrow} {rhs}")
}

/// The seeded random fd/mvd queries, typed and untyped, widths 3..=6.
fn random_queries(out: &mut Vec<Query>) {
    let mut rng = StdRng::seed_from_u64(0x6b65_795f_676f_6c64);
    for i in 0..RANDOM_QUERIES {
        let width = rng.random_range(3..=6usize);
        let names: Vec<String> = ('A'..='F').take(width).map(String::from).collect();
        let universe = if i % 2 == 0 {
            Universe::typed(names)
        } else {
            Universe::untyped(names)
        };
        let sigma: Vec<String> = (0..rng.random_range(0..=4usize))
            .map(|_| random_fd_or_mvd(&mut rng, width))
            .collect();
        let line = format!(
            "{} |= {}",
            sigma.join(" & "),
            random_fd_or_mvd(&mut rng, width)
        );
        out.extend(normalized(&universe, &line).into_iter().flatten());
    }
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv_words(hash: &mut u64, words: &[u32]) {
    fnv(hash, &(words.len() as u32).to_le_bytes());
    for w in words {
        fnv(hash, &w.to_le_bytes());
    }
}

/// The corpus's queries, in a fixed order, and the hash of their keys:
/// each query's `QueryKey::encode_into` bytes, then its Σ-group key
/// (width, typing, Σ encodings, goal hypothesis) and member goal.
fn corpus_key_hash() -> (usize, u64) {
    let mut queries = Vec::new();
    file_queries(include_str!("../../queries/smoke.tdq"), &mut queries);
    file_queries(include_str!("../../queries/mixed_class.tdq"), &mut queries);
    random_queries(&mut queries);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut bytes = Vec::new();
    for (sigma, goal) in &queries {
        bytes.clear();
        query_parts(sigma, goal).key.encode_into(&mut bytes);
        fnv(&mut hash, &bytes);
        let GroupQuery { key, goal } = group_query(sigma, goal).expect("nonzero width");
        fnv(&mut hash, &key.width.to_le_bytes());
        fnv(&mut hash, &[u8::from(key.typed)]);
        fnv(&mut hash, &(key.sigma.len() as u32).to_le_bytes());
        for dep in &key.sigma {
            fnv_words(&mut hash, dep);
        }
        fnv_words(&mut hash, &key.hyp);
        fnv_words(&mut hash, &goal);
    }
    (queries.len(), hash)
}

#[test]
fn persisted_key_bytes_are_stable() {
    let (queries, hash) = corpus_key_hash();
    assert!(
        queries > RANDOM_QUERIES,
        "corpus covers the query files too"
    );
    assert_eq!(
        hash, GOLDEN,
        "canonical key bytes changed over {queries} queries: the answer log \
         of an earlier version would stop warm-hitting"
    );
}
