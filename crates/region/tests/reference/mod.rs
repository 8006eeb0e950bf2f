//! Independent set-algebra oracle for the REGION run kernels.
//!
//! Every operation expands run lists into `BTreeSet<u64>` id sets,
//! applies the standard library's set operation and re-forms maximal
//! runs, so it shares no code with the merges it checks.  The region
//! crate's kernel unit tests and the region and core integration suites
//! all include this one file (with `#[path]` from outside this
//! directory); the including module must have `Run` in scope.

// Each including suite uses a different subset of the oracle.
#![allow(dead_code)]

use super::Run;
use std::collections::BTreeSet;

/// The ids a run list covers.
pub fn to_set(runs: &[Run]) -> BTreeSet<u64> {
    runs.iter().flat_map(|r| r.start..=r.end).collect()
}

/// The maximal runs of an id set.
pub fn from_set(set: &BTreeSet<u64>) -> Vec<Run> {
    let mut out: Vec<Run> = Vec::new();
    for &id in set {
        match out.last_mut() {
            Some(last) if id == last.end + 1 => last.end = id,
            _ => out.push(Run { start: id, end: id }),
        }
    }
    out
}

/// `a ∩ b`.
pub fn intersect(a: &[Run], b: &[Run]) -> Vec<Run> {
    from_set(&to_set(a).intersection(&to_set(b)).copied().collect())
}

/// `a ∪ b`.
pub fn union(a: &[Run], b: &[Run]) -> Vec<Run> {
    from_set(&to_set(a).union(&to_set(b)).copied().collect())
}

/// `a ∖ b`.
pub fn difference(a: &[Run], b: &[Run]) -> Vec<Run> {
    from_set(&to_set(a).difference(&to_set(b)).copied().collect())
}

/// The intersection of every list; empty for no lists.
pub fn intersect_many(lists: &[&[Run]]) -> Vec<Run> {
    let Some((first, rest)) = lists.split_first() else {
        return Vec::new();
    };
    let mut acc = to_set(first);
    for list in rest {
        let next = to_set(list);
        acc.retain(|id| next.contains(id));
    }
    from_set(&acc)
}
