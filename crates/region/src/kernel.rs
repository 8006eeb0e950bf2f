//! Run-native kernels: the REGION set algebra, batched curve
//! transcoding and box decomposition directly over sorted run lists.
//!
//! The paper's thesis is that runs on a space-filling curve are the right
//! *algebraic* representation, so the hot operators should never leave it.
//! Every merge here consumes and produces canonical run lists (sorted,
//! disjoint, non-adjacent — see [`crate::Region`] invariants) without
//! materializing per-voxel id vectors or intermediate regions.
//!
//! The set algebra is one family of merges over [`RunSource`] cursors,
//! monomorphized per cursor type.  A decoded `&[Run]` slice is a
//! zero-cost [`RunsCursor`] whose seek gallops; a queryable compressed
//! payload ([`qbism_coding::RunCursor`]) is a cursor that decodes one
//! run at a time and gallops over skip blocks or pruned subtrees, so the
//! same merge touches only the codewords near overlaps — the Brisaboa et
//! al. move (compact *queryable* representations) applied to h-runs.
//!
//! * [`intersect`] / [`union`] / [`difference`] — two-cursor merge
//!   scans, the run analogue of Orenstein & Manola's spatial join;
//! * [`intersect_many`] — a k-way simultaneous merge that gallops every
//!   cursor over disjoint spans, used by [`crate::intersect_all`] and the
//!   multi-study fold;
//! * [`transcode_runs`] — re-linearization onto another curve that walks
//!   maximal octree-aligned id blocks (one curve conversion per *block*
//!   instead of per voxel) whenever both curves are hierarchical;
//! * [`box_runs3`] — axis-aligned box rasterization by recursive octant
//!   descent (hierarchical curves) or whole scanline rows, visiting only
//!   O(surface) cells instead of every voxel in the box.
//!
//! Seek-clipping note: after `seek(t)` a compressed cursor may report its
//! current run with the start clipped upward (never past `t`).  Every
//! merge below only consumes ids `>= t` after seeking `t`, so clipped and
//! true runs are indistinguishable here.

use crate::encode::RegionEncodeError;
use crate::run::{normalize, Run};
use qbism_coding::RunCursor;
use qbism_sfc::{Curve, SpaceFillingCurve};
use std::convert::Infallible;

/// A sorted stream of canonical runs — the input contract of every
/// merge kernel.
///
/// `seek(target)` moves to the first run whose end is `>= target` and
/// never moves backward.  A slice cursor cannot fail
/// (`Error = Infallible`, so its merges are infallible too); a
/// compressed cursor reports malformed payloads as errors.  A merge
/// consumes its sources: their positions afterwards are unspecified.
pub trait RunSource {
    /// Why stepping the stream failed.
    type Error;
    /// Current run, or `None` once the stream is exhausted.
    fn peek(&self) -> Option<Run>;
    /// Steps to the next run.
    fn advance(&mut self) -> Result<(), Self::Error>;
    /// Gallops to the first run with `end >= target`.
    fn seek(&mut self, target: u64) -> Result<(), Self::Error>;
    /// The unread runs, when the source is a decoded run list.  When
    /// every operand has one, a merge runs over plain slice cursors
    /// instead of stepping each source through its own dispatch.
    fn remaining(&self) -> Option<&[Run]> {
        None
    }
}

/// Any queryable compressed cursor, as the benchmark's
/// `intersect_k_stream(&mut [&mut dyn RunCursor])` passes them; a
/// malformed payload surfaces as a [`RegionEncodeError`].
impl RunSource for dyn RunCursor + '_ {
    type Error = RegionEncodeError;

    fn peek(&self) -> Option<Run> {
        RunCursor::peek(self).map(|(start, end)| Run { start, end })
    }

    fn advance(&mut self) -> Result<(), RegionEncodeError> {
        Ok(RunCursor::advance(self)?)
    }

    fn seek(&mut self, target: u64) -> Result<(), RegionEncodeError> {
        Ok(RunCursor::seek(self, target)?)
    }
}

/// Cursor over a decoded canonical run list — a borrowed `&[Run]` or an
/// owned `Vec<Run>`.
#[derive(Debug, Clone)]
pub struct RunsCursor<R> {
    runs: R,
    pos: usize,
}

impl<R: AsRef<[Run]>> RunsCursor<R> {
    /// Wraps a canonical (sorted, disjoint, non-adjacent) run list.
    pub fn new(runs: R) -> Self {
        RunsCursor { runs, pos: 0 }
    }
}

impl<R: AsRef<[Run]>> RunSource for RunsCursor<R> {
    type Error = Infallible;

    fn peek(&self) -> Option<Run> {
        self.runs.as_ref().get(self.pos).copied()
    }

    fn advance(&mut self) -> Result<(), Infallible> {
        if self.pos < self.runs.as_ref().len() {
            self.pos += 1;
        }
        Ok(())
    }

    fn seek(&mut self, target: u64) -> Result<(), Infallible> {
        self.pos = gallop_to(self.runs.as_ref(), self.pos, target);
        Ok(())
    }

    fn remaining(&self) -> Option<&[Run]> {
        self.runs.as_ref().get(self.pos..)
    }
}

/// Appends `[start, end]`, coalescing with the previous run when they
/// touch or overlap, so outputs stay canonical.
fn push(out: &mut Vec<Run>, start: u64, end: u64) {
    if let Some(last) = out.last_mut() {
        if start <= last.end.saturating_add(1) {
            last.end = last.end.max(end);
            return;
        }
    }
    out.push(Run { start, end });
}

/// Intersection of two run streams.  A cursor whose run ends before the
/// other's begins gallops to it with `seek`, so disjoint stretches are
/// skipped rather than scanned.
pub fn intersect<A, B>(a: &mut A, b: &mut B) -> Result<Vec<Run>, A::Error>
where
    A: RunSource + ?Sized,
    B: RunSource<Error = A::Error> + ?Sized,
{
    if let (Some(x), Some(y)) = (a.remaining(), b.remaining()) {
        let Ok(out) = intersect_scan(&mut RunsCursor::new(x), &mut RunsCursor::new(y));
        return Ok(out);
    }
    intersect_scan(a, b)
}

fn intersect_scan<A, B>(a: &mut A, b: &mut B) -> Result<Vec<Run>, A::Error>
where
    A: RunSource + ?Sized,
    B: RunSource<Error = A::Error> + ?Sized,
{
    let mut out = Vec::new();
    while let (Some(ra), Some(rb)) = (a.peek(), b.peek()) {
        let lo = ra.start.max(rb.start);
        let hi = ra.end.min(rb.end);
        if lo <= hi {
            push(&mut out, lo, hi);
        }
        // Step whichever run ends first, galloping if it ends before the
        // other begins.
        if ra.end <= rb.end {
            if ra.end < rb.start {
                a.seek(rb.start)?;
            } else {
                a.advance()?;
            }
        } else if rb.end < ra.start {
            b.seek(ra.start)?;
        } else {
            b.advance()?;
        }
    }
    Ok(out)
}

/// Union of two run streams: a single merge that fuses overlap and
/// adjacency on the fly — no concatenate-and-sort pass, no seeks (every
/// run of both operands contributes).
pub fn union<A, B>(a: &mut A, b: &mut B) -> Result<Vec<Run>, A::Error>
where
    A: RunSource + ?Sized,
    B: RunSource<Error = A::Error> + ?Sized,
{
    if let (Some(x), Some(y)) = (a.remaining(), b.remaining()) {
        let Ok(out) = union_scan(&mut RunsCursor::new(x), &mut RunsCursor::new(y));
        return Ok(out);
    }
    union_scan(a, b)
}

fn union_scan<A, B>(a: &mut A, b: &mut B) -> Result<Vec<Run>, A::Error>
where
    A: RunSource + ?Sized,
    B: RunSource<Error = A::Error> + ?Sized,
{
    let mut out = Vec::new();
    loop {
        let r = match (a.peek(), b.peek()) {
            (Some(ra), Some(rb)) if ra.start <= rb.start => {
                a.advance()?;
                ra
            }
            (Some(ra), None) => {
                a.advance()?;
                ra
            }
            (_, Some(rb)) => {
                b.advance()?;
                rb
            }
            (None, None) => break,
        };
        push(&mut out, r.start, r.end);
    }
    Ok(out)
}

/// Difference `a \ b` of two run streams; the subtrahend gallops to each
/// minuend run, so a sparse `a` touches only the matching parts of `b`.
pub fn difference<A, B>(a: &mut A, b: &mut B) -> Result<Vec<Run>, A::Error>
where
    A: RunSource + ?Sized,
    B: RunSource<Error = A::Error> + ?Sized,
{
    if let (Some(x), Some(y)) = (a.remaining(), b.remaining()) {
        let Ok(out) = difference_scan(&mut RunsCursor::new(x), &mut RunsCursor::new(y));
        return Ok(out);
    }
    difference_scan(a, b)
}

fn difference_scan<A, B>(a: &mut A, b: &mut B) -> Result<Vec<Run>, A::Error>
where
    A: RunSource + ?Sized,
    B: RunSource<Error = A::Error> + ?Sized,
{
    let mut out = Vec::new();
    'minuend: while let Some(ra) = a.peek() {
        if b.peek().is_some_and(|rb| rb.end < ra.start) {
            b.seek(ra.start)?;
        }
        let mut cur = ra.start;
        while let Some(rb) = b.peek().filter(|rb| rb.start <= ra.end) {
            if rb.start > cur {
                push(&mut out, cur, rb.start - 1);
            }
            if rb.end >= ra.end {
                // This b-run may also cover the next a-run: leave it
                // current.
                a.advance()?;
                continue 'minuend;
            }
            cur = cur.max(rb.end + 1);
            b.advance()?;
        }
        push(&mut out, cur, ra.end);
        a.advance()?;
    }
    Ok(out)
}

/// First index at or after `from` whose run ends at or beyond `target`.
///
/// Run ends are strictly increasing in a canonical list, so the answer is
/// found by an exponential probe followed by a binary search — the
/// "gallop" that lets a [`RunsCursor`] skip long disjoint spans in
/// O(log skip) instead of touching every run.
fn gallop_to(list: &[Run], from: usize, target: u64) -> usize {
    let mut base = from;
    let mut step = 1usize;
    while base + step < list.len() && list[base + step].end < target {
        base += step;
        step <<= 1;
    }
    let mut lo = base;
    let mut hi = (base + step).min(list.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if list[mid].end < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// K-way intersection of run streams in one simultaneous merge.
///
/// Raises a candidate start until every cursor's current run covers it
/// (galloping each cursor over disjoint spans), emits up to the soonest
/// end, then advances the cursors that end there.  Scans each input at
/// most once and builds no intermediate list per fold step.  An empty
/// `cursors` yields an empty result; callers wanting "empty input =
/// universe" semantics must special-case it (as [`crate::intersect_all`]
/// does by returning `None`).
pub fn intersect_many<S>(cursors: &mut [&mut S]) -> Result<Vec<Run>, S::Error>
where
    S: RunSource + ?Sized,
{
    let slices: Option<Vec<_>> =
        cursors.iter().map(|c| c.remaining().map(RunsCursor::new)).collect();
    if let Some(mut slices) = slices {
        let mut refs: Vec<_> = slices.iter_mut().collect();
        let Ok(out) = intersect_many_scan(&mut refs);
        return Ok(out);
    }
    intersect_many_scan(cursors)
}

fn intersect_many_scan<S>(cursors: &mut [&mut S]) -> Result<Vec<Run>, S::Error>
where
    S: RunSource + ?Sized,
{
    let mut out = Vec::new();
    if cursors.is_empty() {
        return Ok(out);
    }
    // Candidate start of the next common span; only ever grows.
    let mut start = 0u64;
    'merge: loop {
        // Raise the candidate until every cursor's current run covers it.
        let mut changed = true;
        while changed {
            changed = false;
            for c in cursors.iter_mut() {
                if c.peek().is_some_and(|r| r.end < start) {
                    c.seek(start)?;
                }
                let Some(r) = c.peek() else { break 'merge };
                if r.start > start {
                    start = r.start;
                    changed = true;
                }
            }
        }
        // Every current run covers `start`; emit up to the soonest end.
        let mut end = u64::MAX;
        for c in cursors.iter() {
            if let Some(r) = c.peek() {
                end = end.min(r.end);
            }
        }
        push(&mut out, start, end);
        start = match end.checked_add(1) {
            Some(s) => s,
            None => break,
        };
        for c in cursors.iter_mut() {
            if c.peek().is_some_and(|r| r.end == end) {
                c.advance()?;
            }
        }
    }
    Ok(out)
}

/// Largest `t` (a multiple of `dims`) such that the id block
/// `[p, p + 2^t)` is aligned at `p` and fits inside `avail` remaining ids.
fn max_block_log(p: u64, avail: u64, dims: u32) -> u32 {
    let align = if p == 0 { 63 } else { p.trailing_zeros().min(63) };
    // floor(log2(avail)); avail >= 1 always.
    let len_log = 63 - avail.leading_zeros();
    let t = align.min(len_log);
    t - t % dims
}

/// Clears the low `m` bits of every coordinate, snapping a point to the
/// minimum corner of its side-`2^m` aligned cube.
fn snap_to_corner(coords: &mut [u32], m: u32) {
    let mask = if m >= 32 { u32::MAX } else { (1u32 << m) - 1 };
    for c in coords.iter_mut() {
        *c &= !mask;
    }
}

/// Re-expresses a canonical run list from curve `src` onto curve `dst`
/// (same dims and bits), returning the canonical run list of the same
/// voxel set in the destination order.
///
/// When both curves are hierarchical
/// ([`qbism_sfc::CurveKind::is_hierarchical`]),
/// each run is decomposed into maximal octree-aligned id blocks and each
/// block transcodes with a *single* curve conversion: an aligned block is
/// one subcube in the source order and one aligned block in the
/// destination order, so only its corner needs converting.  Otherwise
/// (scanline on either side) ids are converted run-by-run through a
/// reused buffer — still never materializing the whole region at once.
///
/// # Panics
/// Panics if the two curves disagree on dims or bits.
pub fn transcode_runs(runs: &[Run], src: &Curve, dst: &Curve) -> Vec<Run> {
    assert_eq!(src.dims(), dst.dims(), "transcode between different dimensionalities");
    assert_eq!(src.bits(), dst.bits(), "transcode between different grid sizes");
    let dims = src.dims();
    let mut coords = vec![0u32; dims as usize];
    let mut out: Vec<Run> = Vec::new();
    if src.kind().is_hierarchical() && dst.kind().is_hierarchical() {
        for r in runs {
            let mut p = r.start;
            while p <= r.end {
                let t = max_block_log(p, r.end - p + 1, dims);
                src.coords_of(p, &mut coords);
                snap_to_corner(&mut coords, t / dims);
                // The corner's destination id lands somewhere inside the
                // destination block; shift down to the block base.
                let base = (dst.index_of(&coords) >> t) << t;
                out.push(Run::new(base, base + ((1u64 << t) - 1)));
                p += 1u64 << t;
            }
        }
    } else {
        let mut buf: Vec<u64> = Vec::new();
        for r in runs {
            buf.clear();
            buf.reserve(r.len() as usize);
            for id in r.start..=r.end {
                src.coords_of(id, &mut coords);
                buf.push(dst.index_of(&coords));
            }
            buf.sort_unstable();
            for &id in &buf {
                match out.last_mut() {
                    Some(last) if id == last.end + 1 => last.end = id,
                    _ => out.push(Run::new(id, id)),
                }
            }
        }
    }
    normalize(out)
}

/// Canonical run list of the inclusive axis-aligned box `[min, max]` on a
/// 3-D curve, computed without visiting individual voxels.
///
/// Hierarchical curves use recursive octant descent: an octant entirely
/// inside the box emits one run covering its whole contiguous id block,
/// an octant disjoint from the box is skipped, and only octants crossing
/// the boundary subdivide — O(surface) work.  Scanline order emits one
/// run per (x, y) row.
///
/// # Panics
/// Panics if the curve is not 3-D or the box is inverted / out of grid.
pub fn box_runs3(curve: &Curve, min: [u32; 3], max: [u32; 3]) -> Vec<Run> {
    assert_eq!(curve.dims(), 3, "box_runs3 requires a 3-D curve");
    let side = curve.side();
    assert!(
        max.iter().all(|&c| c < side) && min.iter().zip(&max).all(|(a, b)| a <= b),
        "box [{min:?}, {max:?}] inverted or outside grid side {side}"
    );
    let mut out: Vec<Run> = Vec::new();
    let push = |out: &mut Vec<Run>, r: Run| match out.last_mut() {
        Some(last) if r.start <= last.end.saturating_add(1) => last.end = last.end.max(r.end),
        _ => out.push(r),
    };
    if curve.kind().is_hierarchical() {
        // Iterative octant descent in id order (explicit stack, children
        // pushed in reverse so they pop in ascending-id order).
        let mut coords = [0u32; 3];
        let mut stack: Vec<(u64, u32)> = vec![(0u64, curve.bits())];
        while let Some((base, level)) = stack.pop() {
            curve.coords_of(base, &mut coords);
            snap_to_corner(&mut coords, level);
            let cube = 1u32 << level;
            let disjoint = (0..3).any(|a| coords[a] > max[a] || coords[a] + cube - 1 < min[a]);
            if disjoint {
                continue;
            }
            let inside = (0..3).all(|a| coords[a] >= min[a] && coords[a] + cube - 1 <= max[a]);
            if inside {
                push(&mut out, Run::new(base, base + ((1u64 << (3 * level)) - 1)));
                continue;
            }
            // level >= 1 here: a level-0 cube is a single voxel and is
            // always either inside or disjoint.
            let child = 1u64 << (3 * (level - 1));
            for k in (0..8u64).rev() {
                stack.push((base + k * child, level - 1));
            }
        }
    } else {
        for x in min[0]..=max[0] {
            for y in min[1]..=max[1] {
                let lo = curve.index_of(&[x, y, min[2]]);
                let hi = curve.index_of(&[x, y, max[2]]);
                push(&mut out, Run::new(lo, hi));
            }
        }
    }
    out
}

#[cfg(test)]
#[path = "../tests/reference/mod.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::reference::{self, from_set, to_set};
    use proptest::prelude::*;
    use qbism_sfc::CurveKind;
    use std::collections::BTreeSet;

    /// The seed `to_curve` path: one curve conversion per voxel into a
    /// materialized id set.
    fn transcode_reference(runs: &[Run], src: &Curve, dst: &Curve) -> Vec<Run> {
        let mut coords = vec![0u32; src.dims() as usize];
        let set: BTreeSet<u64> = to_set(runs)
            .into_iter()
            .map(|id| {
                src.coords_of(id, &mut coords);
                dst.index_of(&coords)
            })
            .collect();
        from_set(&set)
    }

    /// The seed `from_box` path: every voxel visited individually.
    fn box_reference(curve: &Curve, min: [u32; 3], max: [u32; 3]) -> Vec<Run> {
        let mut set = BTreeSet::new();
        for x in min[0]..=max[0] {
            for y in min[1]..=max[1] {
                for z in min[2]..=max[2] {
                    set.insert(curve.index_of(&[x, y, z]));
                }
            }
        }
        from_set(&set)
    }

    fn runs_of(ids: &[u64]) -> Vec<Run> {
        from_set(&ids.iter().copied().collect())
    }

    fn assert_canonical(runs: &[Run]) {
        for w in runs.windows(2) {
            assert!(w[0].end + 1 < w[1].start, "not canonical: {runs:?}");
        }
    }

    fn and(a: &[Run], b: &[Run]) -> Vec<Run> {
        let Ok(out) = intersect(&mut RunsCursor::new(a), &mut RunsCursor::new(b));
        out
    }

    fn or(a: &[Run], b: &[Run]) -> Vec<Run> {
        let Ok(out) = union(&mut RunsCursor::new(a), &mut RunsCursor::new(b));
        out
    }

    fn minus(a: &[Run], b: &[Run]) -> Vec<Run> {
        let Ok(out) = difference(&mut RunsCursor::new(a), &mut RunsCursor::new(b));
        out
    }

    fn many(lists: &[&[Run]]) -> Vec<Run> {
        let mut cursors: Vec<RunsCursor<&[Run]>> =
            lists.iter().map(|l| RunsCursor::new(*l)).collect();
        let mut refs: Vec<&mut RunsCursor<&[Run]>> = cursors.iter_mut().collect();
        let Ok(out) = intersect_many(&mut refs);
        out
    }

    #[test]
    fn empty_edge_cases() {
        let some = runs_of(&[1, 2, 3]);
        assert_eq!(and(&[], &some), vec![]);
        assert_eq!(and(&some, &[]), vec![]);
        assert_eq!(or(&[], &some), some);
        assert_eq!(or(&some, &[]), some);
        assert_eq!(minus(&[], &some), vec![]);
        assert_eq!(minus(&some, &[]), some);
        assert_eq!(many(&[]), vec![]);
        assert_eq!(many(&[&some, &[]]), vec![]);
        assert_eq!(many(&[&some]), some);
    }

    #[test]
    fn adjacent_runs_fuse_in_union() {
        // <0,4> U <5,9> must fuse into the maximal run <0,9>.
        let a = vec![Run::new(0, 4)];
        let b = vec![Run::new(5, 9)];
        assert_eq!(or(&a, &b), vec![Run::new(0, 9)]);
        assert_eq!(or(&b, &a), vec![Run::new(0, 9)]);
        // ...while intersection and difference see them as disjoint.
        assert_eq!(and(&a, &b), vec![]);
        assert_eq!(minus(&a, &b), a);
    }

    #[test]
    fn containment_edge_cases() {
        // b strictly inside a run of a: difference splits it.
        let a = vec![Run::new(0, 99)];
        let b = runs_of(&[10, 11, 50]);
        assert_eq!(minus(&a, &b), vec![Run::new(0, 9), Run::new(12, 49), Run::new(51, 99)]);
        assert_eq!(and(&a, &b), b);
        // a == b: difference empties, intersection is identity.
        assert_eq!(minus(&b, &b), vec![]);
        assert_eq!(and(&b, &b), b);
    }

    #[test]
    fn gallop_finds_first_covering_run() {
        let list: Vec<Run> = (0..100).map(|i| Run::new(i * 10, i * 10 + 3)).collect();
        assert_eq!(gallop_to(&list, 0, 0), 0);
        assert_eq!(gallop_to(&list, 0, 4), 1);
        assert_eq!(gallop_to(&list, 0, 503), 50);
        assert_eq!(gallop_to(&list, 0, 504), 51);
        assert_eq!(gallop_to(&list, 40, 503), 50);
        assert_eq!(gallop_to(&list, 0, 10_000), list.len());
        assert_eq!(gallop_to(&list, 99, 993), 99);
        assert_eq!(gallop_to(&list, list.len(), 5), list.len());
    }

    #[test]
    fn slice_cursor_seek_gallops_forward_only() {
        let list: Vec<Run> = (0..100).map(|i| Run::new(i * 10, i * 10 + 3)).collect();
        let mut c = RunsCursor::new(&list[..]);
        let Ok(()) = c.seek(503);
        assert_eq!(c.peek(), Some(Run::new(500, 503)));
        // Seeking behind the current run is a no-op.
        let Ok(()) = c.seek(7);
        assert_eq!(c.peek(), Some(Run::new(500, 503)));
        let Ok(()) = c.seek(10_000);
        assert_eq!(c.peek(), None);
        let Ok(()) = c.advance();
        assert_eq!(c.peek(), None);
    }

    #[test]
    fn kway_skips_disjoint_spans() {
        // One list has a single far-right run; gallop must skip the other
        // list's thousand runs without touching them one by one (the
        // result is what we can assert).
        let sparse = vec![Run::new(100_000, 100_001)];
        let dense: Vec<Run> = (0..=1000).map(|i| Run::new(i * 100, i * 100 + 50)).collect();
        assert_eq!(many(&[&sparse, &dense]), vec![Run::new(100_000, 100_001)]);
    }

    proptest! {
        #[test]
        fn algebra_matches_btreeset_oracle(
            a_ids in proptest::collection::vec(0u64..2000, 0..300),
            b_ids in proptest::collection::vec(0u64..2000, 0..300),
        ) {
            let (ra, rb) = (runs_of(&a_ids), runs_of(&b_ids));
            let and = and(&ra, &rb);
            let or = or(&ra, &rb);
            let sub = minus(&ra, &rb);
            prop_assert_eq!(&and, &reference::intersect(&ra, &rb));
            prop_assert_eq!(&or, &reference::union(&ra, &rb));
            prop_assert_eq!(&sub, &reference::difference(&ra, &rb));
            for r in [and, or, sub] {
                assert_canonical(&r);
            }
        }

        #[test]
        fn kway_matches_btreeset_oracle(
            id_sets in proptest::collection::vec(
                proptest::collection::vec(0u64..1000, 0..200), 1..6),
        ) {
            let lists: Vec<Vec<Run>> = id_sets.iter().map(|ids| runs_of(ids)).collect();
            let refs: Vec<&[Run]> = lists.iter().map(Vec::as_slice).collect();
            let got = many(&refs);
            assert_canonical(&got);
            prop_assert_eq!(got, reference::intersect_many(&refs));
        }

        #[test]
        fn transcode_matches_reference_on_every_curve_pair(
            ids in proptest::collection::vec(0u64..4096, 0..250),
            src_pick in 0usize..3,
            dst_pick in 0usize..3,
        ) {
            let src = CurveKind::ALL[src_pick].curve(3, 4);
            let dst = CurveKind::ALL[dst_pick].curve(3, 4);
            let runs = runs_of(&ids);
            let got = transcode_runs(&runs, &src, &dst);
            assert_canonical(&got);
            prop_assert_eq!(got, transcode_reference(&runs, &src, &dst));
        }

        #[test]
        fn box_runs_match_reference_on_every_curve(
            pick in 0usize..3,
            c0 in proptest::array::uniform3(0u32..16),
            c1 in proptest::array::uniform3(0u32..16),
        ) {
            let curve = CurveKind::ALL[pick].curve(3, 4);
            let mut min = [0u32; 3];
            let mut max = [0u32; 3];
            for a in 0..3 {
                min[a] = c0[a].min(c1[a]);
                max[a] = c0[a].max(c1[a]);
            }
            let got = box_runs3(&curve, min, max);
            assert_canonical(&got);
            prop_assert_eq!(got, box_reference(&curve, min, max));
        }
    }
}
