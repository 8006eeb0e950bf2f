//! k³-tree: an octree bitmap over the SFC id space — the queryable
//! compressed representation for *dense* REGIONs.
//!
//! A k²-tree (Brisaboa et al.) stores a 2-D bitmap as a k-ary tree of
//! bit codes; the k³ variant here uses branching factor 8 over the id
//! space `[0, 8^levels)`, which on a hierarchical curve (Hilbert or
//! Morton) makes every node an axis-aligned octant.  Each child of a
//! node costs two bits — `00` empty, `01` full, `10` partial — and
//! only partial children recurse, so a solid structure collapses to a
//! handful of codes no matter how many voxels it holds: the whole-grid
//! REGION is 16 bits where the naive run codec needs 8 bytes and a
//! run-list codec grows with the boundary.
//!
//! # Format
//!
//! `varint id_bits`, `varint run_count`, then the codes MSB-first: each
//! node's eight child codes in id order, every partial child's subtree
//! following its code immediately (preorder).  Child order *is*
//! increasing id order, so the stream yields maximal `(start, end)`
//! runs directly — no voxel materialization, no intermediate tree.
//!
//! # Word-at-a-time codec
//!
//! Every node costs exactly 16 bits, so every code starts at an even
//! bit offset and no code straddles a byte: a code is one shift and
//! mask of one byte.  A *cell-level* node (its children are single
//! cells) has no partial children, so its 16 bits are contiguous; the
//! decoder expands them through a 256-entry table, a byte at a time,
//! into an 8-bit occupancy mask.  A node over 64 ids ORs its eight
//! children's masks into one 64-bit bitmap, and its runs come out with
//! `trailing_zeros`.
//!
//! * [`K3Cursor`] walks the tree with a resumable explicit stack and
//!   refills a small run buffer a batch at a time.  `seek` drops
//!   buffered runs before the target; when it must refill, subtrees
//!   wholly before the target are consumed without assembling runs
//!   (each counts as one skip), and their codes are validated as
//!   strictly as decoded ones.
//! * [`encode_runs`] makes one pass: each node splits its run slice
//!   among its children by scanning forward, a node over 64 ids is
//!   encoded from its occupancy bitmap, and codes go out through a
//!   64-bit accumulator.
//! * [`encoded_len`] is closed-form: a block is a partial node exactly
//!   when a run boundary falls strictly inside it, so the payload size
//!   is 2 bytes for the root plus 2 per distinct such block per level.
//!
//! The byte format is the one the bit-by-bit codec wrote; the
//! differential suites in `tests/` check bytes, runs, seeks and errors
//! against that codec, kept as a test oracle.

use crate::varint::{read_uvarint, uvarint_len, write_uvarint};
use crate::{CodingError, Result, RunCursor};

const EMPTY: u8 = 0;
const FULL: u8 = 1;
const PARTIAL: u8 = 2;

/// Widest id space the codec takes (11 levels of 3 bits).
const MAX_ID_BITS: u32 = 33;

/// Runs the cursor decodes per refill: large enough to amortize the
/// walk's bookkeeping, small enough that a seek past the batch still
/// prunes whole subtrees.
const BATCH: usize = 32;

/// `OCCUPANCY` flag: the byte holds a code no cell may carry
/// (`10` partial or the unused `11`).
const INVALID: u8 = 0x10;

/// `OCCUPANCY[b]`: the four codes of byte `b` as cells — bit `j` set
/// when code `j` (MSB first) is full, `INVALID` when any code is
/// neither empty nor full.
const OCCUPANCY: [u8; 256] = occupancy_table();

const fn occupancy_table() -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut j = 0;
        while j < 4 {
            match (byte >> (6 - 2 * j)) & 3 {
                0 => {}
                1 => table[byte] |= 1 << j,
                _ => table[byte] |= INVALID,
            }
            j += 1;
        }
        byte += 1;
    }
    table
}

/// `CELL_CODES[m]`: the 16 code bits of a cell-level node whose full
/// cells are the set bits of `m` (bit `j` = cell `j`).
const CELL_CODES: [u16; 256] = cell_code_table();

const fn cell_code_table() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut mask = 0;
    while mask < 256 {
        let mut j = 0;
        while j < 8 {
            if mask >> j & 1 == 1 {
                table[mask] |= 1 << (14 - 2 * j);
            }
            j += 1;
        }
        mask += 1;
    }
    table
}

/// Tree depth over `[0, 2^id_bits)`: each level takes 3 id bits.
fn levels(id_bits: u32) -> u32 {
    id_bits.div_ceil(3).max(1)
}

/// Checks the id width and that `runs` is canonical inside it; returns
/// the tree depth.
fn check_runs(runs: &[(u64, u64)], id_bits: u32) -> Result<u32> {
    if id_bits == 0 || id_bits > MAX_ID_BITS {
        return Err(CodingError::ValueOutOfDomain { value: u64::from(id_bits), codec: "k3-tree" });
    }
    let mut prev: Option<u64> = None;
    for &(start, end) in runs {
        if end < start || end >= (1u64 << id_bits) {
            return Err(CodingError::Corrupt("run outside the id space"));
        }
        if prev.is_some_and(|pe| start < pe + 2) {
            return Err(CodingError::Corrupt("run list not canonical"));
        }
        prev = Some(end);
    }
    Ok(levels(id_bits))
}

/// Encodes a canonical run list over `[0, 2^id_bits)` into a k³-tree
/// payload (`varint id_bits`, `varint run_count`, then the bit codes).
pub fn encode_runs(runs: &[(u64, u64)], id_bits: u32) -> Result<Vec<u8>> {
    let levels = check_runs(runs, id_bits)?;
    let mut w = CodeWriter { out: Vec::new(), acc: 0, bits: 0 };
    write_uvarint(&mut w.out, u64::from(id_bits));
    write_uvarint(&mut w.out, runs.len() as u64);
    if !runs.is_empty() {
        encode_node(&mut w, runs, 0, 3 * (levels - 1));
    }
    Ok(w.finish())
}

/// Payload size [`encode_runs`] would produce, in closed form; fails
/// exactly when it would.
///
/// The codes take 2 bytes for the root and 2 for every partial node.
/// A block is partial exactly when membership changes strictly inside
/// it: at some transition `t` (a run start, or one past a run end) with
/// `t - 1` and `t` in the same block, i.e. the block side does not
/// divide `t`.  Transitions strictly increase, so the blocks each one
/// opens are counted against the previous transition alone.
pub fn encoded_len(runs: &[(u64, u64)], id_bits: u32) -> Result<usize> {
    let levels = check_runs(runs, id_bits)?;
    let mut nodes = usize::from(!runs.is_empty());
    // Before the first transition every level's block is new.
    let (mut prev, mut prev_inside_from) = (0u64, levels);
    for &(start, end) in runs {
        for t in [start, end + 1] {
            // `t` lies strictly inside its level-k block (side 8^k)
            // from this k upward.
            let inside_from = (t.trailing_zeros() + 3) / 3;
            // The block is new below the level where `prev` shares it,
            // and below the level from which `prev` lies inside it.
            let shared_from = (u64::BITS + 2 - (prev ^ t).leading_zeros()) / 3;
            let new_below = shared_from.max(prev_inside_from).min(levels);
            nodes += new_below.saturating_sub(inside_from) as usize;
            (prev, prev_inside_from) = (t, inside_from);
        }
    }
    Ok(uvarint_len(u64::from(id_bits)) + uvarint_len(runs.len() as u64) + 2 * nodes)
}

/// MSB-first code sink: codes collect in a 64-bit accumulator that
/// spills 32 bits at a time.
struct CodeWriter {
    out: Vec<u8>,
    acc: u64,
    /// Pending bits in the low end of `acc`, always below 32 between
    /// calls.
    bits: u32,
}

impl CodeWriter {
    /// Appends the low `width` (at most 32) bits of `code`.
    #[inline]
    fn put(&mut self, code: u64, width: u32) {
        self.acc = (self.acc << width) | code;
        self.bits += width;
        if self.bits >= 32 {
            self.bits -= 32;
            self.out.extend_from_slice(&((self.acc >> self.bits) as u32).to_be_bytes());
        }
    }

    /// Flushes the pending bits, zero-padding the final byte.
    fn finish(mut self) -> Vec<u8> {
        let tail = self.bits.div_ceil(8) as usize;
        if tail > 0 {
            let word = self.acc << (u64::BITS - self.bits);
            self.out.extend_from_slice(&word.to_be_bytes()[..tail]);
        }
        self.out
    }
}

/// Emits the node at `base` whose children each span `2^shift` ids:
/// eight child codes, each partial child's subtree right after its
/// code.  `runs` holds exactly the runs meeting the node.
fn encode_node(w: &mut CodeWriter, runs: &[(u64, u64)], base: u64, shift: u32) {
    if shift <= 3 {
        // A node of at most 64 ids encodes from its occupancy bitmap.
        let last_id = base + (8u64 << shift) - 1;
        let mut bits = 0u64;
        for &(start, end) in runs {
            let (first, last) = (start.max(base) - base, end.min(last_id) - base);
            bits |= (u64::MAX << first) & (u64::MAX >> (63 - last));
        }
        if shift == 0 {
            w.put(u64::from(CELL_CODES[bits as usize & 0xFF]), 16);
            return;
        }
        for child in 0..8 {
            match (bits >> (8 * child)) as u8 {
                0 => w.put(u64::from(EMPTY), 2),
                0xFF => w.put(u64::from(FULL), 2),
                cells => {
                    w.put(u64::from(PARTIAL) << 16 | u64::from(CELL_CODES[cells as usize]), 18)
                }
            }
        }
        return;
    }
    let size = 1u64 << shift;
    let mut from = 0;
    for child in 0..8 {
        let lo = base + child * size;
        let hi = lo + (size - 1);
        while runs.get(from).is_some_and(|&(_, end)| end < lo) {
            from += 1;
        }
        let mut to = from;
        while runs.get(to).is_some_and(|&(start, _)| start <= hi) {
            to += 1;
        }
        match &runs[from..to] {
            [] => w.put(u64::from(EMPTY), 2),
            &[(start, end)] if start <= lo && end >= hi => w.put(u64::from(FULL), 2),
            slice => {
                w.put(u64::from(PARTIAL), 2);
                encode_node(w, slice, lo, shift - 3);
            }
        }
    }
}

/// One node on the decode stack: its first id, log₂ of the ids each
/// child spans, and the next child to read.
#[derive(Debug, Clone, Copy)]
struct Frame {
    base: u64,
    shift: u32,
    next: u64,
}

/// The resumable preorder walk: read position, explicit stack and the
/// run being assembled.
#[derive(Debug, Clone)]
struct Walk<'a> {
    codes: &'a [u8],
    /// Bit offset of the next code (always even).
    pos: usize,
    stack: Vec<Frame>,
    /// Covered ids not yet closed into a run: the next covered
    /// interval may extend it.
    open: Option<(u64, u64)>,
    /// Subtrees and cells wholly below this id are consumed unassembled.
    prune_below: u64,
    skips: u64,
}

impl Walk<'_> {
    /// Reads one 2-bit code.
    #[inline]
    fn code(&mut self) -> Result<u8> {
        let byte = *self.codes.get(self.pos / 8).ok_or(CodingError::UnexpectedEnd)?;
        let code = (byte >> (6 - self.pos % 8)) & 3;
        self.pos += 2;
        Ok(code)
    }

    /// The 16 bits at the read position, if the stream holds them.
    #[inline]
    fn peek16(&self) -> Option<u32> {
        let (at, offset) = (self.pos / 8, self.pos % 8);
        let byte = |i: usize| self.codes.get(at + i).map(|&b| u32::from(b));
        // Byte-aligned bits need no third byte.
        let third = if offset == 0 { 0 } else { byte(2)? };
        let window = byte(0)? << 16 | byte(1)? << 8 | third;
        Some((window >> (8 - offset)) & 0xFFFF)
    }

    /// Reads a cell-level node as its 8-bit occupancy mask (bit `j` =
    /// cell `j`).  A truncated or invalid node is re-read code by code,
    /// so it fails with the error the code that breaks it deserves.
    #[inline]
    fn cell_mask(&mut self) -> Result<u32> {
        if let Some(bits) = self.peek16() {
            let high = OCCUPANCY[(bits >> 8) as usize];
            let low = OCCUPANCY[(bits & 0xFF) as usize];
            if (high | low) & INVALID == 0 {
                self.pos += 16;
                return Ok(u32::from(high) | u32::from(low) << 4);
            }
        }
        let mut mask = 0;
        for j in 0..8 {
            match self.code()? {
                EMPTY => {}
                FULL => mask |= 1 << j,
                PARTIAL => return Err(CodingError::Corrupt("partial code at cell level")),
                _ => return Err(CodingError::Corrupt("bad k3-tree child code")),
            }
        }
        Ok(mask)
    }

    /// Adds the covered interval `[lo, hi]`; returns 1 when it closes
    /// the open run (handed to `sink`).
    #[inline]
    fn cover(&mut self, lo: u64, hi: u64, sink: &mut impl FnMut(u64, u64)) -> usize {
        match &mut self.open {
            Some((_, end)) if *end + 1 == lo => {
                *end = hi;
                0
            }
            open => match open.replace((lo, hi)) {
                Some((start, end)) => {
                    sink(start, end);
                    1
                }
                None => 0,
            },
        }
    }

    /// Emits the runs of a node's occupancy bitmap (bit `j` = id
    /// `base + j`).
    #[inline]
    fn emit_bits(&mut self, base: u64, mut bits: u64, sink: &mut impl FnMut(u64, u64)) -> usize {
        if self.prune_below > base {
            // Cells below the seek target are dropped.
            bits &= u64::MAX.checked_shl((self.prune_below - base) as u32).unwrap_or(0);
        }
        let mut closed = 0;
        while bits != 0 {
            let first = bits.trailing_zeros();
            let len = (!(bits >> first)).trailing_zeros();
            closed += self.cover(base + u64::from(first), base + u64::from(first + len - 1), sink);
            bits &= bits.wrapping_add(1 << first);
        }
        closed
    }

    /// Emits the runs of the 64-id node at `base`, whose children are
    /// cell-level nodes: its codes become one occupancy bitmap.
    #[inline]
    fn node64(&mut self, base: u64, sink: &mut impl FnMut(u64, u64)) -> Result<usize> {
        let mut bits = 0u64;
        for child in 0..8 {
            let cells = match self.code()? {
                EMPTY => 0,
                FULL => 0xFF,
                PARTIAL => {
                    if base + 8 * child + 7 < self.prune_below {
                        self.skips += 1;
                    }
                    u64::from(self.cell_mask()?)
                }
                _ => return Err(CodingError::Corrupt("bad k3-tree child code")),
            };
            bits |= cells << (8 * child);
        }
        Ok(self.emit_bits(base, bits, sink))
    }

    /// Consumes a pruned subtree (a node whose children span `2^shift`
    /// ids) without assembling runs, still validating every code.
    fn skip_subtree(&mut self, shift: u32) -> Result<()> {
        if shift == 0 {
            return self.cell_mask().map(|_| ());
        }
        for _ in 0..8 {
            match self.code()? {
                EMPTY | FULL => {}
                PARTIAL => self.skip_subtree(shift - 3)?,
                _ => return Err(CodingError::Corrupt("bad k3-tree child code")),
            }
        }
        Ok(())
    }

    /// Walks until `want` runs have closed or the tree ends, handing
    /// each closed run to `sink`; the end of the tree closes the open
    /// run too.
    fn walk(&mut self, want: usize, sink: &mut impl FnMut(u64, u64)) -> Result<()> {
        let mut closed = 0;
        while closed < want {
            let Some(top) = self.stack.last_mut() else {
                if let Some((start, end)) = self.open.take() {
                    sink(start, end);
                }
                return Ok(());
            };
            if top.shift <= 3 {
                // A root of at most 64 ids decodes whole.
                let Frame { base, shift, .. } = *top;
                self.stack.pop();
                closed += if shift == 3 {
                    self.node64(base, sink)?
                } else {
                    let cells = self.cell_mask()?;
                    self.emit_bits(base, u64::from(cells), sink)
                };
                continue;
            }
            if top.next == 8 {
                self.stack.pop();
                continue;
            }
            let shift = top.shift;
            let lo = top.base + (top.next << shift);
            top.next += 1;
            let hi = lo + ((1u64 << shift) - 1);
            match self.code()? {
                EMPTY => {}
                FULL => {
                    if hi >= self.prune_below {
                        closed += self.cover(lo, hi, sink);
                    }
                }
                PARTIAL if hi < self.prune_below => {
                    // The whole subtree precedes the seek target.
                    self.skip_subtree(shift - 3)?;
                    self.skips += 1;
                }
                PARTIAL if shift == 6 => closed += self.node64(lo, sink)?,
                PARTIAL => self.stack.push(Frame { base: lo, shift: shift - 3, next: 0 }),
                _ => return Err(CodingError::Corrupt("bad k3-tree child code")),
            }
        }
        Ok(())
    }
}

/// Streaming run decoder over a k³-tree payload.
///
/// Runs decode a batch at a time into a small buffer; `peek` and
/// `advance` step through it and refill it from the walk.
#[derive(Debug, Clone)]
pub struct K3Cursor<'a> {
    walk: Walk<'a>,
    /// Decoded runs; `buf[head]` is the current one.
    buf: Vec<(u64, u64)>,
    head: usize,
    count: usize,
}

impl<'a> K3Cursor<'a> {
    /// Parses the payload header and decodes the first batch of runs.
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        let mut pos = 0;
        let id_bits = read_uvarint(bytes, &mut pos)?;
        if id_bits == 0 || id_bits > u64::from(MAX_ID_BITS) {
            return Err(CodingError::Corrupt("bad k3-tree id width"));
        }
        let count = usize::try_from(read_uvarint(bytes, &mut pos)?).unwrap_or(usize::MAX);
        let levels = levels(id_bits as u32);
        let codes = bytes.get(pos..).unwrap_or_default();
        let mut stack = Vec::new();
        if count > 0 {
            stack.reserve_exact(levels as usize);
            stack.push(Frame { base: 0, shift: 3 * (levels - 1), next: 0 });
        }
        let walk = Walk { codes, pos: 0, stack, open: None, prune_below: 0, skips: 0 };
        let mut cursor = K3Cursor { walk, buf: Vec::new(), head: 0, count };
        // The node that fills a batch closes at most 32 runs more.
        cursor.buf.reserve_exact((BATCH + 40).min(cursor.max_runs()));
        cursor.refill()?;
        Ok(cursor)
    }

    /// Total runs recorded in the header.
    pub fn run_count(&self) -> usize {
        self.count
    }

    /// Most runs the code bytes can hold — each needs at least one
    /// 2-bit code — which caps any allocation the untrusted header
    /// count would drive.
    pub fn max_runs(&self) -> usize {
        if self.count == 0 {
            0
        } else {
            self.walk.codes.len().saturating_mul(4)
        }
    }

    /// Refills the run buffer with the next batch.
    fn refill(&mut self) -> Result<()> {
        self.buf.clear();
        self.head = 0;
        let buf = &mut self.buf;
        self.walk.walk(BATCH, &mut |start, end| buf.push((start, end)))
    }

    /// Hands every remaining run to `f` in id order, decoding straight
    /// off the codes without the run buffer.
    pub fn for_each_run(mut self, mut f: impl FnMut(u64, u64)) -> Result<()> {
        for &(start, end) in self.buf.get(self.head..).unwrap_or_default() {
            f(start, end);
        }
        self.walk.walk(usize::MAX, &mut f)
    }

    /// Drains the cursor into a `(start, end)` vector.  Test/API-edge
    /// helper — kernel code streams instead (lint
    /// `no-full-decode-in-kernel` bans this call there).
    pub fn decode_all(self) -> Result<Vec<(u64, u64)>> {
        let mut out = Vec::with_capacity(self.count.min(self.max_runs()));
        self.for_each_run(|start, end| out.push((start, end)))?;
        Ok(out)
    }
}

impl RunCursor for K3Cursor<'_> {
    #[inline]
    fn peek(&self) -> Option<(u64, u64)> {
        self.buf.get(self.head).copied()
    }

    #[inline]
    fn advance(&mut self) -> Result<()> {
        if self.head + 1 < self.buf.len() {
            self.head += 1;
            Ok(())
        } else if self.walk.stack.is_empty() {
            self.head = self.buf.len();
            Ok(())
        } else {
            self.refill()
        }
    }

    fn seek(&mut self, target: u64) -> Result<()> {
        loop {
            match self.buf.get(self.head..) {
                None | Some([]) => return Ok(()),
                Some(rest) => {
                    if rest.last().is_some_and(|&(_, end)| end >= target) {
                        self.head += rest.partition_point(|&(_, end)| end < target);
                        return Ok(());
                    }
                }
            }
            if self.walk.stack.is_empty() {
                self.head = self.buf.len();
                return Ok(());
            }
            self.walk.prune_below = self.walk.prune_below.max(target);
            self.refill()?;
        }
    }

    fn skips(&self) -> u64 {
        self.walk.skips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn canonical(mut ids: Vec<u64>) -> Vec<(u64, u64)> {
        ids.sort_unstable();
        ids.dedup();
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for id in ids {
            match runs.last_mut() {
                Some((_, end)) if *end + 1 == id => *end = id,
                _ => runs.push((id, id)),
            }
        }
        runs
    }

    #[test]
    fn dense_regions_collapse_to_a_few_codes() {
        // The full 12-bit id space: root's 8 children all FULL.
        let full = vec![(0u64, (1u64 << 12) - 1)];
        let bytes = encode_runs(&full, 12).unwrap();
        assert!(bytes.len() <= 4, "full grid should cost ~2 header bytes + 16 bits");
        let back = K3Cursor::new(&bytes).unwrap().decode_all().unwrap();
        assert_eq!(back, full);
    }

    #[test]
    fn roundtrips_structured_regions() {
        let runs = vec![(0u64, 63), (100, 100), (512, 1023), (2048, 2050)];
        let bytes = encode_runs(&runs, 12).unwrap();
        let back = K3Cursor::new(&bytes).unwrap().decode_all().unwrap();
        assert_eq!(back, runs);
    }

    #[test]
    fn empty_region_roundtrips() {
        let bytes = encode_runs(&[], 15).unwrap();
        let mut c = K3Cursor::new(&bytes).unwrap();
        assert_eq!(c.peek(), None);
        c.seek(10).unwrap();
        assert_eq!(c.peek(), None);
    }

    #[test]
    fn seek_prunes_earlier_subtrees() {
        // Every third id: every subtree is partial, so a long-distance
        // seek must consume interior subtrees without assembling them.
        let ids: Vec<u64> = (0..8_192).step_by(3).collect();
        let runs = canonical(ids);
        let bytes = encode_runs(&runs, 13).unwrap();
        let mut c = K3Cursor::new(&bytes).unwrap();
        c.seek(8_000).unwrap();
        assert_eq!(c.peek(), Some((8_001, 8_001)));
        assert!(c.skips() >= 1, "expected pruned subtrees, got {}", c.skips());
    }

    #[test]
    fn rejects_out_of_space_and_non_canonical_runs() {
        assert!(encode_runs(&[(0, 1 << 12)], 12).is_err());
        assert!(encode_runs(&[(5, 3)], 12).is_err());
        assert!(encode_runs(&[(0, 3), (4, 6)], 12).is_err());
    }

    #[test]
    fn truncated_payloads_error_not_panic() {
        let runs = vec![(0u64, 10), (500, 700), (4000, 4095)];
        let bytes = encode_runs(&runs, 12).unwrap();
        for cut in 0..bytes.len() {
            if let Ok(mut c) = K3Cursor::new(&bytes[..cut]) {
                while c.peek().is_some() {
                    if c.advance().is_err() {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn untrusted_run_count_does_not_drive_allocation() {
        // id_bits 3, a header count of 2^60, then one full cell: the
        // count must neither size a buffer nor fail the decode.
        let mut bytes = Vec::new();
        write_uvarint(&mut bytes, 3);
        write_uvarint(&mut bytes, 1 << 60);
        bytes.extend_from_slice(&[0b0100_0000, 0]);
        let cursor = K3Cursor::new(&bytes).unwrap();
        assert_eq!(cursor.run_count(), 1 << 60);
        assert!(cursor.max_runs() <= 8);
        assert_eq!(cursor.decode_all().unwrap(), vec![(0, 0)]);
    }

    #[test]
    fn cursor_runs_span_refills_and_cell_nodes() {
        // Alternating 3-id runs: many cell-level nodes, several refills,
        // and runs that cross node boundaries.
        let runs: Vec<(u64, u64)> = (0..400u64).map(|i| (i * 5 + 2, i * 5 + 4)).collect();
        let bytes = encode_runs(&runs, 12).unwrap();
        let mut c = K3Cursor::new(&bytes).unwrap();
        let mut got = Vec::new();
        while let Some(run) = c.peek() {
            got.push(run);
            c.advance().unwrap();
        }
        assert_eq!(got, runs);
        c.seek(0).unwrap();
        assert_eq!(c.peek(), None);
    }

    #[test]
    fn encoded_len_counts_partial_blocks() {
        for (runs, bits) in [
            (vec![], 9),
            (vec![(0u64, (1u64 << 12) - 1)], 12),
            (vec![(0, 63), (100, 100), (512, 1023), (2048, 2050)], 12),
            (vec![(7, 8)], 21),
            (vec![(0, 0), ((1 << 13) - 1, (1 << 13) - 1)], 13),
        ] {
            let len = encode_runs(&runs, bits).unwrap().len();
            assert_eq!(encoded_len(&runs, bits).unwrap(), len, "{runs:?}");
        }
        assert!(encoded_len(&[(5, 3)], 12).is_err());
        assert!(encoded_len(&[], 34).is_err());
    }

    proptest! {
        #[test]
        fn fuzz_roundtrip_random_regions(ids in proptest::collection::vec(0u64..32_768, 0..500)) {
            let runs = canonical(ids);
            let bytes = encode_runs(&runs, 15).unwrap();
            let back = K3Cursor::new(&bytes).unwrap().decode_all().unwrap();
            prop_assert_eq!(back, runs);
        }

        #[test]
        fn fuzz_seek_returns_clipped_suffix(
            ids in proptest::collection::vec(0u64..8_192, 1..300),
            target in 0u64..9_000,
        ) {
            let runs = canonical(ids);
            let bytes = encode_runs(&runs, 13).unwrap();
            let mut c = K3Cursor::new(&bytes).unwrap();
            c.seek(target).unwrap();
            let truth = runs.iter().find(|&&(_, e)| e >= target).copied();
            match (c.peek(), truth) {
                (None, None) => {}
                (Some((got_s, got_e)), Some((want_s, want_e))) => {
                    // The cursor may clip ids below the seek target but
                    // must agree from the target onward.
                    prop_assert_eq!(got_e, want_e);
                    prop_assert_eq!(got_s.max(target), want_s.max(target));
                    prop_assert!(got_s >= want_s);
                }
                (got, want) => prop_assert!(false, "got {:?} want {:?}", got, want),
            }
        }
    }
}
