//! The bit-by-bit k³-tree codec, kept as a test oracle.
//!
//! This is the encoder and cursor `qbism_coding::k3tree` shipped before
//! its word-at-a-time rewrite: one `BitWriter::write_bits` call per
//! 2-bit code, two `partition_point` splits per child, and one
//! `BitReader::read_bits(2)` per code on decode.  It shares no code with
//! the codec it checks beyond the public bit I/O and varint helpers, so
//! the differential suites compare the rewrite's bytes, runs, seeks and
//! errors against it.  Test code only; nothing at run time calls it.

// Each including suite uses a different subset of the oracle.
#![allow(dead_code)]

use qbism_coding::{
    read_uvarint, write_uvarint, BitReader, BitWriter, CodingError, Result, RunCursor,
};

const EMPTY: u64 = 0;
const FULL: u64 = 1;
const PARTIAL: u64 = 2;

/// Encodes a canonical run list over `[0, 2^id_bits)` into a k³-tree
/// payload (`varint id_bits`, `varint run_count`, then the bit codes).
pub fn encode_runs(runs: &[(u64, u64)], id_bits: u32) -> Result<Vec<u8>> {
    if id_bits == 0 || id_bits > 33 {
        return Err(CodingError::ValueOutOfDomain { value: u64::from(id_bits), codec: "k3-tree" });
    }
    let levels = id_bits.div_ceil(3).max(1);
    let size = 8u64.pow(levels);
    let mut prev: Option<u64> = None;
    for &(start, end) in runs {
        if end < start || end >= (1u64 << id_bits) {
            return Err(CodingError::Corrupt("run outside the id space"));
        }
        if let Some(pe) = prev {
            if start < pe + 2 {
                return Err(CodingError::Corrupt("run list not canonical"));
            }
        }
        prev = Some(end);
    }
    let mut out = Vec::new();
    write_uvarint(&mut out, u64::from(id_bits));
    write_uvarint(&mut out, runs.len() as u64);
    if !runs.is_empty() {
        let mut w = BitWriter::new();
        encode_node(&mut w, runs, 0, size);
        out.extend_from_slice(&w.finish());
    }
    Ok(out)
}

/// Emits one internal node: eight 2-bit child codes in id order, each
/// partial child's subtree following its code immediately (preorder).
fn encode_node(w: &mut BitWriter, runs: &[(u64, u64)], base: u64, size: u64) {
    let csize = size / 8;
    for i in 0..8 {
        let lo = base + i * csize;
        let hi = lo + csize - 1;
        let from = runs.partition_point(|&(_, end)| end < lo);
        let to = runs.partition_point(|&(start, _)| start <= hi);
        let slice = &runs[from..to];
        if slice.is_empty() {
            w.write_bits(EMPTY, 2);
        } else if slice.len() == 1 && slice[0].0 <= lo && slice[0].1 >= hi {
            w.write_bits(FULL, 2);
        } else {
            w.write_bits(PARTIAL, 2);
            encode_node(w, slice, lo, csize);
        }
    }
}

/// One DFS frame: a node's id range and the next child to visit.
#[derive(Debug, Clone, Copy)]
struct Frame {
    base: u64,
    /// Ids covered by one child of this node.
    child_size: u64,
    next_child: u8,
}

/// The bit-by-bit streaming run decoder.
#[derive(Debug, Clone)]
pub struct K3Cursor<'a> {
    bits: BitReader<'a>,
    stack: Vec<Frame>,
    /// Fully-covered interval read ahead of `current` (adjacency
    /// lookahead for maximal-run assembly).
    lookahead: Option<(u64, u64)>,
    current: Option<(u64, u64)>,
    count: usize,
    skips: u64,
    /// Subtrees wholly before this id may be consumed unassembled.
    prune_below: u64,
}

impl<'a> K3Cursor<'a> {
    /// Parses the payload header and decodes the first run.
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        let mut pos = 0;
        let id_bits = read_uvarint(bytes, &mut pos)?;
        if id_bits == 0 || id_bits > 33 {
            return Err(CodingError::Corrupt("bad k3-tree id width"));
        }
        let count = read_uvarint(bytes, &mut pos)? as usize;
        let levels = (id_bits as u32).div_ceil(3).max(1);
        let size = 8u64.pow(levels);
        let mut cursor = K3Cursor {
            bits: BitReader::new(&bytes[pos..]),
            stack: Vec::with_capacity(levels as usize),
            lookahead: None,
            current: None,
            count,
            skips: 0,
            prune_below: 0,
        };
        if count > 0 {
            cursor.stack.push(Frame { base: 0, child_size: size / 8, next_child: 0 });
            cursor.pump()?;
        }
        Ok(cursor)
    }

    /// Total runs recorded in the header.
    pub fn run_count(&self) -> usize {
        self.count
    }

    /// Next fully-covered child interval in id order, pruning subtrees
    /// that end below `prune_below`.
    fn next_covered(&mut self) -> Result<Option<(u64, u64)>> {
        while let Some(frame) = self.stack.last().copied() {
            if frame.next_child >= 8 {
                self.stack.pop();
                continue;
            }
            let lo = frame.base + u64::from(frame.next_child) * frame.child_size;
            let hi = lo + frame.child_size - 1;
            if let Some(top) = self.stack.last_mut() {
                top.next_child += 1;
            }
            match self.bits.read_bits(2)? {
                EMPTY => {}
                FULL => {
                    if hi >= self.prune_below {
                        return Ok(Some((lo, hi)));
                    }
                }
                PARTIAL => {
                    if frame.child_size < 8 {
                        return Err(CodingError::Corrupt("partial code at cell level"));
                    }
                    if hi < self.prune_below {
                        // The whole subtree precedes the seek target:
                        // consume its codes without assembling runs.
                        self.consume_subtree(frame.child_size / 8)?;
                        self.skips += 1;
                    } else {
                        self.stack.push(Frame {
                            base: lo,
                            child_size: frame.child_size / 8,
                            next_child: 0,
                        });
                    }
                }
                _ => return Err(CodingError::Corrupt("bad k3-tree child code")),
            }
        }
        Ok(None)
    }

    /// Reads past one subtree's codes (a node whose children each cover
    /// `child_size` ids) without emitting anything.
    fn consume_subtree(&mut self, child_size: u64) -> Result<()> {
        for _ in 0..8 {
            if self.bits.read_bits(2)? == PARTIAL {
                if child_size < 8 {
                    return Err(CodingError::Corrupt("partial code at cell level"));
                }
                self.consume_subtree(child_size / 8)?;
            }
        }
        Ok(())
    }

    /// Assembles the next maximal run into `current`.
    fn pump(&mut self) -> Result<()> {
        if self.current.is_some() {
            return Ok(());
        }
        let first = match self.lookahead.take() {
            Some(iv) => Some(iv),
            None => self.next_covered()?,
        };
        let Some((start, mut end)) = first else {
            return Ok(());
        };
        // Extend while covered intervals stay adjacent.
        loop {
            match self.next_covered()? {
                Some((lo, hi)) if lo == end + 1 => end = hi,
                other => {
                    self.lookahead = other;
                    break;
                }
            }
        }
        self.current = Some((start, end));
        Ok(())
    }

    /// Drains the cursor into a `(start, end)` vector.  Test/API-edge
    /// helper — kernel code streams instead (lint
    /// `no-full-decode-in-kernel` bans this call there).
    pub fn decode_all(mut self) -> Result<Vec<(u64, u64)>> {
        // No pre-allocation: the header count is untrusted.
        let mut out = Vec::new();
        while let Some(run) = self.peek() {
            out.push(run);
            self.advance()?;
        }
        Ok(out)
    }
}

impl RunCursor for K3Cursor<'_> {
    fn peek(&self) -> Option<(u64, u64)> {
        self.current
    }

    fn advance(&mut self) -> Result<()> {
        self.current = None;
        self.pump()
    }

    fn seek(&mut self, target: u64) -> Result<()> {
        self.prune_below = self.prune_below.max(target);
        loop {
            match self.current {
                Some((_, end)) if end >= target => return Ok(()),
                Some(_) => {
                    self.current = None;
                    if let Some((_, la_end)) = self.lookahead {
                        if la_end < target {
                            self.lookahead = None;
                        }
                    }
                    self.pump()?;
                }
                None => {
                    self.pump()?;
                    if self.current.is_none() {
                        return Ok(());
                    }
                }
            }
        }
    }

    fn skips(&self) -> u64 {
        self.skips
    }
}
