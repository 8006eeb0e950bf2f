//! Opening encoded REGION byte strings as merge cursors.
//!
//! The Figure-4 codecs ([`RegionCodec::Naive`], `Elias`, the octant
//! packings) are storage studies: compact, but a kernel must fully
//! decode them before operating.  The two *queryable* codecs added for
//! compressed-domain execution — [`RegionCodec::RunVskip`] (delta+varint
//! run list with skip blocks) and [`RegionCodec::K3Tree`] (octree
//! bitmap) — stream in place instead.  [`region_cursor`] opens either
//! kind as one [`RegionCursor`], so every operator runs the same
//! [`crate::kernel`] merge whatever the storage codec.
//!
//! [`encode_compressed`] is the compressed storage policy: it sizes
//! both encodings in closed form and writes the smaller one, so sparse
//! boundary-dominated structures land in the skip-block run list and
//! dense blobs in the k³-tree.

use crate::encode::{run_pairs, split_header, RegionCodec, RegionEncodeError};
use crate::geometry::GridGeometry;
use crate::kernel::{self, RunsCursor};
use crate::region::Region;
use crate::run::Run;
use qbism_coding::{K3Cursor, RunCursor, RunListCursor};

/// A streaming, seekable cursor over an encoded REGION.
#[derive(Debug, Clone)]
pub enum RegionCursor<'a> {
    /// A Figure-4 payload, decoded and validated up front.
    Decoded(RunsCursor<Vec<Run>>),
    /// Delta+varint run list with a skip-block directory.
    RunList(RunListCursor<'a>),
    /// k³-tree octree bitmap.
    K3(K3Cursor<'a>),
}

/// The name the benchmark and the compressed suites import.
pub type CompressedCursor<'a> = RegionCursor<'a>;

impl RunCursor for RegionCursor<'_> {
    #[inline]
    fn peek(&self) -> Option<(u64, u64)> {
        match self {
            RegionCursor::Decoded(c) => kernel::RunSource::peek(c).map(|r| (r.start, r.end)),
            RegionCursor::RunList(c) => c.peek(),
            RegionCursor::K3(c) => c.peek(),
        }
    }

    #[inline]
    fn advance(&mut self) -> qbism_coding::Result<()> {
        match self {
            RegionCursor::Decoded(c) => {
                let Ok(()) = kernel::RunSource::advance(c);
                Ok(())
            }
            RegionCursor::RunList(c) => c.advance(),
            RegionCursor::K3(c) => c.advance(),
        }
    }

    #[inline]
    fn seek(&mut self, target: u64) -> qbism_coding::Result<()> {
        match self {
            RegionCursor::Decoded(c) => {
                let Ok(()) = kernel::RunSource::seek(c, target);
                Ok(())
            }
            RegionCursor::RunList(c) => c.seek(target),
            RegionCursor::K3(c) => c.seek(target),
        }
    }

    /// A decoded payload has no decoding left to skip, so it reports 0.
    fn skips(&self) -> u64 {
        match self {
            RegionCursor::Decoded(_) => 0,
            RegionCursor::RunList(c) => c.skips(),
            RegionCursor::K3(c) => c.skips(),
        }
    }
}

/// A decoded payload offers its run list, so merges over decoded
/// operands only run over plain slices.
impl kernel::RunSource for RegionCursor<'_> {
    type Error = RegionEncodeError;

    #[inline]
    fn peek(&self) -> Option<Run> {
        RunCursor::peek(self).map(|(start, end)| Run { start, end })
    }

    #[inline]
    fn advance(&mut self) -> Result<(), RegionEncodeError> {
        Ok(RunCursor::advance(self)?)
    }

    #[inline]
    fn seek(&mut self, target: u64) -> Result<(), RegionEncodeError> {
        Ok(RunCursor::seek(self, target)?)
    }

    fn remaining(&self) -> Option<&[Run]> {
        match self {
            RegionCursor::Decoded(c) => c.remaining(),
            RegionCursor::RunList(_) | RegionCursor::K3(_) => None,
        }
    }
}

impl RegionCursor<'_> {
    /// Skip-jumps taken so far, callable without importing
    /// [`RunCursor`] (downstream crates may not depend on
    /// `qbism_coding` directly).
    pub fn skip_count(&self) -> u64 {
        self.skips()
    }

    /// Drains the stream into a run vector.  Decode-everything
    /// convenience for tests and the [`RegionCodec::decode`] fallback —
    /// kernel modules must stream instead (lint
    /// `no-full-decode-in-kernel` bans this call there).
    pub fn to_runs_vec(mut self) -> Result<Vec<Run>, RegionEncodeError> {
        let mut out = Vec::new();
        while let Some((start, end)) = RunCursor::peek(&self) {
            out.push(Run::new(start, end));
            RunCursor::advance(&mut self)?;
        }
        Ok(out)
    }
}

/// Opens any encoded REGION as a geometry plus merge cursor: queryable
/// payloads stream in place, Figure-4 payloads decode through the
/// validated [`RegionCodec::decode`].
pub fn region_cursor(bytes: &[u8]) -> Result<(GridGeometry, RegionCursor<'_>), RegionEncodeError> {
    let (codec, geom, _count, body) = split_header(bytes)?;
    let cursor = match codec {
        RegionCodec::RunVskip => RegionCursor::RunList(RunListCursor::new(body)?),
        RegionCodec::K3Tree => RegionCursor::K3(K3Cursor::new(body)?),
        _ => RegionCursor::Decoded(RunsCursor::new(RegionCodec::decode(bytes)?.into_runs())),
    };
    Ok((geom, cursor))
}

/// Opens a compressed REGION byte string as a geometry plus streaming
/// cursor, without decoding the payload.
///
/// Errors with [`RegionEncodeError::BadTag`] if the byte string holds
/// one of the non-queryable Figure-4 codecs.
pub fn compressed_cursor(
    bytes: &[u8],
) -> Result<(GridGeometry, RegionCursor<'_>), RegionEncodeError> {
    let (codec, ..) = split_header(bytes)?;
    if !codec.is_compressed() {
        return Err(RegionEncodeError::BadTag(codec.tag()));
    }
    region_cursor(bytes)
}

/// True if `bytes` is an encoded REGION in one of the queryable
/// compressed formats (cheap header sniff, no payload access).
pub fn is_compressed(bytes: &[u8]) -> bool {
    matches!(split_header(bytes), Ok((RegionCodec::RunVskip | RegionCodec::K3Tree, _, _, _)))
}

/// Encodes a region in the smaller of the two queryable compressed
/// formats — run lists win on sparse boundary-heavy structures,
/// k³-trees on dense blobs; a tie keeps the run list.  Both sizes are
/// closed-form, so the region is encoded once.
pub fn encode_compressed(region: &Region) -> Result<Vec<u8>, RegionEncodeError> {
    let geom = region.geometry();
    let pairs = run_pairs(region);
    let vskip = RegionCodec::RunVskip.pairs_len(geom, &pairs)?;
    let k3 = RegionCodec::K3Tree.pairs_len(geom, &pairs)?;
    let codec = if vskip <= k3 { RegionCodec::RunVskip } else { RegionCodec::K3Tree };
    codec.encode_pairs(geom, &pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbism_sfc::CurveKind;

    #[test]
    fn equal_sizes_keep_the_run_list() {
        // The empty region costs 12 bytes either way.
        let empty = Region::empty(GridGeometry::new(CurveKind::Hilbert, 3, 7));
        let bytes = encode_compressed(&empty).unwrap();
        assert_eq!(RegionCodec::K3Tree.encoded_len(&empty).unwrap(), bytes.len());
        assert_eq!(split_header(&bytes).unwrap().0, RegionCodec::RunVskip);
    }
}
