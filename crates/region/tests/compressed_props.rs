//! Compressed-domain kernel equivalence suite.
//!
//! Pins the property the one cursor algebra promises: every merge over
//! *compressed* operands produces exactly the run list an independent
//! `BTreeSet` oracle produces on the decoded operands — for both
//! queryable codecs (run-vskip and k³-tree), in every pairing, and for a
//! decoded Figure-4 operand (naive or Elias) merged with a queryable
//! one, at the paper's 64³ and 128³ grid scales.  Round-trip identity of
//! the codecs themselves is pinned alongside.

use proptest::prelude::*;
use qbism_region::kernel::difference;
use qbism_region::kernel_compressed::{intersect_k_stream, intersect_stream, union_stream};
use qbism_region::{compressed_cursor, encode_compressed, region_cursor, CompressedCursor};
use qbism_region::{GridGeometry, Region, RegionCodec, Run};
use qbism_sfc::CurveKind;

mod reference;

fn geom(bits: u32) -> GridGeometry {
    GridGeometry::new(CurveKind::Hilbert, 3, bits)
}

/// Builds a region mixing scattered ids with a solid box, so payloads
/// exercise both the sparse (run-list) and dense (octree) code paths.
/// `bx` is `(has_box, min, size)` — the box is skipped when `has_box`
/// is 0, and clamped into the grid otherwise.
fn make_region(bits: u32, ids: &[u64], bx: (u8, [u32; 3], [u32; 3])) -> Region {
    let g = geom(bits);
    let cells = g.cell_count();
    let mut r = Region::from_ids(g, ids.iter().map(|id| id % cells).collect());
    let (has_box, min, size) = bx;
    if has_box != 0 {
        let side = 1u32 << bits;
        let min = [min[0] % side, min[1] % side, min[2] % side];
        let max = [
            (min[0] + size[0] % (side / 2)).min(side - 1),
            (min[1] + size[1] % (side / 2)).min(side - 1),
            (min[2] + size[2] % (side / 2)).min(side - 1),
        ];
        if let Some(b) = Region::from_box(g, min, max) {
            r = r.union(&b);
        }
    }
    r
}

/// Encodes with the codec picked by `which` (0 = run-vskip, 1 =
/// k³-tree, 2 = the auto policy) and opens a streaming cursor.
fn encode_as(region: &Region, which: u8) -> Vec<u8> {
    match which {
        0 => RegionCodec::RunVskip.encode(region).expect("encode run-vskip"),
        1 => RegionCodec::K3Tree.encode(region).expect("encode k3-tree"),
        _ => encode_compressed(region).expect("encode auto"),
    }
}

fn open(bytes: &[u8]) -> CompressedCursor<'_> {
    compressed_cursor(bytes).expect("open compressed cursor").1
}

/// Encodes with a Figure-4 codec (0 = naive, 1 = Elias) or a queryable
/// one (0 = run-vskip, 1 = k³-tree).
fn encode_mixed(region: &Region, figure4: bool, which: u8) -> Vec<u8> {
    let codec = match (figure4, which) {
        (true, 0) => RegionCodec::Naive,
        (true, _) => RegionCodec::Elias,
        (false, 0) => RegionCodec::RunVskip,
        (false, _) => RegionCodec::K3Tree,
    };
    codec.encode(region).expect("encode")
}

/// Opens any codec: queryable payloads in place, Figure-4 decoded.
fn open_any(bytes: &[u8]) -> CompressedCursor<'_> {
    region_cursor(bytes).expect("open region cursor").1
}

proptest! {
    /// Both queryable codecs round-trip every region exactly, at both
    /// paper grid scales.
    #[test]
    fn queryable_codecs_roundtrip(
        bits_pick in 0u32..2,
        ids in proptest::collection::vec(0u64..(1 << 21), 0..250),
        bx in (0u8..2, proptest::array::uniform3(0u32..128), proptest::array::uniform3(0u32..64)),
    ) {
        let region = make_region(6 + bits_pick, &ids, bx);
        for codec in RegionCodec::COMPRESSED {
            let bytes = codec.encode(&region).expect("encode");
            let back = RegionCodec::decode(&bytes).expect("decode");
            prop_assert_eq!(&back, &region, "codec {} round-trip", codec.name());
        }
        let auto = encode_compressed(&region).expect("auto encode");
        prop_assert_eq!(&RegionCodec::decode(&auto).expect("auto decode"), &region);
    }

    /// The storage policy sizes both codecs in closed form: it writes
    /// exactly the bytes that encoding both ways and keeping the
    /// smaller (ties to run-vskip) wrote, and each codec's
    /// `encoded_len` is its byte string's length.
    #[test]
    fn storage_policy_matches_the_encode_both_choice(
        bits_pick in 0u32..2,
        ids in proptest::collection::vec(0u64..(1 << 21), 0..250),
        bx in (0u8..2, proptest::array::uniform3(0u32..128), proptest::array::uniform3(0u32..64)),
    ) {
        let region = make_region(6 + bits_pick, &ids, bx);
        let vskip = RegionCodec::RunVskip.encode(&region).expect("encode run-vskip");
        let k3 = RegionCodec::K3Tree.encode(&region).expect("encode k3-tree");
        prop_assert_eq!(RegionCodec::RunVskip.encoded_len(&region).expect("size"), vskip.len());
        prop_assert_eq!(RegionCodec::K3Tree.encoded_len(&region).expect("size"), k3.len());
        let smaller = if vskip.len() <= k3.len() { vskip } else { k3 };
        prop_assert_eq!(encode_compressed(&region).expect("policy"), smaller);
    }

    /// Pairwise streaming merges equal the set oracle for every codec
    /// pairing (run-vskip × k³-tree × auto).
    #[test]
    fn pair_merges_match_set_oracle(
        bits_pick in 0u32..2,
        a_ids in proptest::collection::vec(0u64..(1 << 21), 0..250),
        b_ids in proptest::collection::vec(0u64..(1 << 21), 0..250),
        a_bx in (0u8..2, proptest::array::uniform3(0u32..128), proptest::array::uniform3(0u32..64)),
        b_bx in (0u8..2, proptest::array::uniform3(0u32..128), proptest::array::uniform3(0u32..64)),
        a_codec in 0u8..3,
        b_codec in 0u8..3,
    ) {
        let bits = 6 + bits_pick;
        let a = make_region(bits, &a_ids, a_bx);
        let b = make_region(bits, &b_ids, b_bx);
        let a_bytes = encode_as(&a, a_codec);
        let b_bytes = encode_as(&b, b_codec);

        let got = intersect_stream(&mut open(&a_bytes), &mut open(&b_bytes)).expect("intersect");
        prop_assert_eq!(got, reference::intersect(a.runs(), b.runs()));

        let got = union_stream(&mut open(&a_bytes), &mut open(&b_bytes)).expect("union");
        prop_assert_eq!(got, reference::union(a.runs(), b.runs()));

        let got = difference(&mut open(&a_bytes), &mut open(&b_bytes)).expect("difference");
        prop_assert_eq!(got, reference::difference(a.runs(), b.runs()));
    }

    /// A decoded Figure-4 operand (naive or Elias) merges with a
    /// queryable one (run-vskip or k³-tree) in either order, through the
    /// same kernels, and equals the set oracle.
    #[test]
    fn decoded_and_queryable_pair_merges_match_set_oracle(
        bits_pick in 0u32..2,
        a_ids in proptest::collection::vec(0u64..(1 << 21), 0..250),
        b_ids in proptest::collection::vec(0u64..(1 << 21), 0..250),
        a_bx in (0u8..2, proptest::array::uniform3(0u32..128), proptest::array::uniform3(0u32..64)),
        b_bx in (0u8..2, proptest::array::uniform3(0u32..128), proptest::array::uniform3(0u32..64)),
        decoded_first in any::<bool>(),
        figure4 in 0u8..2,
        queryable in 0u8..2,
    ) {
        let bits = 6 + bits_pick;
        let a = make_region(bits, &a_ids, a_bx);
        let b = make_region(bits, &b_ids, b_bx);
        let a_bytes = encode_mixed(&a, decoded_first, if decoded_first { figure4 } else { queryable });
        let b_bytes = encode_mixed(&b, !decoded_first, if decoded_first { queryable } else { figure4 });

        let got =
            intersect_stream(&mut open_any(&a_bytes), &mut open_any(&b_bytes)).expect("intersect");
        prop_assert_eq!(got, reference::intersect(a.runs(), b.runs()));

        let got = union_stream(&mut open_any(&a_bytes), &mut open_any(&b_bytes)).expect("union");
        prop_assert_eq!(got, reference::union(a.runs(), b.runs()));

        let got = difference(&mut open_any(&a_bytes), &mut open_any(&b_bytes)).expect("difference");
        prop_assert_eq!(got, reference::difference(a.runs(), b.runs()));
    }

    /// The k-way compressed intersect (the multi-study fold) equals the
    /// set oracle.
    #[test]
    fn kway_matches_set_oracle(
        bits_pick in 0u32..2,
        id_sets in proptest::collection::vec(
            proptest::collection::vec(0u64..(1 << 21), 0..200), 1..5),
        codec in 0u8..3,
    ) {
        let bits = 6 + bits_pick;
        let regions: Vec<Region> =
            id_sets.iter().map(|ids| make_region(bits, ids, (0, [0; 3], [0; 3]))).collect();
        let blobs: Vec<Vec<u8>> = regions.iter().map(|r| encode_as(r, codec)).collect();
        let mut cursors: Vec<CompressedCursor<'_>> = blobs.iter().map(|b| open(b)).collect();
        let mut refs: Vec<&mut dyn qbism_coding::RunCursor> =
            cursors.iter_mut().map(|c| c as &mut dyn qbism_coding::RunCursor).collect();
        let got = intersect_k_stream(&mut refs).expect("k-way");
        let lists: Vec<&[Run]> = regions.iter().map(|r| r.runs()).collect();
        prop_assert_eq!(got, reference::intersect_many(&lists));
    }

    /// The k-way intersect over a mix of decoded Figure-4 and queryable
    /// operands (each operand's codec drawn independently) equals the
    /// set oracle.
    #[test]
    fn kway_over_decoded_and_queryable_matches_set_oracle(
        bits_pick in 0u32..2,
        id_sets in proptest::collection::vec(
            proptest::collection::vec(0u64..(1 << 21), 0..200), 2..5),
        codecs in proptest::collection::vec(0u8..4, 5..6),
    ) {
        let bits = 6 + bits_pick;
        let regions: Vec<Region> =
            id_sets.iter().map(|ids| make_region(bits, ids, (0, [0; 3], [0; 3]))).collect();
        // Operand 0 is always decoded and operand 1 always queryable, so
        // every case mixes the two kinds.
        let blobs: Vec<Vec<u8>> = regions
            .iter()
            .zip(&codecs)
            .enumerate()
            .map(|(i, (r, &c))| match i {
                0 => encode_mixed(r, true, c % 2),
                1 => encode_mixed(r, false, c % 2),
                _ => encode_mixed(r, c >= 2, c % 2),
            })
            .collect();
        let mut cursors: Vec<CompressedCursor<'_>> = blobs.iter().map(|b| open_any(b)).collect();
        let mut refs: Vec<&mut CompressedCursor<'_>> = cursors.iter_mut().collect();
        let got = intersect_k_stream(&mut refs).expect("k-way");
        let lists: Vec<&[Run]> = regions.iter().map(|r| r.runs()).collect();
        prop_assert_eq!(got, reference::intersect_many(&lists));
    }
}

/// Deterministic spot check: the auto policy picks the octree for a
/// dense solid, and a far seek gallops instead of scanning.
#[test]
fn auto_policy_and_gallop_observable() {
    let g = geom(6);
    let dense = Region::from_box(g, [0, 0, 0], [63, 63, 63]).expect("full box");
    let dense_bytes = encode_compressed(&dense).expect("encode dense");
    let sparse = Region::from_ids(g, (0..(1u64 << 18)).step_by(97).collect());
    let sparse_bytes = encode_compressed(&sparse).expect("encode sparse");
    assert!(
        dense_bytes.len() < RegionCodec::RunVskip.encode(&dense).expect("vskip").len(),
        "octree should win on the full grid"
    );

    use qbism_coding::RunCursor;
    for bytes in [&dense_bytes, &sparse_bytes] {
        let mut cursor = open(bytes);
        cursor.seek(1 << 17).expect("seek");
        assert!(cursor.peek().is_some());
    }
    let mut cursor = open(&sparse_bytes);
    cursor.seek(97 * 2_700).expect("seek far");
    assert_eq!(cursor.peek(), Some((97 * 2_700, 97 * 2_700)));
    assert!(cursor.skip_count() > 0, "far seek should gallop, not scan");
}
