//! The word-at-a-time k³-tree codec against the bit-by-bit codec it
//! replaced.
//!
//! `reference` is that old encoder and cursor, kept as an oracle.  The
//! suites check that the rewrite writes identical bytes, sizes them in
//! closed form, drains and seeks to the same runs, and accepts and
//! rejects the same corrupted payloads: random ones, and the real ones
//! a small installation stores (`fixtures/k3_small_test.hex`).

mod reference;

use proptest::prelude::*;
use qbism_coding::k3tree::{encode_runs, encoded_len};
use qbism_coding::{runcode, K3Cursor, Result, RunCursor};

/// Canonical runs over `[0, 2^id_bits)` from `(gap, len)` steps.
fn runs_from_steps(steps: &[(u64, u64)], id_bits: u32) -> Vec<(u64, u64)> {
    let mut runs = Vec::new();
    let mut next = 0u64;
    for &(gap, len) in steps {
        let start = next + gap;
        let end = start + len - 1;
        if end >= 1u64 << id_bits {
            break;
        }
        runs.push((start, end));
        next = end + 2;
    }
    runs
}

/// Scale-free lengths, so short runs sit beside subtree-sized ones and
/// every level sees full, empty and partial children.
fn scale_free(min: u64) -> impl Strategy<Value = u64> {
    (0u64..8, 0u32..14).prop_map(move |(m, e)| min + (m << e))
}

fn region() -> impl Strategy<Value = (Vec<(u64, u64)>, u32)> {
    (proptest::collection::vec((scale_free(0), scale_free(1)), 0..160), 1u32..=24)
        .prop_map(|(steps, id_bits)| (runs_from_steps(&steps, id_bits), id_bits))
}

/// The real payloads of the fixture file.
fn fixture_payloads() -> Vec<Vec<u8>> {
    include_str!("fixtures/k3_small_test.hex")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            (0..line.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&line[i..i + 2], 16).expect("hex fixture"))
                .collect()
        })
        .collect()
}

fn drain_new(bytes: &[u8]) -> Result<Vec<(u64, u64)>> {
    K3Cursor::new(bytes)?.decode_all()
}

fn drain_reference(bytes: &[u8]) -> Result<Vec<(u64, u64)>> {
    reference::K3Cursor::new(bytes)?.decode_all()
}

/// Steps a cursor through `peek`/`advance` alone.
fn step_all(c: &mut dyn RunCursor) -> Result<Vec<(u64, u64)>> {
    let mut out = Vec::new();
    while let Some(run) = c.peek() {
        out.push(run);
        c.advance()?;
    }
    Ok(out)
}

/// Applies `ops` (a seek forward by the value, or an advance when it is
/// zero), records what the cursor reports after each, then drains it.
/// A run reported right after a seek has its start raised to the
/// target: the seek contract lets a cursor clip ids below it.
fn replay(c: &mut dyn RunCursor, ops: &[u64]) -> Result<Vec<Option<(u64, u64)>>> {
    let mut out = Vec::new();
    let (mut target, mut floor) = (0u64, 0u64);
    for &op in ops {
        floor = if op == 0 {
            c.advance()?;
            0
        } else {
            target += op;
            c.seek(target)?;
            target
        };
        out.push(c.peek().map(|(start, end)| (start.max(floor), end)));
    }
    out.push(None);
    let mut rest = step_all(c)?;
    if let Some(first) = rest.first_mut() {
        first.0 = first.0.max(floor);
    }
    out.extend(rest.into_iter().map(Some));
    Ok(out)
}

fn replay_new(bytes: &[u8], ops: &[u64]) -> Result<Vec<Option<(u64, u64)>>> {
    replay(&mut K3Cursor::new(bytes)?, ops)
}

fn replay_reference(bytes: &[u8], ops: &[u64]) -> Result<Vec<Option<(u64, u64)>>> {
    replay(&mut reference::K3Cursor::new(bytes)?, ops)
}

/// Seek steps from a single id to several subtrees' worth, and (a
/// third of the time) advances.
fn ops() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec((0u8..3, scale_free(1)), 0..24).prop_map(|ops| {
        ops.into_iter().map(|(kind, step)| if kind == 0 { 0 } else { step }).collect()
    })
}

/// A corrupted payload drains to the same runs as on the reference, or
/// fails with the same error.  A seek replay may fail where the
/// reference passes —
/// pruned subtrees are validated as strictly as decoded ones, and the
/// cursor reads a batch ahead — but never the other way round, and
/// when both pass they agree.
fn assert_same_verdict(bytes: &[u8], what: &str) {
    assert_eq!(drain_new(bytes), drain_reference(bytes), "{what}");
    for ops in [&[1u64, 0, 40, 0, 0, 300][..], &[7, 7, 1000, 0, 5000]] {
        match (replay_new(bytes, ops), replay_reference(bytes, ops)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}: seeks {ops:?}"),
            (Ok(_), Err(e)) => panic!("{what}: seeks {ops:?} accepted, reference failed: {e}"),
            (Err(_), _) => {}
        }
    }
}

#[test]
fn fixture_payloads_decode_like_the_reference() {
    let payloads = fixture_payloads();
    assert_eq!(payloads.len(), 26);
    for bytes in &payloads {
        let runs = drain_reference(bytes).expect("stored payload decodes");
        assert!(!runs.is_empty());
        assert_eq!(drain_new(bytes).expect("new decode"), runs);
        let id_bits = 12; // small_test: 16³ grid
        assert_eq!(&encode_runs(&runs, id_bits).expect("re-encode"), bytes);
        assert_eq!(encoded_len(&runs, id_bits).expect("size"), bytes.len());
    }
}

#[test]
fn every_seek_target_on_a_real_payload_matches_the_reference() {
    let clip = |run: Option<(u64, u64)>, target: u64| run.map(|(s, e)| (s.max(target), e));
    for bytes in &fixture_payloads() {
        for target in 0..1 << 12 {
            let mut new = K3Cursor::new(bytes).expect("open");
            let mut old = reference::K3Cursor::new(bytes).expect("open reference");
            new.seek(target).expect("seek");
            old.seek(target).expect("reference seek");
            assert_eq!(clip(new.peek(), target), clip(old.peek(), target), "seek {target}");
            new.advance().expect("advance");
            old.advance().expect("reference advance");
            assert_eq!(new.peek(), old.peek(), "after seek {target}");
        }
    }
}

#[test]
fn every_truncation_of_a_real_payload_matches_the_reference() {
    for (i, bytes) in fixture_payloads().iter().enumerate() {
        for cut in 0..bytes.len() {
            assert_same_verdict(&bytes[..cut], &format!("payload {i} cut at {cut}"));
        }
    }
}

#[test]
fn every_bit_flip_of_a_real_payload_matches_the_reference() {
    for (i, bytes) in fixture_payloads().iter().enumerate() {
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 0x80 >> (bit % 8);
            assert_same_verdict(&flipped, &format!("payload {i} bit {bit}"));
        }
    }
}

#[test]
fn invalid_inputs_fail_on_both_encoders() {
    for (runs, id_bits) in [
        (vec![(0u64, 1u64 << 12)], 12),
        (vec![(5, 3)], 12),
        (vec![(0, 3), (4, 6)], 12),
        (vec![(0, 3)], 0),
        (vec![(0, 3)], 34),
    ] {
        assert!(encode_runs(&runs, id_bits).is_err());
        assert!(reference::encode_runs(&runs, id_bits).is_err());
        assert!(encoded_len(&runs, id_bits).is_err());
    }
}

proptest! {
    #[test]
    fn encoder_writes_the_reference_bytes(region in region()) {
        let (runs, id_bits) = region;
        let bytes = encode_runs(&runs, id_bits).expect("encode");
        prop_assert_eq!(&bytes, &reference::encode_runs(&runs, id_bits).expect("reference"));
        prop_assert_eq!(encoded_len(&runs, id_bits).expect("size"), bytes.len());
        prop_assert_eq!(runcode::encoded_len(&runs), runcode::encode_runs(&runs).expect("vskip").len());
    }

    #[test]
    fn drained_cursor_matches_the_reference(region in region()) {
        let (runs, id_bits) = region;
        let bytes = encode_runs(&runs, id_bits).expect("encode");
        prop_assert_eq!(&drain_new(&bytes).expect("drain"), &runs);
        let stepped = step_all(&mut K3Cursor::new(&bytes).expect("open")).expect("step");
        prop_assert_eq!(&stepped, &runs);
        prop_assert_eq!(&drain_reference(&bytes).expect("reference"), &runs);
    }

    #[test]
    fn seeks_match_the_reference(region in region(), ops in ops()) {
        let (runs, id_bits) = region;
        let bytes = encode_runs(&runs, id_bits).expect("encode");
        let new = replay_new(&bytes, &ops).expect("replay");
        prop_assert_eq!(new, replay_reference(&bytes, &ops).expect("reference replay"));
    }

    #[test]
    fn random_corruption_never_panics_and_matches_the_reference(
        region in region(),
        flips in proptest::collection::vec(any::<u32>(), 1..4),
        cut in any::<u32>(),
    ) {
        let (runs, id_bits) = region;
        let mut bytes = encode_runs(&runs, id_bits).expect("encode");
        for f in flips {
            let bit = f as usize % (bytes.len() * 8);
            bytes[bit / 8] ^= 0x80 >> (bit % 8);
        }
        let keep = bytes.len() - cut as usize % (bytes.len() / 4 + 1);
        assert_same_verdict(&bytes[..keep], "random corruption");
    }
}
