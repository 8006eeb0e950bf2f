//! Golden pin of the compressed tablespace's bytes.
//!
//! Installs `QbismConfig::small_test().with_compressed_tablespace()`
//! and hashes (FNV-1a, 64 bit) every stored REGION byte string in
//! catalog order, then every multi-study band answer, both as the
//! storage policy encodes it and as its naive run list.  The constants
//! were taken from the bit-by-bit k³-tree codec, before its
//! word-at-a-time rewrite: a change to the `RunVskip` or `K3Tree` byte
//! format, or to which codec the storage policy picks, fails this test
//! and not only the benchmark's byte counts.

use qbism::{QbismConfig, QbismSystem};
use qbism_region::{encode_compressed, RegionCodec};
use qbism_starburst::Value;

/// FNV-1a over a sequence of length-prefixed byte strings.
#[derive(Default)]
struct Fnv(u64);

impl Fnv {
    fn add(&mut self, bytes: &[u8]) {
        if self.0 == 0 {
            self.0 = 0xcbf2_9ce4_8422_2325;
        }
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Every stored REGION long field: atlas structures, then bands.
fn region_fields(system: &mut QbismSystem) -> Vec<Vec<u8>> {
    let db = system.server.database();
    let mut out = Vec::new();
    for sql in ["select ast.region from atlasStructure ast", "select b.region from intensityBand b"]
    {
        for row in db.query(sql).expect("region query").rows() {
            match &row[0] {
                Value::Long(id) => out.push(db.read_long_field(*id).expect("read field")),
                other => panic!("region column is not a long field: {other}"),
            }
        }
    }
    out
}

/// Hash of every stored REGION byte string, from the bit-by-bit codec.
const GOLDEN_STORED: u64 = 0xc9f7_7f3c_d504_27f5;

/// Hash of the multi-study answers, from the bit-by-bit codec.
const GOLDEN_ANSWERS: u64 = 0x26e9_6ec9_6ab6_99f6;

#[test]
fn compressed_tablespace_bytes_match_the_golden_hashes() {
    let cfg = QbismConfig::small_test().with_compressed_tablespace();
    let mut system = QbismSystem::install(&cfg).expect("install compressed");
    let fields = region_fields(&mut system);
    let mut stored = Fnv::default();
    for field in &fields {
        stored.add(field);
    }
    let k3 = fields.iter().filter(|f| f[2] == 5).count();
    let ids = system.pet_study_ids.clone();
    let mut answers = Fnv::default();
    let mut answered = 0;
    for lo in (0..=224u8).step_by(32) {
        let Ok((region, _)) = system.server.multi_study_band_region(&ids, lo, lo + 31) else {
            continue;
        };
        answered += 1;
        answers.add(&[lo]);
        answers.add(&encode_compressed(&region).expect("encode answer"));
        answers.add(&RegionCodec::Naive.encode(&region).expect("naive answer"));
    }
    assert_eq!((fields.len(), k3, answered), (35, 26, 8));
    assert_eq!(stored.0, GOLDEN_STORED, "stored REGION bytes drifted");
    assert_eq!(answers.0, GOLDEN_ANSWERS, "multi-study answer bytes drifted");
}

/// The coding crate's corruption sweep runs over these payloads: they
/// must be exactly the k³-tree bodies the install stores.
#[test]
fn k3_fixture_holds_the_stored_payloads() {
    let cfg = QbismConfig::small_test().with_compressed_tablespace();
    let mut system = QbismSystem::install(&cfg).expect("install compressed");
    let stored: Vec<String> = region_fields(&mut system)
        .iter()
        .filter(|f| f[2] == 5)
        .map(|f| f[10..].iter().map(|b| format!("{b:02x}")).collect())
        .collect();
    let fixture: Vec<&str> = include_str!("../crates/coding/tests/fixtures/k3_small_test.hex")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect();
    assert_eq!(stored, fixture);
}
