//! REGION operands on different grids are a typed query error.
//!
//! Two REGION long fields on different grids (Hilbert 3-D at 8³ and at
//! 16³) cannot be merged: every binary spatial operator must answer
//! `DbError::Exec("… incompatible grids …")` from `Database::query`
//! instead of panicking, whether the operands are stored in a
//! Figure-4 codec (decoded before the merge) or a queryable codec
//! (merged in place), in every pairing.

use qbism::ops::register_spatial_ops;
use qbism::QbismConfig;
use qbism_region::{GridGeometry, Region, RegionCodec};
use qbism_sfc::CurveKind;
use qbism_starburst::{Database, DbError, Value};

const CODECS: [RegionCodec; 4] =
    [RegionCodec::Naive, RegionCodec::Elias, RegionCodec::RunVskip, RegionCodec::K3Tree];

fn corner(bits: u32) -> Region {
    let geom = GridGeometry::new(CurveKind::Hilbert, 3, bits);
    Region::from_box(geom, [0, 0, 0], [3, 3, 3]).expect("box inside the grid")
}

#[test]
fn binary_operators_reject_mixed_grids_in_every_codec_pairing() {
    let (small, large) = (corner(3), corner(4));
    for codec_a in CODECS {
        for codec_b in CODECS {
            let mut db = Database::new(1 << 20).expect("database");
            register_spatial_ops(&mut db, &QbismConfig::small_test());
            db.execute("create table t (a long, b long)").expect("create table");
            let a = db.create_long_field(&codec_a.encode(&small).expect("encode a")).expect("a");
            let b = db.create_long_field(&codec_b.encode(&large).expect("encode b")).expect("b");
            db.insert_row("t", vec![a, b]).expect("insert");
            for sql in [
                "select regionVoxels(intersection(t.a, t.b)) from t",
                "select regionVoxels(runion(t.a, t.b)) from t",
                "select regionVoxels(rdifference(t.a, t.b)) from t",
                "select contains(t.a, t.b) from t",
            ] {
                match db.query(sql) {
                    Err(DbError::Exec(msg)) => assert!(
                        msg.contains("incompatible grids"),
                        "{sql} on {} × {}: {msg}",
                        codec_a.name(),
                        codec_b.name()
                    ),
                    other => panic!(
                        "{sql} on {} × {}: expected an incompatible-grids error, got {other:?}",
                        codec_a.name(),
                        codec_b.name()
                    ),
                }
            }
        }
    }
}

#[test]
fn same_grid_operands_still_merge_across_codecs() {
    let geom = GridGeometry::new(CurveKind::Hilbert, 3, 4);
    let a = Region::from_box(geom, [0, 0, 0], [7, 7, 7]).expect("box a");
    let b = Region::from_box(geom, [4, 4, 4], [11, 11, 11]).expect("box b");
    for codec_a in CODECS {
        for codec_b in CODECS {
            let mut db = Database::new(1 << 20).expect("database");
            register_spatial_ops(&mut db, &QbismConfig::small_test());
            db.execute("create table t (a long, b long)").expect("create table");
            let fa = db.create_long_field(&codec_a.encode(&a).expect("encode a")).expect("a");
            let fb = db.create_long_field(&codec_b.encode(&b).expect("encode b")).expect("b");
            db.insert_row("t", vec![fa, fb]).expect("insert");
            let rs = db
                .query(
                    "select regionVoxels(intersection(t.a, t.b)),
                            regionVoxels(runion(t.a, t.b)),
                            regionVoxels(rdifference(t.a, t.b)),
                            contains(t.a, intersection(t.a, t.b))
                     from t",
                )
                .expect("same-grid query");
            let row = &rs.rows()[0];
            let want = [
                a.intersect(&b).voxel_count(),
                a.union(&b).voxel_count(),
                a.difference(&b).voxel_count(),
            ];
            for (got, want) in row.iter().zip(want) {
                assert_eq!(
                    got.as_i64(),
                    Some(want as i64),
                    "{} × {}",
                    codec_a.name(),
                    codec_b.name()
                );
            }
            assert_eq!(row[3], Value::Bool(true));
        }
    }
}
