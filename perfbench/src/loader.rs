//! The loader replayed on a fresh `Database`, each stage timed: the
//! atlas and its structures, then the first PET and the first MRI
//! study (acquisition, registration, warp, banding, REGION encoding,
//! long-field writes), in the order `QbismSystem::install` runs them.
//! MRI acquisitions are 512×512×44 at 128³ and dominate install time,
//! so both modalities are replayed.

use qbism::loader::ATLAS_ID;
use qbism::schema::create_schema;
use qbism::wire::{mesh_to_long_field, volume_to_long_field};
use qbism::{QbismConfig, Result};
use qbism_phantom::{build_atlas, Modality, MriField, PetField, ScalarField3, StudyGenerator};
use qbism_region::{GridGeometry, Region};
use qbism_render::extract_surface;
use qbism_starburst::{Database, Value};
use qbism_warp::{register_landmarks, warp_to_atlas};
use std::time::Instant;

/// Seconds per loader stage, and the band REGION bytes written.
#[derive(Debug, Default)]
pub struct LoaderStages {
    pub atlas: f64,
    pub acquire: f64,
    pub register: f64,
    pub warp: f64,
    pub band: f64,
    pub encode: f64,
    pub write: f64,
    /// `(study, lo, stored bytes)` per intensity band replayed.
    pub bands: Vec<(i64, u8, Vec<u8>)>,
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// A REGION in its tablespace's encoding, as the loader stores it.
fn encode(config: &QbismConfig, region: &Region) -> Result<Vec<u8>> {
    Ok(if config.compressed_tablespace {
        qbism_region::encode_compressed(region)?
    } else {
        config.region_codec.encode(region)?
    })
}

fn store(db: &mut Database, config: &QbismConfig, bytes: &[u8]) -> Result<Value> {
    Ok(if config.compressed_tablespace {
        db.create_long_field_compressed(bytes)?
    } else {
        db.create_long_field(bytes)?
    })
}

/// Replays the load of the atlas and the first study of each modality.
pub fn replay_loader(config: &QbismConfig) -> Result<LoaderStages> {
    let mut s = LoaderStages::default();
    let mut db = Database::new(config.device_capacity)?;
    create_schema(&mut db)?;
    let truth_geom = GridGeometry::new(qbism_sfc::CurveKind::Hilbert, 3, config.atlas_bits);
    let atlas = timed(&mut s.atlas, || build_atlas(truth_geom));
    for (idx, structure) in atlas.structures().iter().enumerate() {
        let (stored, mesh) = timed(&mut s.atlas, || {
            (structure.region.to_curve(config.curve), extract_surface(&structure.region))
        });
        let bytes = timed(&mut s.encode, || encode(config, &stored))?;
        timed(&mut s.write, || -> Result<()> {
            let region = store(&mut db, config, &bytes)?;
            let mesh = db.create_long_field(&mesh_to_long_field(&mesh))?;
            let id = Value::Int(idx as i64 + 1);
            Ok(db.insert_row("atlasstructure", vec![id, Value::Int(ATLAS_ID), region, mesh])?)
        })?;
    }

    let pet = PetField::new(&atlas, config.seed.wrapping_add(100), config.pet_blobs);
    let pet_seed = config.seed.wrapping_add(500);
    load_study(&mut db, config, &mut s, &pet, Modality::Pet, 1, pet_seed)?;
    if config.mri_studies > 0 {
        let mri = MriField::new(&atlas, config.seed.wrapping_add(900));
        let mri_id = config.pet_studies as i64 + 1;
        let mri_seed = config.seed.wrapping_add(1300);
        load_study(&mut db, config, &mut s, &mri, Modality::Mri, mri_id, mri_seed)?;
    }
    Ok(s)
}

/// One study: acquire, register, warp, store the volumes, band, and
/// store the band REGIONs.
fn load_study<F: ScalarField3>(
    db: &mut Database,
    config: &QbismConfig,
    s: &mut LoaderStages,
    field: &F,
    modality: Modality,
    study: i64,
    seed: u64,
) -> Result<()> {
    let generator = StudyGenerator::new(config.side());
    let acquired = timed(&mut s.acquire, || generator.acquire(field, modality, seed));
    let (patient, atlas_pts): (Vec<_>, Vec<_>) = acquired.landmarks.iter().copied().unzip();
    let warp = timed(&mut s.register, || register_landmarks(&patient, &atlas_pts))?;
    let warped = timed(&mut s.warp, || warp_to_atlas(&acquired.raw, &warp, config.geometry(), 1.0));
    timed(&mut s.write, || -> Result<()> {
        let raw = db.create_long_field(acquired.raw.data())?;
        let dims = acquired.raw.dims();
        let spacing = acquired.raw.spacing();
        db.insert_row(
            "rawvolume",
            vec![
                Value::Int(study),
                Value::Int(1),
                Value::from(modality.name()),
                Value::from("1993-02-15"),
                Value::Int(i64::from(dims[0])),
                Value::Int(i64::from(dims[1])),
                Value::Int(i64::from(dims[2])),
                Value::Float(spacing.x),
                Value::Float(spacing.y),
                Value::Float(spacing.z),
                raw,
            ],
        )?;
        let volume = db.create_long_field(&volume_to_long_field(&warped))?;
        let mut row = vec![Value::Int(study), Value::Int(ATLAS_ID), volume];
        row.extend(warp.m.iter().flatten().map(|v| Value::Float(*v)));
        row.extend([warp.t.x, warp.t.y, warp.t.z].map(Value::Float));
        Ok(db.insert_row("warpedvolume", row)?)
    })?;
    let bands = timed(&mut s.band, || warped.intensity_bands(config.band_width));
    for (lo, hi, region) in bands {
        let bytes = timed(&mut s.encode, || encode(config, &region))?;
        timed(&mut s.write, || -> Result<()> {
            let stored = store(db, config, &bytes)?;
            let row = vec![
                Value::Int(study),
                Value::Int(ATLAS_ID),
                Value::Int(i64::from(lo)),
                Value::Int(i64::from(hi)),
                stored,
            ];
            Ok(db.insert_row("intensityband", row)?)
        })?;
        s.bands.push((study, lo, bytes));
    }
    Ok(())
}
