//! Reference answers built without the query path: from the phantom
//! ground truth (atlas structures, generated patients) and the stored
//! warped volumes, scanning voxels directly rather than calling the
//! REGION kernels the server uses.

use crate::query::Query;
use qbism::loader::ATLAS_ID;
use qbism::wire::encode_data_region;
use qbism::{QbismError, QbismSystem, Result};
use qbism_phantom::demographics::generate_patients;
use qbism_region::{GridGeometry, Region, RegionCodec, Run};
use qbism_starburst::Value;
use qbism_volume::{DataRegion, Volume};
use std::collections::BTreeMap;

/// Ground truth of one installed system.
pub struct Truth {
    geom: GridGeometry,
    band_width: u16,
    volumes: BTreeMap<i64, Volume>,
    structures: Vec<(&'static str, Region)>,
    rows: BTreeMap<i64, Vec<Value>>,
    bands: BTreeMap<i64, Vec<u64>>,
    /// PET study ids, in load order.
    pub pet: Vec<i64>,
    /// Every study id, PET first.
    pub studies: Vec<i64>,
}

impl Truth {
    /// Reads the stored warped volumes and rebuilds the catalog rows the
    /// loader was configured to write.
    pub fn load(sys: &QbismSystem) -> Result<Truth> {
        let config = sys.server.config();
        let studies: Vec<i64> =
            sys.pet_study_ids.iter().chain(&sys.mri_study_ids).copied().collect();
        let mut volumes = BTreeMap::new();
        for &id in &studies {
            volumes.insert(id, sys.server.warped_volume(id)?);
        }
        let structures = sys
            .atlas
            .structures()
            .iter()
            .map(|s| (s.name, s.region.to_curve(config.curve)))
            .collect();
        let patients = generate_patients(config.seed, config.patients.max(1));
        let mut rows = BTreeMap::new();
        for (k, &id) in studies.iter().enumerate() {
            let p = &patients[k % patients.len()];
            let mut row = vec![Value::Int(i64::from(config.side()))];
            row.extend([0.0, 0.0, 0.0, 1.0, 1.0, 1.0].map(Value::Float));
            row.extend([
                Value::Int(ATLAS_ID),
                Value::Str(p.name.clone()),
                Value::Int(p.patient_id),
                Value::Str(format!("1993-0{}-15", 1 + (id as usize % 9))),
            ]);
            rows.insert(id, row);
        }
        let w = usize::from(config.band_width);
        let mut bands = BTreeMap::new();
        for (&id, vol) in &volumes {
            let mut counts = vec![0u64; 256 / w];
            for (value, n) in vol.histogram().iter().enumerate() {
                counts[value / w] += n;
            }
            bands.insert(id, counts);
        }
        Ok(Truth {
            geom: config.geometry(),
            band_width: config.band_width,
            volumes,
            structures,
            rows,
            bands,
            pet: sys.pet_study_ids.clone(),
            studies,
        })
    }

    /// Grid side.
    pub fn side(&self) -> u32 {
        self.geom.side()
    }

    /// Intensity band width.
    pub fn band_width(&self) -> u16 {
        self.band_width
    }

    /// Atlas structure names.
    pub fn structure_names(&self) -> Vec<&'static str> {
        self.structures.iter().map(|(n, _)| *n).collect()
    }

    /// Voxels per stored intensity band of one study.
    pub fn band_voxels(&self, study: i64) -> &[u64] {
        &self.bands[&study]
    }

    fn volume(&self, study: i64) -> &Volume {
        &self.volumes[&study]
    }

    fn structure(&self, name: &str) -> Result<&Region> {
        self.structures
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, r)| r)
            .ok_or_else(|| QbismError::NotFound(format!("structure {name}")))
    }

    /// The region of voxels whose id satisfies `keep`, by a linear scan.
    fn region_where(&self, keep: impl Fn(u64) -> bool) -> Region {
        let mut runs = Vec::new();
        let mut open: Option<u64> = None;
        for id in 0..self.geom.cell_count() {
            if keep(id) {
                open.get_or_insert(id);
            } else if let Some(start) = open.take() {
                runs.push(Run::new(start, id - 1));
            }
        }
        if let Some(start) = open {
            runs.push(Run::new(start, self.geom.cell_count() - 1));
        }
        Region::from_runs(self.geom, runs)
    }

    fn extract(&self, study: i64, region: &Region) -> Result<Vec<u8>> {
        encode_data_region(&self.volume(study).extract(region)?)
    }

    /// The expected answer to `q`, in the canonical bytes of
    /// [`crate::query::Answer::canonical_bytes`].
    pub fn expect(&self, q: &Query) -> Result<Vec<u8>> {
        let in_band = |study: i64, lo: u8, hi: u8| {
            let vol = self.volume(study);
            move |id: u64| (lo..=hi).contains(&vol.at_id(id))
        };
        match q {
            Query::AtlasInfo { study } => {
                let row =
                    self.rows.get(study).ok_or_else(|| QbismError::NotFound("study".into()))?;
                Ok(format!("{row:?}").into_bytes())
            }
            Query::FullStudy { study } => self.extract(*study, &Region::full(self.geom)),
            Query::Box { study, min, max } => {
                let mut ids = Vec::new();
                for x in min[0]..=max[0] {
                    for y in min[1]..=max[1] {
                        for z in min[2]..=max[2] {
                            ids.push(self.geom.index_of(&[x, y, z]));
                        }
                    }
                }
                self.extract(*study, &Region::from_ids(self.geom, ids))
            }
            Query::Structure { study, name } => self.extract(*study, self.structure(name)?),
            Query::Band { study, lo, hi } | Query::IntensityRange { study, lo, hi } => {
                self.extract(*study, &self.region_where(in_band(*study, *lo, *hi)))
            }
            Query::BandInStructure { study, lo, hi, name } => {
                let keep = in_band(*study, *lo, *hi);
                let ids = self.structure(name)?.iter_ids().filter(|&id| keep(id)).collect();
                self.extract(*study, &Region::from_ids(self.geom, ids))
            }
            Query::MultiStudyBand { studies, lo, hi } => {
                let vols: Vec<&Volume> = studies.iter().map(|s| self.volume(*s)).collect();
                let region =
                    self.region_where(|id| vols.iter().all(|v| (*lo..=*hi).contains(&v.at_id(id))));
                Ok(RegionCodec::Naive.encode(&region)?)
            }
            Query::PopulationAverage { studies, name } => {
                let region = self.structure(name)?.clone();
                let n = studies.len() as u32;
                let values = region
                    .iter_ids()
                    .map(|id| {
                        let sum: u32 =
                            studies.iter().map(|s| u32::from(self.volume(*s).at_id(id))).sum();
                        (sum / n) as u8
                    })
                    .collect();
                encode_data_region(&DataRegion::new(region, values))
            }
        }
    }
}
