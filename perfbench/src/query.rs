//! The query classes the benchmark issues, the calls that issue them
//! through `MedicalServer`, and the SQL text each class sends.

use qbism::loader::ATLAS_ID;
use qbism::wire::encode_data_region;
use qbism::{MedicalServer, QueryCost, Result};
use qbism_region::{Region, RegionCodec};
use qbism_starburst::Value;
use qbism_volume::DataRegion;

/// A query class, named as `MedicalServer` names its root spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    AtlasInfo,
    FullStudy,
    Box,
    Structure,
    Band,
    IntensityRange,
    BandInStructure,
    MultiStudyBand,
    PopulationAverage,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 9] = [
        Class::AtlasInfo,
        Class::FullStudy,
        Class::Box,
        Class::Structure,
        Class::Band,
        Class::IntensityRange,
        Class::BandInStructure,
        Class::MultiStudyBand,
        Class::PopulationAverage,
    ];

    /// The server's name for the class.
    pub fn name(self) -> &'static str {
        match self {
            Class::AtlasInfo => "atlas_info",
            Class::FullStudy => "full_study",
            Class::Box => "box",
            Class::Structure => "structure",
            Class::Band => "band",
            Class::IntensityRange => "intensity_range",
            Class::BandInStructure => "band_in_structure",
            Class::MultiStudyBand => "multi_study_band",
            Class::PopulationAverage => "population_average",
        }
    }
}

/// One generated call.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    AtlasInfo { study: i64 },
    FullStudy { study: i64 },
    Box { study: i64, min: [u32; 3], max: [u32; 3] },
    Structure { study: i64, name: &'static str },
    Band { study: i64, lo: u8, hi: u8 },
    IntensityRange { study: i64, lo: u8, hi: u8 },
    BandInStructure { study: i64, lo: u8, hi: u8, name: &'static str },
    MultiStudyBand { studies: Vec<i64>, lo: u8, hi: u8 },
    PopulationAverage { studies: Vec<i64>, name: &'static str },
}

/// What a server call returned.
#[derive(Debug)]
pub enum Answer {
    /// A catalog row (`atlas_info`).
    Row(Vec<Value>),
    /// An extracted DATA_REGION.
    Data(DataRegion<u8>, QueryCost),
    /// A bare REGION (`multi_study_band_region`).
    Region(Region, QueryCost),
}

impl Answer {
    /// The call's cost accounting (catalog lookups carry none).
    pub fn cost(&self) -> Option<&QueryCost> {
        match self {
            Answer::Row(_) => None,
            Answer::Data(_, c) | Answer::Region(_, c) => Some(c),
        }
    }

    /// The answer in canonical bytes: the DATA_REGION wire form, the
    /// naive REGION encoding, or the row's debug text.
    pub fn canonical_bytes(&self) -> Result<Vec<u8>> {
        match self {
            Answer::Row(row) => Ok(format!("{row:?}").into_bytes()),
            Answer::Data(data, _) => encode_data_region(data),
            Answer::Region(region, _) => Ok(RegionCodec::Naive.encode(region)?),
        }
    }

    /// The shape the timed loop checks: voxel and run counts, or the row.
    pub fn shape(&self) -> Shape {
        match self {
            Answer::Row(row) => Shape::Row(row.clone()),
            Answer::Data(data, _) => {
                Shape::Counts(data.voxel_count() as u64, data.region().run_count() as u64)
            }
            Answer::Region(region, _) => {
                Shape::Counts(region.voxel_count(), region.run_count() as u64)
            }
        }
    }
}

/// The part of an answer checked on every timed call.
#[derive(Clone, Debug, PartialEq)]
pub enum Shape {
    Row(Vec<Value>),
    /// Voxels and runs.
    Counts(u64, u64),
}

/// Issues `q` through the server's public query method for its class.
pub fn run(server: &MedicalServer, q: &Query) -> Result<Answer> {
    Ok(match q {
        Query::AtlasInfo { study } => Answer::Row(server.atlas_info(*study)?),
        Query::FullStudy { study } => data(server.full_study(*study)?),
        Query::Box { study, min, max } => data(server.box_data(*study, *min, *max)?),
        Query::Structure { study, name } => data(server.structure_data(*study, name)?),
        Query::Band { study, lo, hi } => data(server.band_data(*study, *lo, *hi)?),
        Query::IntensityRange { study, lo, hi } => {
            data(server.intensity_range_data(*study, *lo, *hi)?)
        }
        Query::BandInStructure { study, lo, hi, name } => {
            data(server.band_in_structure(*study, *lo, *hi, name)?)
        }
        Query::MultiStudyBand { studies, lo, hi } => {
            let (region, cost) = server.multi_study_band_region(studies, *lo, *hi)?;
            Answer::Region(region, cost)
        }
        Query::PopulationAverage { studies, name } => {
            let answer = server.population_average(studies, name)?;
            if !answer.is_complete() {
                return Err(qbism::QbismError::Wire("population average skipped studies".into()));
            }
            Answer::Data(answer.data, answer.cost)
        }
    })
}

fn data(answer: qbism::QueryAnswer) -> Answer {
    Answer::Data(answer.data, answer.cost)
}

/// The statements a class sends to Starburst, as pairs of the server's
/// statement and its catalog-only projection: the same FROM/WHERE,
/// selecting the long-field ids instead of calling the spatial UDFs.
/// The text matches the server's up to whitespace.
pub fn statements(q: &Query, band_width: u16) -> Vec<(String, String)> {
    let a = ATLAS_ID;
    let pair = |select: &str, projection: &str, tail: String| {
        (format!("select {select} {tail}"), format!("select {projection} {tail}"))
    };
    let structure_tail = |study: i64, name: &str| {
        format!(
            "from warpedVolume wv, atlasStructure ast, neuralStructure ns \
             where wv.studyId = {study} and wv.atlasId = {a} and ast.atlasId = {a} and \
             ast.structureId = ns.structureId and ns.structureName = '{name}'"
        )
    };
    let volume_tail = |study: i64| {
        format!("from warpedVolume wv where wv.studyId = {study} and wv.atlasId = {a}")
    };
    match q {
        Query::AtlasInfo { study } => {
            let sql = format!(
                "select a.n, a.x0, a.y0, a.z0, a.dx, a.dy, a.dz, a.atlasId, p.name, p.patientId, \
                 rv.date from atlas a, rawVolume rv, warpedVolume wv, patient p \
                 where a.atlasId = wv.atlasId and wv.studyId = rv.studyId and \
                 rv.patientId = p.patientId and rv.studyId = {study} and a.atlasName = 'Talairach'"
            );
            vec![(sql.clone(), sql)]
        }
        Query::FullStudy { study } => {
            vec![pair("extractVoxels(wv.data, fullRegion())", "wv.data", volume_tail(*study))]
        }
        Query::Box { study, min, max } => vec![pair(
            &format!(
                "extractVoxels(wv.data, boxRegion({}, {}, {}, {}, {}, {}))",
                min[0], min[1], min[2], max[0], max[1], max[2]
            ),
            "wv.data",
            volume_tail(*study),
        )],
        Query::Structure { study, name } => vec![pair(
            "extractVoxels(wv.data, ast.region)",
            "wv.data, ast.region",
            structure_tail(*study, name),
        )],
        Query::Band { study, lo, hi } => vec![pair(
            "extractVoxels(wv.data, b.region)",
            "wv.data, b.region",
            format!(
                "from warpedVolume wv, intensityBand b where wv.studyId = {study} and \
                 b.studyId = {study} and wv.atlasId = {a} and b.lo = {lo} and b.hi = {hi}"
            ),
        )],
        Query::IntensityRange { study, lo, hi } => {
            let first = u16::from(*lo) / band_width;
            let last = u16::from(*hi) / band_width;
            let n = (last - first + 1) as usize;
            let mut expr = String::new();
            for i in 1..n {
                expr.push_str(&format!("runion(b{i}.region, "));
            }
            expr.push_str(&format!("b{n}.region"));
            expr.push_str(&")".repeat(n - 1));
            let mut from = vec!["warpedVolume wv".to_string()];
            let mut preds = vec![format!("wv.studyId = {study}"), format!("wv.atlasId = {a}")];
            for (i, band) in (first..=last).enumerate() {
                from.push(format!("intensityBand b{}", i + 1));
                preds.push(format!("b{}.studyId = {study}", i + 1));
                preds.push(format!("b{}.lo = {}", i + 1, band * band_width));
            }
            let projection: Vec<String> = (1..=n).map(|i| format!("b{i}.region")).collect();
            vec![pair(
                &format!("extractVoxels(wv.data, {expr})"),
                &format!("wv.data, {}", projection.join(", ")),
                format!("from {} where {}", from.join(", "), preds.join(" and ")),
            )]
        }
        Query::BandInStructure { study, lo, hi, name } => vec![pair(
            "extractVoxels(wv.data, intersection(b.region, ast.region))",
            "wv.data, b.region, ast.region",
            format!(
                "from warpedVolume wv, intensityBand b, atlasStructure ast, neuralStructure ns \
                 where wv.studyId = {study} and b.studyId = {study} and wv.atlasId = {a} and \
                 ast.atlasId = {a} and b.lo = {lo} and b.hi = {hi} and \
                 ast.structureId = ns.structureId and ns.structureName = '{name}'"
            ),
        )],
        Query::MultiStudyBand { studies, lo, hi } => studies
            .iter()
            .map(|id| {
                let sql = format!(
                    "select b.region from intensityBand b \
                     where b.studyId = {id} and b.lo = {lo} and b.hi = {hi}"
                );
                (sql.clone(), sql)
            })
            .collect(),
        Query::PopulationAverage { studies, name } => studies
            .iter()
            .map(|id| {
                pair(
                    "extractVoxels(wv.data, ast.region)",
                    "wv.data, ast.region",
                    structure_tail(*id, name),
                )
            })
            .collect(),
    }
}
