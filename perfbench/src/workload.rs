//! The three workloads: installation, client count, fan-out width,
//! query mix, the fixed input pool, and the seeded call streams over it.

use crate::oracle::Truth;
use crate::query::{run, Class, Query, Shape};
use qbism::{QbismConfig, QbismSystem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 64³, default tablespace, two clients: small answers, fixed
    /// per-query costs, shared-server serialization.
    AtlasLookup,
    /// 128³, default tablespace, one client, fan-out 2: the paper's
    /// Table 3/4 classes at the paper's scale.
    PopulationStudy,
    /// 128³, compressed tablespace, one client: REGION-dominated
    /// classes on the queryable codecs.
    CompressedFold,
}

/// Everything a run needs to set up and drive one workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Installation.  Its phantom seed is the configuration's own: the
    /// benchmark seed chooses the calls, not the data.
    pub config: QbismConfig,
    /// Closed-loop clients sharing the server.
    pub clients: usize,
    /// `MedicalServer::set_threads` fan-out width.
    pub threads: usize,
    /// Installs per run; `setup_s` is their median.
    pub installs: usize,
    /// Query mix, uniform over classes.
    pub classes: Vec<Class>,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::AtlasLookup, Workload::PopulationStudy, Workload::CompressedFold];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AtlasLookup => "atlas_lookup",
            Workload::PopulationStudy => "population_study",
            Workload::CompressedFold => "compressed_fold",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's set-up.  `small` swaps the installation for
    /// `QbismConfig::small_test()` (self-tests) and installs once.
    pub fn spec(self, small: bool) -> Spec {
        use Class::*;
        let mut config = match (small, self) {
            (true, _) => QbismConfig::small_test(),
            (false, Workload::AtlasLookup) => {
                QbismConfig { atlas_bits: 6, ..QbismConfig::paper_scale() }
            }
            (false, _) => QbismConfig::paper_scale(),
        };
        if self == Workload::CompressedFold {
            config = config.with_compressed_tablespace();
        }
        let (clients, threads, installs, classes) = match self {
            Workload::AtlasLookup => {
                (2, 1, 3, vec![AtlasInfo, Structure, Box, BandInStructure, Band])
            }
            Workload::PopulationStudy => {
                (1, 2, 1, vec![FullStudy, Band, IntensityRange, MultiStudyBand, PopulationAverage])
            }
            Workload::CompressedFold => {
                (1, 1, 1, vec![BandInStructure, MultiStudyBand, Band, Structure])
            }
        };
        Spec { config, clients, threads, installs: if small { 1 } else { installs }, classes }
    }
}

/// One pool entry: the call, the answer shape the reference pass
/// established, and its deterministic costs.
#[derive(Clone, Debug)]
pub struct Item {
    pub query: Query,
    pub shape: Shape,
    pub pages: u64,
    pub wire_bytes: u64,
}

/// A workload's input pool, grouped by class.
#[derive(Clone, Debug)]
pub struct Pool {
    pub classes: Vec<(Class, Vec<Item>)>,
}

impl Pool {
    /// Builds each class's inputs (see [`inputs`]), runs every one
    /// through the server once and compares the full answer with the
    /// reference.  Returns the pool and a description of every input
    /// that failed or disagreed (those inputs are left out).
    ///
    /// The pool is the same for every benchmark seed, so each seed's
    /// calls weight heavy and light inputs alike; the seed picks the
    /// calls from it.
    pub fn build(
        spec: &Spec,
        sys: &QbismSystem,
        truth: &Truth,
    ) -> qbism::Result<(Pool, Vec<String>)> {
        let mut rng = StdRng::seed_from_u64(POOL_SEED);
        let mut failures = Vec::new();
        let mut classes = Vec::new();
        for &class in &spec.classes {
            let mut items = Vec::new();
            for query in inputs(class, &mut rng, truth) {
                match run(&sys.server, &query) {
                    Ok(answer) if answer.canonical_bytes()? == truth.expect(&query)? => {
                        let (pages, wire_bytes) =
                            answer.cost().map_or((0, 0), |c| (c.lfm.pages_read, c.wire_bytes));
                        items.push(Item { shape: answer.shape(), query, pages, wire_bytes });
                    }
                    Ok(_) => failures.push(format!("{query:?}: answer differs from reference")),
                    Err(e) => failures.push(format!("{query:?}: {e}")),
                }
            }
            if items.is_empty() {
                failures.push(format!("{}: no usable input", class.name()));
            } else {
                classes.push((class, items));
            }
        }
        Ok((Pool { classes }, failures))
    }

    /// Inputs in the pool.
    pub fn len(&self) -> usize {
        self.classes.iter().map(|(_, items)| items.len()).sum()
    }

    /// Whether the pool holds no input.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The call stream `seed` picks from this pool.
    pub fn stream(&self, seed: u64) -> Stream<'_> {
        Stream { pool: self, rng: StdRng::seed_from_u64(seed), deck: Vec::new() }
    }

    /// Mean of `f` over the first [`STREAM_CALLS`] calls of the stream
    /// `seed` picks: exact for a seed, and moving with it.
    pub fn stream_mean(&self, seed: u64, f: impl Fn(&Item) -> u64) -> f64 {
        let mut stream = self.stream(seed);
        let total: u64 = (0..STREAM_CALLS).map(|_| f(stream.next_call().1)).sum();
        total as f64 / STREAM_CALLS as f64
    }
}

/// A seeded call stream: repeated shuffles of a deck in which every
/// class holds the same number of cards and each class's inputs share
/// its cards evenly.  The mix is uniform over classes, then over a
/// class's inputs, like independent draws, but every deck realizes it
/// exactly, so short timed blocks see the same share of heavy inputs.
pub struct Stream<'a> {
    pool: &'a Pool,
    rng: StdRng,
    /// Remaining `(class, input)` cards of the current deck.
    deck: Vec<(usize, usize)>,
}

impl<'a> Stream<'a> {
    /// The next call: its class index and input.
    pub fn next_call(&mut self) -> (usize, &'a Item) {
        if self.deck.is_empty() {
            let per_class = self.pool.classes.iter().map(|(_, items)| items.len()).max();
            for (class, (_, items)) in self.pool.classes.iter().enumerate() {
                let start = self.rng.gen_range(0..items.len());
                let cards = (0..per_class.unwrap_or(0)).map(|k| (class, (start + k) % items.len()));
                self.deck.extend(cards);
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.deck.swap(i, j);
            }
        }
        let (class, input) = self.deck.pop().expect("a pool has inputs");
        (class, &self.pool.classes[class].1[input])
    }
}

/// Bands of `studies` that hold voxels in every one of them.
fn bands(truth: &Truth, studies: &[i64]) -> Vec<(u8, u8)> {
    let w = truth.band_width();
    let counts: Vec<&[u64]> = studies.iter().map(|s| truth.band_voxels(*s)).collect();
    (0..counts[0].len() as u16)
        .filter(|&b| counts.iter().all(|c| c[usize::from(b)] > 0))
        .map(|b| ((b * w) as u8, (b * w + w - 1) as u8))
        .collect()
}

/// Seed of the pool's sampled inputs, fixed across benchmark seeds.
const POOL_SEED: u64 = 0x51B1_5A17;
/// Calls averaged by [`Pool::stream_mean`].  Prime, so no deck size
/// divides it: the partial last deck makes the mean move with the seed.
pub const STREAM_CALLS: usize = 99_991;
/// Boxes drawn per study.
const BOXES_PER_STUDY: usize = 12;
/// Spacing of the low ends of the 51-wide intensity ranges: 12 or 13
/// ranges per study from a seeded offset.
const RANGE_STRIDE: usize = 17;

/// The inputs of `class`.  Small input spaces are enumerated; the
/// large ones are sampled in strata (every study, every structure, an
/// evenly spaced sweep of range starts), with `rng` choosing within
/// each stratum.
fn inputs(class: Class, rng: &mut StdRng, truth: &Truth) -> Vec<Query> {
    let names = truth.structure_names();
    let mut out = Vec::new();
    for &study in &truth.studies {
        match class {
            Class::AtlasInfo => out.push(Query::AtlasInfo { study }),
            Class::FullStudy => out.push(Query::FullStudy { study }),
            Class::Structure => {
                out.extend(names.iter().map(|&name| Query::Structure { study, name }))
            }
            Class::Band => {
                out.extend(bands(truth, &[study]).into_iter().map(|(lo, hi)| Query::Band {
                    study,
                    lo,
                    hi,
                }))
            }
            Class::Box => {
                let edge = 8.min(truth.side());
                for _ in 0..BOXES_PER_STUDY {
                    let min = [(); 3].map(|_| rng.gen_range(0..=truth.side() - edge));
                    out.push(Query::Box { study, min, max: min.map(|c| c + edge - 1) });
                }
            }
            Class::IntensityRange => {
                let offset = rng.gen_range(0..RANGE_STRIDE);
                for lo in (offset..=205).step_by(RANGE_STRIDE) {
                    out.push(Query::IntensityRange { study, lo: lo as u8, hi: lo as u8 + 50 });
                }
            }
            Class::BandInStructure => {
                let bands = bands(truth, &[study]);
                for &name in &names {
                    let (lo, hi) = bands[rng.gen_range(0..bands.len())];
                    out.push(Query::BandInStructure { study, lo, hi, name });
                }
            }
            Class::MultiStudyBand | Class::PopulationAverage => {}
        }
    }
    let pet = || truth.pet.clone();
    match class {
        Class::MultiStudyBand => bands(truth, &truth.pet)
            .into_iter()
            .map(|(lo, hi)| Query::MultiStudyBand { studies: pet(), lo, hi })
            .collect(),
        Class::PopulationAverage => {
            names.iter().map(|&name| Query::PopulationAverage { studies: pet(), name }).collect()
        }
        _ => out,
    }
}
