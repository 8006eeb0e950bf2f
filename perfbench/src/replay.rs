//! The traced replay: a call is issued through `MedicalServer`, then
//! re-executed step by step through each layer's public functions with
//! every step timed here, and the replayed answer must be byte-identical
//! to the server's.

use crate::mix;
use crate::query::{run, statements, Query};
use crate::workload::Pool;
use qbism::wire::{data_region_wire_size, decode_data_region, encode_data_region};
use qbism::{QbismConfig, QbismError, QbismSystem, Result};
use qbism_lfm::IoBracket;
use qbism_netsim::SharedRpcChannel;
use qbism_region::compressed::{compressed_cursor, is_compressed};
use qbism_region::{kernel_compressed as kc, Region, RegionCodec};
use qbism_starburst::{parse_statement, Database, ResultSet, Value};
use qbism_volume::DataRegion;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Per-layer totals over the replayed calls (seconds and counts).
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub parse: f64,
    pub join: f64,
    pub region_read: f64,
    pub gather: f64,
    pub decode: f64,
    pub merge: f64,
    pub encode: f64,
    pub wire_encode: f64,
    pub wire_decode: f64,
    pub ship: f64,
    pub rows_scanned: u64,
    pub statements: u64,
    pub extents: u64,
    pub bytes_staged: u64,
    pub runs_in: u64,
    pub runs_out: u64,
    pub cursor_skips: u64,
    pub cursor_runs: u64,
    pub messages: u64,
}

impl Layers {
    /// Seconds spent in the replayed steps: the part of a call some
    /// layer claims.
    pub fn claimed(&self) -> f64 {
        self.parse
            + self.join
            + self.region_read
            + self.gather
            + self.decode
            + self.merge
            + self.encode
            + self.wire_encode
            + self.wire_decode
            + self.ship
    }
}

/// Times `f` into `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// One statement: the server's text is parsed alone (`parse`); the
/// catalog-only projection runs through `Database::query`, whose time
/// minus its own parse is the join (`join`).
fn statement(
    db: &Database,
    l: &mut Layers,
    server_sql: &str,
    projection: &str,
) -> Result<ResultSet> {
    timed(&mut l.parse, || parse_statement(server_sql))?;
    let mut own_parse = 0.0;
    timed(&mut own_parse, || parse_statement(projection))?;
    let mut query = 0.0;
    let rs = timed(&mut query, || db.query(projection))?;
    l.join += query - own_parse;
    l.statements += 1;
    l.rows_scanned += rs.rows_scanned;
    if rs.len() != 1 {
        return Err(QbismError::NotFound(format!("projection returned {} rows", rs.len())));
    }
    Ok(rs)
}

fn long_field(v: &Value) -> Result<qbism_lfm::LongFieldId> {
    v.as_long().ok_or_else(|| QbismError::Wire(format!("expected a long field, got {v}")))
}

/// Reads a stored REGION operand (`Database::read_long_field`).
fn read_region(db: &Database, l: &mut Layers, v: &Value) -> Result<Vec<u8>> {
    let id = long_field(v)?;
    let bytes = timed(&mut l.region_read, || db.read_long_field(id))?;
    l.bytes_staged += bytes.len() as u64;
    Ok(bytes)
}

fn decode(l: &mut Layers, bytes: &[u8]) -> Result<Region> {
    Ok(timed(&mut l.decode, || RegionCodec::decode(bytes))?)
}

#[derive(Clone, Copy)]
enum Op {
    Intersect,
    Union,
}

/// A binary REGION operator as the `intersection`/`runion` UDFs run it:
/// a streaming cursor merge when both operands are compressed payloads
/// (re-encoded compactly), else decode, slice merge, and re-encode with
/// the configured codec.
fn merge_pair(l: &mut Layers, codec: RegionCodec, op: Op, a: &[u8], b: &[u8]) -> Result<Vec<u8>> {
    if is_compressed(a) && is_compressed(b) {
        let (geom, mut ca) = timed(&mut l.decode, || compressed_cursor(a))?;
        let (_, mut cb) = timed(&mut l.decode, || compressed_cursor(b))?;
        let runs = timed(&mut l.merge, || match op {
            Op::Intersect => kc::intersect_stream(&mut ca, &mut cb),
            Op::Union => kc::union_stream(&mut ca, &mut cb),
        })?;
        // Counting the operands' runs needs a full decode; it is untimed.
        let operand_runs =
            (RegionCodec::decode(a)?.run_count() + RegionCodec::decode(b)?.run_count()) as u64;
        l.runs_in += operand_runs;
        l.cursor_runs += operand_runs;
        l.cursor_skips += ca.skip_count() + cb.skip_count();
        let region = Region::from_runs(geom, runs);
        return Ok(timed(&mut l.encode, || qbism_region::encode_compressed(&region))?);
    }
    let ra = decode(l, a)?;
    let rb = decode(l, b)?;
    l.runs_in += (ra.run_count() + rb.run_count()) as u64;
    let region = timed(&mut l.merge, || match op {
        Op::Intersect => ra.intersect(&rb),
        Op::Union => ra.union(&rb),
    });
    Ok(timed(&mut l.encode, || codec.encode(&region))?)
}

/// `extractVoxels`: decode the REGION argument, gather its runs from
/// the VOLUME long field (`LongFieldManager::read_pieces_into`), and
/// round-trip the DATA_REGION through the wire codec.
fn extract(
    db: &Database,
    l: &mut Layers,
    volume: &Value,
    region_bytes: &[u8],
    operand: bool,
) -> Result<(DataRegion<u8>, u64)> {
    let region = decode(l, region_bytes)?;
    if operand {
        l.runs_in += region.run_count() as u64;
    }
    l.runs_out += region.run_count() as u64;
    let id = long_field(volume)?;
    let pieces: Vec<(u64, u64)> = region.runs().iter().map(|r| (r.start, r.len())).collect();
    let mut values = Vec::with_capacity(region.voxel_count() as usize);
    timed(&mut l.gather, || db.lfm_ref().read_pieces_into(id, &pieces, &mut values))?;
    l.bytes_staged += values.len() as u64;
    let data = DataRegion::new(region, values);
    let wire = timed(&mut l.wire_encode, || encode_data_region(&data))?;
    Ok((timed(&mut l.wire_decode, || decode_data_region(&wire))?, wire.len() as u64))
}

fn ship(l: &mut Layers, chan: &SharedRpcChannel, bytes: u64) -> Result<()> {
    let receipt = timed(&mut l.ship, || chan.ship(bytes))?;
    l.messages += receipt.messages;
    Ok(())
}

/// Replays `q` against `db`, adding each step's time and counts to `l`.
/// Returns the answer in canonical bytes.
pub fn replay(
    db: &Database,
    config: &QbismConfig,
    chan: &SharedRpcChannel,
    q: &Query,
    l: &mut Layers,
) -> Result<Vec<u8>> {
    let codec = config.region_codec;
    let geom = config.geometry();
    let stmts = statements(q, config.band_width);
    let (server_sql, projection) = &stmts[0];
    match q {
        Query::AtlasInfo { .. } => {
            let rs = statement(db, l, server_sql, projection)?;
            Ok(format!("{:?}", rs.rows()[0]).into_bytes())
        }
        Query::MultiStudyBand { .. } => {
            let mut blobs = Vec::new();
            for (sql, projection) in &stmts {
                let rs = statement(db, l, sql, projection)?;
                blobs.push(read_region(db, l, &rs.rows()[0][0])?);
            }
            let (bytes, region) = if blobs.len() == 1 {
                let region = decode(l, &blobs[0])?;
                l.runs_in += region.run_count() as u64;
                (blobs.pop().expect("one blob"), region)
            } else if blobs.iter().all(|b| is_compressed(b)) {
                let mut opened = Vec::new();
                for blob in &blobs {
                    opened.push(timed(&mut l.decode, || compressed_cursor(blob))?);
                    // Untimed: counting runs needs a full decode.
                    let runs = RegionCodec::decode(blob)?.run_count() as u64;
                    l.runs_in += runs;
                    l.cursor_runs += runs;
                }
                let mut refs: Vec<&mut dyn qbism_coding::RunCursor> =
                    opened.iter_mut().map(|(_, c)| c as &mut dyn qbism_coding::RunCursor).collect();
                let runs = timed(&mut l.merge, || kc::intersect_k_stream(&mut refs))?;
                l.cursor_skips += opened.iter().map(|(_, c)| c.skip_count()).sum::<u64>();
                let region = Region::from_runs(opened[0].0, runs);
                (timed(&mut l.encode, || qbism_region::encode_compressed(&region))?, region)
            } else {
                let mut regions = Vec::new();
                for blob in &blobs {
                    regions.push(decode(l, blob)?);
                }
                l.runs_in += regions.iter().map(|r| r.run_count() as u64).sum::<u64>();
                let refs: Vec<&Region> = regions.iter().collect();
                let region = timed(&mut l.merge, || qbism_region::intersect_all(&refs))
                    .ok_or_else(|| QbismError::NotFound("no studies".into()))?;
                (timed(&mut l.encode, || codec.encode(&region))?, region)
            };
            l.runs_out += region.run_count() as u64;
            ship(l, chan, bytes.len() as u64)?;
            Ok(RegionCodec::Naive.encode(&region)?)
        }
        Query::PopulationAverage { .. } => {
            let mut extracts = Vec::new();
            for (sql, projection) in &stmts {
                let rs = statement(db, l, sql, projection)?;
                let row = &rs.rows()[0];
                let region = read_region(db, l, &row[1])?;
                extracts.push(extract(db, l, &row[0], &region, true)?.0);
            }
            // The voxel-wise mean is server CPU no layer claims.
            let n = extracts.len() as u32;
            let values = (0..extracts[0].voxel_count())
                .map(|i| {
                    let sum: u32 = extracts.iter().map(|e| u32::from(e.values()[i])).sum();
                    (sum / n) as u8
                })
                .collect();
            let data = DataRegion::new(extracts[0].region().clone(), values);
            ship(l, chan, data_region_wire_size(&data))?;
            encode_data_region(&data)
        }
        _ => {
            let rs = statement(db, l, server_sql, projection)?;
            let row = &rs.rows()[0];
            // The REGION argument of extractVoxels, and whether it is a
            // stored or literal operand rather than a merge result.
            let (region, operand) = match q {
                Query::FullStudy { .. } => {
                    (timed(&mut l.encode, || codec.encode(&Region::full(geom)))?, true)
                }
                Query::Box { min, max, .. } => {
                    let region = Region::from_box(geom, *min, *max)
                        .ok_or_else(|| QbismError::NotFound("box outside the grid".into()))?;
                    (timed(&mut l.encode, || codec.encode(&region))?, true)
                }
                Query::Structure { .. } | Query::Band { .. } => {
                    (read_region(db, l, &row[1])?, true)
                }
                Query::BandInStructure { .. } => {
                    let band = read_region(db, l, &row[1])?;
                    let structure = read_region(db, l, &row[2])?;
                    (merge_pair(l, codec, Op::Intersect, &band, &structure)?, false)
                }
                Query::IntensityRange { .. } => {
                    // runion(b1, runion(b2, ... bn)) evaluates innermost first.
                    let mut bands = Vec::new();
                    for v in &row[1..] {
                        bands.push(read_region(db, l, v)?);
                    }
                    let mut acc = bands.pop().expect("at least one band");
                    while let Some(b) = bands.pop() {
                        acc = merge_pair(l, codec, Op::Union, &b, &acc)?;
                    }
                    (acc, false)
                }
                Query::AtlasInfo { .. }
                | Query::MultiStudyBand { .. }
                | Query::PopulationAverage { .. } => unreachable!("replayed above"),
            };
            let (mut data, mut wire) = extract(db, l, &row[0], &region, operand)?;
            if let Query::IntensityRange { lo, hi, .. } = q {
                // The boundary refinement is server CPU no layer claims.
                data = data.filter_intensity(*lo, *hi);
                wire = data_region_wire_size(&data);
            }
            ship(l, chan, wire)?;
            encode_data_region(&data)
        }
    }
}

/// What the traced pass measured, summed over its calls.
#[derive(Debug, Default)]
pub struct Trace {
    pub layers: Layers,
    pub calls: u64,
    /// Calls whose replay failed or differed from the server's answer.
    pub mismatches: u64,
    /// Seconds inside `MedicalServer` calls.
    pub server: f64,
    /// Seconds in per-study stages, each timed on its own.
    pub stage: f64,
    /// Per-study stages timed.
    pub stages: u64,
    /// Sum over fanned-out calls of call seconds × fan-out width.
    pub stage_capacity: f64,
    pub spans: u64,
    pub events: u64,
    /// Seconds of the whole pass, replays included.
    pub wall: f64,
}

/// Times each per-study stage of a fanned-out class on its own
/// (`population_stage`, `band_region_stage`).
fn stages(server: &qbism::MedicalServer, q: &Query, t: &mut Trace) -> bool {
    let start = Instant::now();
    match q {
        Query::MultiStudyBand { studies, lo, hi } => {
            for &id in studies {
                let _ = server.band_region_stage(id, *lo, *hi);
            }
        }
        Query::PopulationAverage { studies, name } => {
            for &id in studies {
                let _ = server.population_stage(id, name);
            }
        }
        _ => return false,
    }
    t.stage += start.elapsed().as_secs_f64();
    t.stages += match q {
        Query::MultiStudyBand { studies, .. } | Query::PopulationAverage { studies, .. } => {
            studies.len() as u64
        }
        _ => 0,
    };
    true
}

/// Issues a seeded sample of the pool's calls one at a time, round
/// robin over classes, for at least `seconds` and two rounds; replays
/// each and compares answers.
pub fn traced_pass(sys: &mut QbismSystem, pool: &Pool, seed: u64, seconds: f64) -> Result<Trace> {
    let config = sys.server.config().clone();
    let width = sys.server.threads() as f64;
    let chan = SharedRpcChannel::new(qbism_netsim::RpcChannel::new(
        qbism_netsim::NetworkModel::TESTBED_1994,
    ));
    let mut rng = StdRng::seed_from_u64(mix(seed, 3));
    let mut t = Trace::default();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || start.elapsed().as_secs_f64() < seconds {
        for (_, items) in &pool.classes {
            let q = &items[rng.gen_range(0..items.len())].query;
            qbism_obs::event::clear();
            let call = Instant::now();
            let answer = run(&sys.server, q);
            let server = call.elapsed().as_secs_f64();
            t.calls += 1;
            t.server += server;
            t.spans += qbism_obs::trace::last_root().map_or(0, |r| r.span_count() as u64);
            t.events += qbism_obs::event::events().len() as u64 + qbism_obs::event::dropped();
            if stages(&sys.server, q, &mut t) {
                t.stage_capacity += server * width;
            }
            let bracket = IoBracket::begin();
            let replayed = replay(sys.server.database(), &config, &chan, q, &mut t.layers);
            t.layers.extents += bracket.finish().0.extents_read;
            let same = match (answer, replayed) {
                (Ok(a), Ok(bytes)) => a.canonical_bytes()? == bytes,
                _ => false,
            };
            if !same {
                t.mismatches += 1;
            }
        }
        rounds += 1;
    }
    t.wall = start.elapsed().as_secs_f64();
    Ok(t)
}
