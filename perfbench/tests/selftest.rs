//! Self-tests of the benchmark at `QbismConfig::small_test()` scale.

use qbism::{QbismConfig, QbismSystem};
use qbism_netsim::{NetworkModel, RpcChannel, SharedRpcChannel};
use qbism_perfbench::loader::replay_loader;
use qbism_perfbench::query::{run, Class};
use qbism_perfbench::replay::{replay, traced_pass, Layers};
use qbism_perfbench::workload::Workload;
use qbism_perfbench::Setup;

/// Every class on both tablespaces (at fan-out 2 on the default one):
/// the reference pass agrees with the server on every pool input, and
/// the layer-by-layer replay of every input is byte-identical.
#[test]
fn replay_matches_server_for_every_class() {
    for (workload, threads) in [(Workload::PopulationStudy, 2), (Workload::CompressedFold, 1)] {
        let mut spec = workload.spec(true);
        spec.classes = Class::ALL.to_vec();
        spec.threads = threads;
        let mut setup = Setup::new(&spec, 11).unwrap();
        assert!(setup.failures.is_empty(), "{:?}", setup.failures);
        assert_eq!(setup.pool.classes.len(), Class::ALL.len());
        let config = setup.sys.server.config().clone();
        let chan = SharedRpcChannel::new(RpcChannel::new(NetworkModel::TESTBED_1994));
        let mut layers = Layers::default();
        for (class, items) in &setup.pool.classes {
            for item in items {
                let served =
                    run(&setup.sys.server, &item.query).unwrap().canonical_bytes().unwrap();
                let db = setup.sys.server.database();
                let replayed = replay(db, &config, &chan, &item.query, &mut layers).unwrap();
                assert!(served == replayed, "{} replay differs: {:?}", class.name(), item.query);
            }
        }
        assert!(layers.statements > 0 && layers.merge > 0.0 && layers.gather > 0.0);
        if config.compressed_tablespace {
            assert!(layers.cursor_runs > 0, "compressed merges ran through cursors");
        }
        let trace = traced_pass(&mut setup.sys, &setup.pool, 11, 0.0).unwrap();
        assert_eq!(trace.mismatches, 0);
        assert_eq!(trace.calls, 2 * Class::ALL.len() as u64);
    }
}

/// The loader replay stores the same band REGION bytes the install
/// stored, on both tablespaces.
#[test]
fn loader_replay_stores_the_installed_band_bytes() {
    for config in
        [QbismConfig::small_test(), QbismConfig::small_test().with_compressed_tablespace()]
    {
        let mut sys = QbismSystem::install(&config).unwrap();
        let stages = replay_loader(&config).unwrap();
        assert_eq!(stages.bands.len(), 2 * 8, "one PET and one MRI study, 8 bands each");
        for (study, lo, bytes) in &stages.bands {
            let db = sys.server.database();
            let rs = db
                .query(&format!(
                    "select b.region from intensityBand b where b.studyId = {study} and b.lo = {lo}"
                ))
                .unwrap();
            let id = rs.single_value().unwrap().as_long().unwrap();
            assert!(&db.read_long_field(id).unwrap() == bytes, "study {study} band {lo}");
        }
    }
}

/// `device_mb`, `lfm_pages_per_query` and `wire_bytes_per_query`
/// repeat exactly for one seed; the per-call counts change with the
/// seed, which picks the calls.  `device_mb` depends only on the
/// installation, which no seed changes.  Run at 64³: at 16³ a whole
/// volume is one page, so page counts barely move.
#[test]
fn deterministic_metrics_follow_the_seed() {
    for workload in Workload::ALL {
        let measure = |seed: u64| {
            let mut spec = workload.spec(true);
            spec.config.atlas_bits = 6;
            spec.config.device_capacity = 1 << 28;
            let setup = Setup::new(&spec, seed).unwrap();
            assert!(setup.failures.is_empty(), "{:?}", setup.failures);
            [setup.device_mb, setup.pages_per_query(), setup.wire_bytes_per_query()]
        };
        let (a, b, c) = (measure(3), measure(3), measure(4));
        assert_eq!(a, b, "{}: same seed", workload.name());
        assert_eq!(a[0], c[0], "{}: device_mb depends on the installation only", workload.name());
        for (i, name) in [(1, "lfm_pages_per_query"), (2, "wire_bytes_per_query")] {
            assert_ne!(a[i], c[i], "{}: {name} ignores the seed", workload.name());
        }
    }
}
