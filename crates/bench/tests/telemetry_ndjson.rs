//! End-to-end check of the telemetry export: a quick fig4 run must
//! produce a schema-valid NDJSON block containing solver span timings and
//! the full metric catalog, exactly as the `repro --telemetry` path
//! writes it.

use fluxprint_bench::{fig4, trace, Effort, RunSpec};
use fluxprint_telemetry::names;
use rand::SeedableRng;

#[test]
fn quick_fig4_emits_schema_valid_telemetry() {
    fluxprint_telemetry::reset();
    fig4::run_fig4(RunSpec::quick());
    let block = trace::export_run("fig4", Effort::Quick, 0);

    let mut counters = std::collections::BTreeMap::new();
    let mut span_paths = Vec::new();
    let mut histogram_names = Vec::new();
    for (i, line) in block.lines().enumerate() {
        let value: serde_json::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("line {i} unparseable: {e}"));
        let kind = value["type"].as_str().expect("record has a type");
        match kind {
            "run_meta" => {
                assert_eq!(i, 0, "run_meta must head the block");
                assert_eq!(value["target"].as_str(), Some("fig4"));
                assert_eq!(value["effort"].as_str(), Some("quick"));
            }
            "counter" => {
                let name = value["name"].as_str().expect("counter name").to_string();
                let count = value["value"].as_f64().expect("counter value") as u64;
                counters.insert(name, count);
            }
            "histogram" => {
                histogram_names.push(value["name"].as_str().expect("name").to_string());
                assert!(
                    value["buckets"].as_array().is_some(),
                    "histogram carries buckets"
                );
            }
            "span" => {
                let path = value["path"].as_str().expect("span path").to_string();
                if value["count"].as_f64().unwrap_or(0.0) > 0.0 {
                    assert!(
                        value["total_ns"].as_f64().expect("total_ns") >= 0.0,
                        "span timing present for {path}"
                    );
                }
                span_paths.push(path);
            }
            other => panic!("unknown record type {other:?} at line {i}"),
        }
    }

    // The full catalog is present even for metrics fig4 never touches.
    for name in names::COUNTERS {
        assert!(counters.contains_key(*name), "counter {name} missing");
    }
    for name in names::HISTOGRAMS {
        assert!(
            histogram_names.iter().any(|n| n == name),
            "histogram {name} missing"
        );
    }
    for name in names::SPANS {
        assert!(span_paths.iter().any(|p| p == name), "span {name} missing");
    }

    // fig4 actually drives the briefing solver, so its hot-path metrics
    // must be non-zero: per-round NNLS fits, rounds, collection trees.
    // (The sparse-pipeline objective counter is catalog-padded but zero:
    // briefing works on the full map, never through FluxObjective.)
    assert!(counters.contains_key(names::SOLVER_OBJECTIVE_EVALS));
    assert!(counters[names::SOLVER_NNLS_SOLVES] > 0);
    assert!(counters[names::SOLVER_BRIEFING_ROUNDS] > 0);
    assert!(counters[names::NETSIM_COLLECTION_TREES] > 0);
    // SMC per-round sample counters exist (zero-valued: fig4 is
    // briefing-only) so every export shares one diffable schema.
    assert!(counters.contains_key(names::SMC_SAMPLES_PREDICTED));
    assert!(counters.contains_key(names::SMC_SAMPLES_KEPT));
    // The scoring-cache / worker-pool counters joined the catalog, so
    // they pad into every block even when the target never filters.
    assert!(counters.contains_key(names::SOLVER_GRAM_BUILD));
    assert!(counters.contains_key(names::SOLVER_GRAM_COMBO_EVALS));
    assert!(counters.contains_key(names::FLUXPAR_TASKS));
    assert!(counters.contains_key(names::FLUXPAR_THREADS));
    // Streaming-engine counters likewise pad into every block (fig4 is
    // briefing-only, so they are all zero here).
    for name in [
        names::ENGINE_SESSIONS,
        names::ENGINE_ROUNDS,
        names::ENGINE_CHURN_EVENTS,
        names::ENGINE_CHECKPOINTS,
        names::ENGINE_RESTORES,
        names::ENGINE_USERS_JOINED,
    ] {
        assert_eq!(counters[name], 0, "fig4 must not touch {name}");
    }
    assert!(
        span_paths.iter().any(|p| p == names::SPAN_ENGINE_INGEST),
        "engine ingest span missing from the catalog padding"
    );

    // Drive the Gram-cached filter once (in the same test: the registry
    // is process-global, so a second `#[test]` would race the block
    // above). All three scoring counters must move.
    let objective = two_source_objective();
    let before = fluxprint_telemetry::snapshot();
    drive_cached_filter(&objective);
    let after = fluxprint_telemetry::snapshot();
    for name in [
        names::SOLVER_GRAM_BUILD,
        names::SOLVER_GRAM_COMBO_EVALS,
        names::SOLVER_RESIDUAL_EXACT,
    ] {
        assert!(
            after.counter(name) > before.counter(name),
            "counter {name} did not move across a cached filter run"
        );
    }
    // Screening runs the exact residual for at most every probe.
    let delta = |name| after.counter(name) - before.counter(name);
    assert!(delta(names::SOLVER_RESIDUAL_EXACT) <= delta(names::SOLVER_GRAM_COMBO_EVALS));

    // One random search runs on the calling thread, so each kept fit's
    // Nelder–Mead refinement nests under the search span at any pool
    // width (same test, same reason).
    let before = after;
    let config = fluxprint_solver::RandomSearchConfig {
        samples: 64,
        top_m: 2,
    };
    fluxprint_solver::random_search(
        &objective,
        2,
        &config,
        &mut rand::rngs::StdRng::seed_from_u64(9),
    )
    .expect("random search runs");
    let after = fluxprint_telemetry::snapshot();
    let spans = |snap: &fluxprint_telemetry::Snapshot, path: &str| {
        snap.spans.get(path).map_or(0, |stat| stat.count)
    };
    let nested = format!("{}/{}", names::SPAN_RANDOM_SEARCH, names::SPAN_NELDER_MEAD);
    assert_eq!(
        spans(&after, &nested) - spans(&before, &nested),
        config.top_m as u64,
        "each kept fit refines under {nested}"
    );
    assert_eq!(
        spans(&after, names::SPAN_NELDER_MEAD),
        spans(&before, names::SPAN_NELDER_MEAD),
        "no refinement may land at the top level"
    );

    // An explicit 2-thread dispatch moves the pool's counters even when
    // `FLUXPRINT_THREADS=1` pins the process-wide pool.
    let before = after;
    fluxprint_fluxpar::Pool::with_threads(2).map_indexed(4, |i| i * i);
    let after = fluxprint_telemetry::snapshot();
    let delta = |name| after.counter(name) - before.counter(name);
    assert_eq!(delta(names::FLUXPAR_TASKS), 4, "one task per item");
    assert_eq!(delta(names::FLUXPAR_THREADS), 2, "two workers ran");

    // Drive a streaming-engine session through a checkpoint/restore cycle
    // (same test, same reason) and check every engine counter moves.
    let before = after;
    drive_engine_session();
    let after = fluxprint_telemetry::snapshot();
    for name in [
        names::ENGINE_SESSIONS,
        names::ENGINE_ROUNDS,
        names::ENGINE_CHECKPOINTS,
        names::ENGINE_RESTORES,
    ] {
        assert!(
            after.counter(name) > before.counter(name),
            "counter {name} did not move across an engine session"
        );
    }
    assert!(
        after.counter(names::ENGINE_ROUNDS) >= before.counter(names::ENGINE_ROUNDS) + 3,
        "three rounds were ingested"
    );
    let ingests = &after.spans[names::SPAN_ENGINE_INGEST];
    assert!(ingests.count >= 3, "ingest span recorded per round");

    // Hibernation metrics are catalog-padded (fig4 never touches them)…
    for name in [
        names::GRID_SESSIONS_HIBERNATED,
        names::GRID_HIBERNATE_EVICTIONS,
        names::GRID_HIBERNATE_REVIVALS,
    ] {
        assert!(counters.contains_key(name), "counter {name} missing");
        assert_eq!(counters[name], 0, "fig4 must not touch {name}");
    }
    assert!(
        histogram_names
            .iter()
            .any(|n| n == names::HIST_GRID_HIBERNATE_BYTES),
        "hibernate bytes histogram missing from the catalog padding"
    );

    // …and all of them move across a hibernating-grid drive (same test,
    // same process-global-registry reason as above).
    let before = after;
    drive_hibernating_grid();
    let after = fluxprint_telemetry::snapshot();
    for name in [
        names::GRID_SESSIONS_HIBERNATED,
        names::GRID_HIBERNATE_EVICTIONS,
        names::GRID_HIBERNATE_REVIVALS,
    ] {
        assert!(
            after.counter(name) > before.counter(name),
            "counter {name} did not move across a hibernating grid"
        );
    }
    let bytes = &after.histograms[names::HIST_GRID_HIBERNATE_BYTES];
    assert!(
        bytes.count() > 0,
        "eviction must record the cold session's size"
    );

    // Serving metrics are catalog-padded (fig4 never serves)…
    for name in [
        names::FLUXD_CONNECTIONS,
        names::FLUXD_FRAMES_IN,
        names::FLUXD_FRAMES_OUT,
        names::FLUXD_ROUNDS_SERVED,
        names::FLUXD_BACKPRESSURE_STALLS,
        names::FLUXD_PROTOCOL_ERRORS,
    ] {
        assert!(counters.contains_key(name), "counter {name} missing");
        assert_eq!(counters[name], 0, "fig4 must not touch {name}");
    }
    assert!(
        histogram_names
            .iter()
            .any(|n| n == names::HIST_FLUXD_FRAME_LATENCY),
        "frame latency histogram missing from the catalog padding"
    );

    // …and move across a loopback serve drive (same test, same
    // process-global-registry reason as above).
    let before = after;
    drive_loopback_fluxd();
    let after = fluxprint_telemetry::snapshot();
    for name in [
        names::FLUXD_CONNECTIONS,
        names::FLUXD_FRAMES_IN,
        names::FLUXD_FRAMES_OUT,
        names::FLUXD_ROUNDS_SERVED,
    ] {
        assert!(
            after.counter(name) > before.counter(name),
            "counter {name} did not move across a loopback serve drive"
        );
    }
    assert!(
        after.counter(names::FLUXD_ROUNDS_SERVED) >= before.counter(names::FLUXD_ROUNDS_SERVED) + 3,
        "three rounds were served"
    );
    let frame_latency = &after.histograms[names::HIST_FLUXD_FRAME_LATENCY];
    assert!(
        frame_latency.count() > 0,
        "served frames must record their service latency"
    );
}

/// A loopback fluxd serving one three-round session over TCP, so the
/// connection/frame/round counters and the frame-latency histogram all
/// move. (Counters recorded on the serving threads fold into the global
/// registry when `shutdown` joins them.)
fn drive_loopback_fluxd() {
    use fluxprint_engine::{Engine, GridConfig};
    use fluxprint_fluxd::{server, Client, ServerConfig, SessionSpec};
    use fluxprint_fluxmodel::FluxModel;
    use fluxprint_geometry::Point2;
    use fluxprint_netsim::{NetworkBuilder, NoiseModel, Sniffer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(9);
    let net = NetworkBuilder::new()
        .field(fluxprint_geometry::Rect::square(30.0).expect("valid field"))
        .perturbed_grid(10, 10, 0.3)
        .radius(5.0)
        .build(&mut rng)
        .expect("valid network");
    let sniffer = Sniffer::random_count(&net, 30, &mut rng).expect("valid sniffer");
    let engine = Engine::for_network(&net, FluxModel::default()).expect("valid engine");
    let handle = server::spawn(
        engine,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            grid: GridConfig {
                shards: 1,
                queue_capacity: 4,
                hibernate_after: 0,
                ..GridConfig::default()
            },
            credits: 0,
            drain_threshold: 0,
        },
    )
    .expect("server spawns");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let session = client
        .open_session(&SessionSpec {
            seed: 11,
            users: 1,
            n_predictions: 50,
            keep_m: 8,
            warm: false,
            start_time: 0.0,
        })
        .expect("session opens");
    for i in 1..=3u32 {
        let t = f64::from(i);
        let user = [(Point2::new(10.0 + t, 15.0), 2.0)];
        let flux = net.simulate_flux(&user, &mut rng).expect("flux simulates");
        let round = sniffer.observe_round_smoothed(t, &net, &flux, NoiseModel::None, &mut rng);
        client.submit(session, &[round]).expect("round submits");
    }
    client.wait_acks().expect("acks arrive");
    assert_eq!(client.take_outcomes(session).len(), 3);
    client.goodbye().expect("orderly goodbye");
    handle.shutdown().expect("clean shutdown");
}

/// A two-session grid with a one-round idle threshold: one session goes
/// quiet and hibernates (eviction + bytes), then the drain after a late
/// submit revives it — so all three hibernation counters and the bytes
/// histogram move.
fn drive_hibernating_grid() {
    use fluxprint_engine::{Engine, Grid, GridConfig, SessionConfig};
    use fluxprint_fluxmodel::FluxModel;
    use fluxprint_geometry::Point2;
    use fluxprint_netsim::{NetworkBuilder, NoiseModel, Sniffer};
    use fluxprint_smc::SmcConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(9);
    let net = NetworkBuilder::new()
        .field(fluxprint_geometry::Rect::square(30.0).expect("valid field"))
        .perturbed_grid(10, 10, 0.3)
        .radius(5.0)
        .build(&mut rng)
        .expect("valid network");
    let sniffer = Sniffer::random_count(&net, 30, &mut rng).expect("valid sniffer");
    let engine = Engine::for_network(&net, FluxModel::default()).expect("valid engine");
    let config = SessionConfig {
        users: 1,
        smc: SmcConfig {
            n_predictions: 50,
            ..Default::default()
        },
        start_time: 0.0,
        warm: false,
    };
    let rounds: Vec<_> = (1..=3u32)
        .map(|i| {
            let t = f64::from(i);
            let user = [(Point2::new(10.0 + t, 15.0), 2.0)];
            let flux = net.simulate_flux(&user, &mut rng).expect("flux simulates");
            sniffer.observe_round_smoothed(t, &net, &flux, NoiseModel::None, &mut rng)
        })
        .collect();

    let grid_config = GridConfig {
        shards: 1,
        queue_capacity: 4,
        hibernate_after: 1,
        ..GridConfig::default()
    };
    let mut grid = Grid::open(engine, &grid_config).expect("grid opens");
    let busy = grid.open_session(&config, 11).expect("session opens");
    let idle = grid.open_session(&config, 12).expect("session opens");
    grid.submit(busy, rounds[0].clone()).expect("submit");
    grid.submit(idle, rounds[0].clone()).expect("submit");
    grid.drain().expect("drain");
    // The idle session misses this round and evicts at the barrier.
    grid.submit(busy, rounds[1].clone()).expect("submit");
    grid.drain().expect("drain");
    assert!(grid.is_hibernated(idle).expect("known id"));
    // The late round revives it at the join's drain.
    grid.submit(idle, rounds[2].clone()).expect("submit");
    grid.join().expect("join");
}

/// Flux from two sources on a 6×6 sniffer grid.
fn two_source_objective() -> fluxprint_solver::FluxObjective {
    use fluxprint_fluxmodel::FluxModel;
    use fluxprint_geometry::{Point2, Rect};
    use std::sync::Arc;

    let field = Rect::square(30.0).expect("valid field");
    let model = FluxModel::default();
    let sniffers: Vec<Point2> = (0..36)
        .map(|i| Point2::new(2.5 + (i % 6) as f64 * 5.0, 2.5 + (i / 6) as f64 * 5.0))
        .collect();
    let truth = [(Point2::new(9.0, 9.0), 2.0), (Point2::new(21.0, 19.0), 1.0)];
    let measured: Vec<f64> = sniffers
        .iter()
        .map(|&p| model.predict_superposed(&truth, p, &field))
        .collect();
    fluxprint_solver::FluxObjective::new(Arc::new(field), model, sniffers, measured)
        .expect("valid objective")
}

/// One small association over `objective`.
fn drive_cached_filter(objective: &fluxprint_solver::FluxObjective) {
    use fluxprint_geometry::Point2;

    // Three hand-placed candidates per user, then 17 more on a ring, so
    // that each scan's first pass spans two 16-probe chunks.
    let ring = |i: usize| {
        let a = i as f64 * 0.37;
        Point2::new(15.0 + 12.0 * a.cos(), 15.0 + 12.0 * a.sin())
    };
    let mut candidates = vec![
        vec![
            Point2::new(9.0, 9.0),
            Point2::new(20.0, 5.0),
            Point2::new(15.0, 15.0),
        ],
        vec![
            Point2::new(10.0, 25.0),
            Point2::new(21.0, 19.0),
            Point2::new(27.0, 3.0),
        ],
    ];
    for (u, set) in candidates.iter_mut().enumerate() {
        set.extend((0..17).map(|i| ring(u * 17 + i)));
    }
    fluxprint_smc::associate(
        objective,
        &candidates,
        &[20, 20],
        &fluxprint_smc::SmcConfig::default(),
        &mut fluxprint_solver::CacheScratch::new(),
    )
    .expect("association runs");
}

/// Three rounds through an engine session with a checkpoint/restore cycle
/// in the middle, so `engine.sessions`, `engine.rounds`,
/// `engine.checkpoints`, and `engine.restores` all move.
fn drive_engine_session() {
    use fluxprint_engine::{Engine, SessionConfig};
    use fluxprint_fluxmodel::FluxModel;
    use fluxprint_geometry::Point2;
    use fluxprint_netsim::{NetworkBuilder, NoiseModel, Sniffer};
    use fluxprint_smc::SmcConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(5);
    let net = NetworkBuilder::new()
        .field(fluxprint_geometry::Rect::square(30.0).expect("valid field"))
        .perturbed_grid(10, 10, 0.3)
        .radius(5.0)
        .build(&mut rng)
        .expect("valid network");
    let sniffer = Sniffer::random_count(&net, 30, &mut rng).expect("valid sniffer");
    let engine = Engine::for_network(&net, FluxModel::default()).expect("valid engine");
    let config = SessionConfig {
        users: 1,
        smc: SmcConfig {
            n_predictions: 50,
            ..Default::default()
        },
        start_time: 0.0,
        warm: false,
    };
    let mut session = engine.open_session(&config, 3).expect("session opens");
    for i in 1..=3u32 {
        let t = f64::from(i);
        let user = [(Point2::new(10.0 + t, 15.0), 2.0)];
        let flux = net.simulate_flux(&user, &mut rng).expect("flux simulates");
        let round = sniffer.observe_round_smoothed(t, &net, &flux, NoiseModel::None, &mut rng);
        session.ingest(&round).expect("round ingests");
        if i == 2 {
            let checkpoint = session.checkpoint_compact(2);
            session = engine
                .restore_compact(&checkpoint)
                .expect("session restores");
        }
    }
}
