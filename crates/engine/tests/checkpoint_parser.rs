//! Property test of the checkpoint parsers. Documents derived from valid
//! session and grid checkpoints by one mutation — an extreme value in
//! place of one number, one substituted byte, or a truncation — either
//! restore or are refused with a typed [`EngineError`], and never panic.
//! A document that restores re-checkpoints to a value that restores to
//! an equal checkpoint.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use fluxprint_engine::{Engine, EngineError, Grid, GridConfig, SessionConfig};
use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::Point2;
use fluxprint_netsim::{NetworkBuilder, NoiseModel, ObservationRound, Sniffer};
use fluxprint_smc::{SmcConfig, SmcError, MAX_N_PREDICTIONS};

/// Replacement values for one number token: zeros, signs, the edges of
/// the integer types the documents carry, and floats at and beyond the
/// `f64` range.
const EXTREMES: [&str; 16] = [
    "0",
    "-0",
    "-1",
    "1",
    "2",
    "8",
    "0.5",
    "1e300",
    "-1e300",
    "1e-300",
    "1e400",
    "65535",
    "65536",
    "4294967295",
    "4294967296",
    "18446744073709551615",
];

/// The engine and the two valid documents every case mutates.
struct Fixtures {
    engine: Engine,
    session: String,
    grid: String,
}

fn grid_config() -> GridConfig {
    GridConfig {
        shards: 1,
        queue_capacity: 8,
        hibernate_after: 1,
        ..GridConfig::default()
    }
}

fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(70);
        let net = NetworkBuilder::new()
            .field(fluxprint_geometry::Rect::square(30.0).unwrap())
            .perturbed_grid(10, 10, 0.3)
            .radius(4.0)
            .build(&mut rng)
            .unwrap();
        let sniffer = Sniffer::random_count(&net, 24, &mut rng).unwrap();
        let trace: Vec<ObservationRound> = (1..=4)
            .map(|i| {
                let t = f64::from(i);
                let user = (Point2::new(8.0 + 1.5 * t, 15.0), 2.0);
                let flux = net.simulate_flux(&[user], &mut rng).unwrap();
                sniffer.observe_round_smoothed(t, &net, &flux, NoiseModel::None, &mut rng)
            })
            .collect();
        let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
        let config = |users, warm| SessionConfig {
            users,
            smc: SmcConfig {
                n_predictions: 40,
                keep_m: 4,
                ..Default::default()
            },
            start_time: 0.0,
            warm,
        };

        // A warm two-user session with heading history.
        let mut session = engine.open_session(&config(2, true), 71).unwrap();
        for round in &trace[..3] {
            session.ingest(round).unwrap();
        }
        let checkpoint = session.checkpoint_compact(2);
        assert!(checkpoint
            .tracker
            .users
            .iter()
            .any(|u| u.history.len() == 2));
        let session = checkpoint.to_json().unwrap();

        // A grid holding a hot resident with a queued round and a cold one.
        let mut grid = Grid::open(engine.clone(), &grid_config()).unwrap();
        let hot = grid.open_session(&config(1, false), 72).unwrap();
        let cold = grid.open_session(&config(1, true), 73).unwrap();
        grid.submit(hot, trace[0].clone()).unwrap();
        grid.submit(cold, trace[0].clone()).unwrap();
        grid.drain().unwrap();
        grid.submit(hot, trace[1].clone()).unwrap();
        grid.drain().unwrap();
        grid.submit(hot, trace[2].clone()).unwrap();
        assert!(!grid.is_hibernated(hot).unwrap() && grid.is_hibernated(cold).unwrap());
        assert_eq!(grid.queued(hot).unwrap(), 1);
        let grid = grid.checkpoint_json().unwrap();

        Fixtures {
            engine,
            session,
            grid,
        }
    })
}

/// Byte spans of the number tokens outside string literals.
fn number_tokens(doc: &str) -> Vec<(usize, usize)> {
    let bytes = doc.as_bytes();
    let mut tokens = Vec::new();
    let (mut i, mut in_string) = (0, false);
    while i < bytes.len() {
        let c = bytes[i];
        if in_string {
            match c {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
        } else if c == b'"' {
            in_string = true;
        } else if c == b'-' || c.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && matches!(bytes[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                i += 1;
            }
            tokens.push((start, i));
            continue;
        }
        i += 1;
    }
    tokens
}

/// One mutation of `doc`: `kind` 0 puts `EXTREMES[extreme]` in place of
/// the `at`-th number token, 1 writes the ASCII byte `byte` at offset
/// `at`, and 2 truncates at offset `at` (offsets and token indices wrap).
/// The documents are ASCII, so every result is valid UTF-8.
fn mutate(doc: &str, kind: u8, at: usize, extreme: usize, byte: u8) -> String {
    match kind {
        0 => {
            let tokens = number_tokens(doc);
            let (start, end) = tokens[at % tokens.len()];
            format!("{}{}{}", &doc[..start], EXTREMES[extreme], &doc[end..])
        }
        1 => {
            let mut bytes = doc.as_bytes().to_vec();
            let at = at % bytes.len();
            bytes[at] = byte;
            String::from_utf8(bytes).unwrap()
        }
        _ => doc[..at % doc.len()].to_string(),
    }
}

/// Whether an error is one restore is allowed to return for a mutated
/// document: every typed variant a malformed checkpoint produces.
fn is_checkpoint_error(e: &EngineError) -> bool {
    matches!(
        e,
        EngineError::CheckpointCodec(_)
            | EngineError::UnsupportedVersion { .. }
            | EngineError::BadCheckpoint { .. }
            | EngineError::Smc(_)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_048))]

    #[test]
    fn mutated_session_documents_restore_or_refuse(
        kind in 0u8..3,
        at in 0usize..1 << 20,
        extreme in 0usize..EXTREMES.len(),
        byte in 0u8..128,
    ) {
        let f = fixtures();
        let doc = mutate(&f.session, kind, at, extreme, byte);
        match f.engine.restore_compact_json(&doc) {
            Ok(session) => {
                let again = session.checkpoint_compact(2);
                let revived = f.engine.restore_compact(&again);
                prop_assert!(revived.is_ok(), "re-checkpoint refused: {:?}", revived.err());
                if let Ok(revived) = revived {
                    prop_assert_eq!(revived.checkpoint_compact(2), again);
                }
            }
            Err(e) => prop_assert!(is_checkpoint_error(&e), "unexpected error {e:?}"),
        }
    }

    #[test]
    fn mutated_grid_documents_restore_or_refuse(
        kind in 0u8..3,
        at in 0usize..1 << 20,
        extreme in 0usize..EXTREMES.len(),
        byte in 0u8..128,
    ) {
        let f = fixtures();
        let doc = mutate(&f.grid, kind, at, extreme, byte);
        match Grid::restore_json(f.engine.clone(), &grid_config(), &doc) {
            Ok(grid) => {
                let again = grid.checkpoint();
                let revived = Grid::restore(f.engine.clone(), &grid_config(), &again);
                prop_assert!(revived.is_ok(), "re-checkpoint refused: {:?}", revived.err());
                if let Ok(revived) = revived {
                    prop_assert_eq!(revived.checkpoint(), again);
                }
            }
            Err(e) => prop_assert!(is_checkpoint_error(&e), "unexpected error {e:?}"),
        }
    }
}

/// A document asking for more predictions per user than
/// [`MAX_N_PREDICTIONS`] is refused by restore, before its first ingest
/// could allocate for them: as a session, as a grid's hot resident and
/// as a grid's cold one.
#[test]
fn oversized_prediction_counts_are_refused_at_restore() {
    let f = fixtures();
    let valid = "\"n_predictions\":40";
    for n in [MAX_N_PREDICTIONS + 1, u32::MAX as usize] {
        let huge = format!("\"n_predictions\":{n}");
        let refused = |e: EngineError| {
            matches!(
                e,
                EngineError::Smc(SmcError::BadConfig {
                    field: "n_predictions"
                })
            )
        };
        let session = f.session.replace(valid, &huge);
        assert_ne!(session, f.session);
        let err = f.engine.restore_compact_json(&session).err().unwrap();
        assert!(refused(err), "session n={n}");
        // The grid document holds one hot and one cold resident; each is
        // refused on its own.
        for nth in 0..2 {
            let mut at = 0;
            for _ in 0..=nth {
                at += f.grid[at..].find(valid).unwrap() + 1;
            }
            let grid = format!(
                "{}{huge}{}",
                &f.grid[..at - 1],
                &f.grid[at - 1 + valid.len()..]
            );
            let err = Grid::restore_json(f.engine.clone(), &grid_config(), &grid)
                .err()
                .unwrap();
            assert!(refused(err), "grid resident {nth} n={n}");
        }
    }
}
