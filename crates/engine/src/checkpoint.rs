//! The versioned session checkpoint: one compact document.
//!
//! A [`CompactCheckpoint`] is everything a [`Session`](crate::Session)
//! needs to resume bit-identically: the tracker snapshot (pooled,
//! base64-packed sample blobs, heading histories, configuration, model),
//! the session RNG's stream position, the user lifecycle states, the
//! ingest counter and the warm-start state. Derived caches (the
//! sniffer-set objective template) are deliberately excluded — they
//! rebuild on the first round after restore with no effect on outputs.
//! It is the external form only: sessions, grid checkpoints and fluxd's
//! `Checkpoint` frame carry it, while a grid's hibernated residents stay
//! live [`Session`](crate::Session)s and are encoded on demand.
//!
//! The RNG state is four 64-bit words encoded as fixed-width hex strings
//! rather than JSON numbers: the workspace's serde stand-in routes
//! integers above `i64::MAX` through `f64`, which would silently corrupt
//! high-entropy RNG words. Hex strings round-trip exactly everywhere.

use serde::{Deserialize, Serialize};

use fluxprint_fluxmodel::FluxModel;
use fluxprint_smc::{CompactTrackerState, SmcConfig};

use crate::{EngineError, UserState, WarmState};

/// The checkpoint format version this build writes, and the only one
/// restore accepts — session and grid checkpoints alike. Older documents
/// are refused with [`EngineError::UnsupportedVersion`] rather than
/// migrated.
pub const CHECKPOINT_VERSION: u32 = 4;

/// Refuses any format version but [`CHECKPOINT_VERSION`].
pub(crate) fn check_version(found: u32) -> Result<(), EngineError> {
    if found == CHECKPOINT_VERSION {
        Ok(())
    } else {
        Err(EngineError::UnsupportedVersion {
            found,
            supported: CHECKPOINT_VERSION,
        })
    }
}

/// Decodes a checkpoint document (a session's or a grid's) from JSON
/// text. The document is parsed once, and a `version` it carries is
/// checked before the typed conversion, so an older document is
/// refused by its version rather than by whichever field its shape
/// lacks.
///
/// # Errors
///
/// [`EngineError::CheckpointCodec`] for unparseable JSON or a shape
/// mismatch, [`EngineError::UnsupportedVersion`] for any other version.
pub(crate) fn from_json<T: Deserialize>(json: &str) -> Result<T, EngineError> {
    let value =
        serde_json::parse_value(json).map_err(|e| EngineError::CheckpointCodec(e.to_string()))?;
    if let Some(found) = value.get("version").and_then(|v| u32::from_value(v).ok()) {
        check_version(found)?;
    }
    T::from_value(&value).map_err(|e| EngineError::CheckpointCodec(e.to_string()))
}

/// A serializable session snapshot: the tracker in compact form (see
/// [`CompactTrackerState`]) with its configuration and model, plus the
/// session's own state.
///
/// Produced by [`Session::checkpoint_compact`](crate::Session::checkpoint_compact),
/// revived by [`Engine::restore_compact`](crate::Engine::restore_compact).
/// The form is lossless for every float — decoding is bit-exact — but
/// drops history entries beyond its `history_cap`, which preserves
/// stepping whenever the cap is 2 or the configuration's `heading_bias`
/// is zero (the only consumer of the history); restore enforces exactly
/// that rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompactCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The tracker configuration ([`CompactTrackerState`] leaves it out;
    /// it is carried here so the checkpoint is self-contained).
    pub config: SmcConfig,
    /// The flux model the tracker fits against.
    pub model: FluxModel,
    /// The compact tracker snapshot.
    pub tracker: CompactTrackerState,
    /// Session RNG stream position: four 64-bit words as 16-digit hex.
    pub rng: Vec<String>,
    /// Lifecycle state per user, parallel to `tracker.users`.
    pub users: Vec<UserState>,
    /// Observation rounds ingested so far.
    pub rounds_ingested: u64,
    /// Warm-start state — `Some` iff the session runs warm.
    pub warm: Option<WarmState>,
}

impl CompactCheckpoint {
    /// This checkpoint as a JSON document, the form
    /// [`Engine::restore_compact_json`](crate::Engine::restore_compact_json)
    /// reads.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::CheckpointCodec`] when encoding fails.
    pub fn to_json(&self) -> Result<String, EngineError> {
        serde_json::to_string(self).map_err(|e| EngineError::CheckpointCodec(e.to_string()))
    }
}

/// Encodes an RNG stream position as fixed-width hex words.
pub(crate) fn encode_rng(words: [u64; 4]) -> Vec<String> {
    words.iter().map(|w| format!("{w:016x}")).collect()
}

/// Decodes a hex-encoded RNG stream position.
pub(crate) fn decode_rng_words(rng: &[String]) -> Result<[u64; 4], EngineError> {
    if rng.len() != 4 {
        return Err(EngineError::BadCheckpoint { field: "rng" });
    }
    let mut words = [0u64; 4];
    for (w, s) in words.iter_mut().zip(rng) {
        *w = u64::from_str_radix(s, 16).map_err(|_| EngineError::BadCheckpoint { field: "rng" })?;
    }
    Ok(words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use fluxprint_geometry::Rect;
    use fluxprint_smc::Tracker;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn checkpoint() -> CompactCheckpoint {
        let config = SmcConfig {
            keep_m: 1,
            ..SmcConfig::default()
        };
        let field = Arc::new(Rect::square(30.0).unwrap());
        let mut rng = StdRng::seed_from_u64(1);
        let tracker = Tracker::new(1, field, FluxModel::default(), config, 0.0, &mut rng).unwrap();
        CompactCheckpoint {
            version: CHECKPOINT_VERSION,
            config,
            model: FluxModel::default(),
            tracker: tracker.compact(2),
            rng: encode_rng([1, u64::MAX, 0x0123_4567_89ab_cdef, 42]),
            users: vec![UserState::Active],
            rounds_ingested: 3,
            warm: None,
        }
    }

    #[test]
    fn checkpoint_json_round_trips_extreme_rng_words() {
        let words = [u64::MAX, 0, 1, 0x8000_0000_0000_0001];
        let mut cp = checkpoint();
        cp.rng = encode_rng(words);
        let back: CompactCheckpoint = serde_json::from_str(&cp.to_json().unwrap()).unwrap();
        assert_eq!(back, cp);
        assert_eq!(decode_rng_words(&back.rng).unwrap(), words);
    }
}
