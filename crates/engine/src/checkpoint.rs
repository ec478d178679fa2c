//! The versioned session checkpoint format.
//!
//! A checkpoint is everything a [`Session`](crate::Session) needs to
//! resume bit-identically: the tracker snapshot (samples, weights,
//! heading histories, configuration, model), the session RNG's stream
//! position, the user lifecycle states, and the ingest counter. Derived
//! caches (the sniffer-set objective template) are deliberately excluded
//! — they rebuild on the first round after restore with no effect on
//! outputs.
//!
//! The RNG state is four 64-bit words encoded as fixed-width hex strings
//! rather than JSON numbers: the workspace's serde stand-in routes
//! integers above `i64::MAX` through `f64`, which would silently corrupt
//! high-entropy RNG words. Hex strings round-trip exactly everywhere.

use serde::{Deserialize, Serialize};

use fluxprint_fluxmodel::FluxModel;
use fluxprint_smc::{CompactTrackerState, SmcConfig, TrackerState, UserTrackState};

use crate::{EngineError, UserState, WarmState};

/// The checkpoint format version this build writes, and the only one
/// restore accepts — full, compact, delta and grid checkpoints alike.
/// Older documents are refused with [`EngineError::UnsupportedVersion`]
/// rather than migrated.
pub const CHECKPOINT_VERSION: u32 = 3;

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

/// A complete serializable session snapshot.
///
/// Produced by [`Session::checkpoint`](crate::Session::checkpoint),
/// revived by [`Engine::restore`](crate::Engine::restore). The format is
/// versioned: [`validate`](Self::validate) rejects checkpoints written by
/// other versions instead of misreading them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The tracker snapshot (per-user samples, weights, histories,
    /// configuration, flux model).
    pub tracker: TrackerState,
    /// Session RNG stream position: four 64-bit words as 16-digit hex.
    pub rng: Vec<String>,
    /// Lifecycle state per user, parallel to `tracker.users`.
    pub users: Vec<UserState>,
    /// Observation rounds ingested so far.
    pub rounds_ingested: u64,
    /// Warm-start state — `Some` iff the session runs warm.
    pub warm: Option<WarmState>,
}

impl SessionCheckpoint {
    /// Checks the checkpoint's engine-level invariants: the current
    /// version, a well-formed RNG encoding, and lifecycle states parallel
    /// to the tracker's users. Tracker-level invariants are checked by
    /// [`TrackerState::validate`] at restore.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnsupportedVersion`] or
    /// [`EngineError::BadCheckpoint`] naming the offending field.
    pub fn validate(&self) -> Result<(), EngineError> {
        check_version(self.version)?;
        self.decode_rng()?;
        if self.users.len() != self.tracker.users.len() {
            return Err(EngineError::BadCheckpoint { field: "users" });
        }
        if let Some(warm) = &self.warm {
            if warm.hot.len() != self.users.len() {
                return Err(EngineError::BadCheckpoint { field: "warm" });
            }
        }
        Ok(())
    }

    /// Decodes the hex-encoded RNG stream position.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadCheckpoint`] for a malformed encoding.
    pub(crate) fn decode_rng(&self) -> Result<[u64; 4], EngineError> {
        decode_rng_words(&self.rng)
    }

    /// Encodes an RNG stream position as fixed-width hex words.
    pub(crate) fn encode_rng(words: [u64; 4]) -> Vec<String> {
        words.iter().map(|w| format!("{w:016x}")).collect()
    }

    /// The checkpoint's snapshot id: a 16-hex-digit FNV-1a 64 hash of
    /// its serialized JSON. Delta chains name their base and predecessor
    /// states by this id.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::CheckpointCodec`] when encoding fails.
    pub fn snapshot_id(&self) -> Result<String, EngineError> {
        let json =
            serde_json::to_string(self).map_err(|e| EngineError::CheckpointCodec(e.to_string()))?;
        Ok(format!("{:016x}", fnv1a64(json.as_bytes())))
    }

    /// Packs this checkpoint into the [`CompactCheckpoint`] form,
    /// keeping at most `history_cap` heading-history entries per user.
    /// A cap of 2 (the live tracker's own bound) loses nothing; smaller
    /// caps are refused at expansion when the configuration's
    /// `heading_bias` is nonzero.
    pub fn compact(&self, history_cap: u32) -> CompactCheckpoint {
        CompactCheckpoint {
            version: CHECKPOINT_VERSION,
            config: self.tracker.config,
            model: self.tracker.model,
            tracker: self.tracker.compact(history_cap),
            rng: self.rng.clone(),
            users: self.users.clone(),
            rounds_ingested: self.rounds_ingested,
            warm: self.warm.clone(),
        }
    }
}

/// A [`SessionCheckpoint`] in compact form: pooled, base64-packed sample
/// blobs (see [`CompactTrackerState`]) with truncated histories and no
/// derived state.
///
/// The compact form is lossless for every KPI-bearing float — expansion
/// is bit-exact — but drops history entries beyond its `history_cap`,
/// which is semantics-preserving whenever the cap is 2 or the
/// configuration's `heading_bias` is zero (the only consumer of the
/// history). [`expand`](Self::expand) enforces exactly that rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompactCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The tracker configuration (kept out of [`CompactTrackerState`]
    /// so fleet stores can share it; carried here so a single compact
    /// checkpoint is still self-contained).
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
    /// Checks the compact checkpoint's engine-level invariants; the
    /// packed tracker blobs are checked by [`CompactTrackerState::validate`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnsupportedVersion`],
    /// [`EngineError::BadCheckpoint`], or a tracker validation error.
    pub fn validate(&self) -> Result<(), EngineError> {
        self.validate_envelope()?;
        self.tracker.validate().map_err(EngineError::Smc)
    }

    /// The engine-level checks of [`validate`](Self::validate), which
    /// come first there; returns the decoded RNG stream position.
    pub(crate) fn validate_envelope(&self) -> Result<[u64; 4], EngineError> {
        check_version(self.version)?;
        let rng = decode_rng_words(&self.rng)?;
        if self.users.len() != self.tracker.users.len() {
            return Err(EngineError::BadCheckpoint { field: "users" });
        }
        if let Some(warm) = &self.warm {
            if warm.hot.len() != self.users.len() {
                return Err(EngineError::BadCheckpoint { field: "warm" });
            }
        }
        Ok(rng)
    }

    /// Expands back into the full [`SessionCheckpoint`] form. The
    /// expansion is bit-exact; restoring the result continues the
    /// session bit-identically.
    ///
    /// # Errors
    ///
    /// As [`validate`](Self::validate), plus the tracker expansion
    /// rules (a lossy `history_cap` under nonzero `heading_bias` is
    /// refused).
    pub fn expand(&self) -> Result<SessionCheckpoint, EngineError> {
        self.validate_envelope()?;
        let tracker = self
            .tracker
            .expand(self.config, self.model)
            .map_err(EngineError::Smc)?;
        Ok(SessionCheckpoint {
            version: self.version,
            tracker,
            rng: self.rng.clone(),
            users: self.users.clone(),
            rounds_ingested: self.rounds_ingested,
            warm: self.warm.clone(),
        })
    }

    /// The bytes this value occupies in memory: its inline size plus the
    /// length of every heap buffer it owns — the per-user entries with
    /// their three base64 blobs and heading histories, the RNG words,
    /// the lifecycle states and the warm flags. Spare capacity and
    /// allocator overhead are not counted, so the figure depends only on
    /// the value. This is what a hibernated grid resident costs (see
    /// [`Grid::hibernated_bytes`](crate::Grid::hibernated_bytes)).
    pub fn in_memory_bytes(&self) -> usize {
        let users: usize = self
            .tracker
            .users
            .iter()
            .map(|u| {
                std::mem::size_of_val(u)
                    + u.pos_pool.len()
                    + u.w_pool.len()
                    + u.samples.len()
                    + std::mem::size_of_val(u.history.as_slice())
            })
            .sum();
        let rng: usize = self
            .rng
            .iter()
            .map(|w| std::mem::size_of_val(w) + w.len())
            .sum();
        let warm = self
            .warm
            .as_ref()
            .map_or(0, |w| std::mem::size_of_val(w.hot.as_slice()));
        std::mem::size_of_val(self)
            + users
            + rng
            + std::mem::size_of_val(self.users.as_slice())
            + warm
    }
}

/// One changed user inside a [`DeltaCheckpoint`]: the user's complete
/// new track state. `index == users.len()` of the predecessor state
/// appends (a [`join`](crate::Session::join)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaUser {
    /// The user's index.
    pub index: u32,
    /// The user's full new track state.
    pub state: UserTrackState,
}

/// A diff between two consecutive session snapshots in a chain rooted
/// at a named base [`SessionCheckpoint`].
///
/// Mostly-idle sessions change little between rounds — a frozen user's
/// samples, `Δt` origin, and history are untouched — so a per-round
/// delta stream is far smaller than per-round full checkpoints. The
/// chain is self-validating: every delta names the chain origin
/// (`base`), its position (`seq`, 1-based and contiguous), and the
/// snapshot id of the exact state it applies to (`prev`), so
/// [`materialize`] rejects missing bases, reordered deltas, and deltas
/// applied to the wrong state with distinct errors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Snapshot id of the chain's base checkpoint.
    pub base: String,
    /// Position in the chain, 1-based and contiguous.
    pub seq: u64,
    /// Snapshot id of the predecessor state this delta applies to (the
    /// base itself for `seq == 1`).
    pub prev: String,
    /// Users whose track state changed, sparse and index-ordered.
    pub changed: Vec<DeltaUser>,
    /// Lifecycle states — `Some` iff any changed since the predecessor
    /// (always present when `changed` grew the population).
    pub users: Option<Vec<UserState>>,
    /// Warm-start state — `Some` iff it changed since the predecessor.
    /// A session's warm state never transitions between `Some` and
    /// `None` after open, so "changed" always means a new
    /// [`WarmState`] value.
    pub warm: Option<WarmState>,
    /// Session RNG stream position after this delta — `Some` iff it
    /// moved since the predecessor. The stream only advances on
    /// ingested rounds, so an idle round's delta omits it entirely
    /// (idle deltas are what make the stream cheap).
    pub rng: Option<Vec<String>>,
    /// Observation rounds ingested as of this delta.
    pub rounds_ingested: u64,
    /// Tracker step clock as of this delta.
    pub last_step_time: f64,
}

/// Writer-side state for producing a [`DeltaCheckpoint`] chain: the
/// base snapshot id, the chain position, and content hashes of the
/// predecessor state — bounded memory regardless of session size.
///
/// Created over the chain's base checkpoint and advanced by every
/// [`Session::delta_checkpoint`](crate::Session::delta_checkpoint).
#[derive(Debug, Clone)]
pub struct DeltaBasis {
    pub(crate) base: String,
    pub(crate) seq: u64,
    pub(crate) prev: String,
    pub(crate) user_hashes: Vec<u64>,
    pub(crate) lifecycle: Vec<UserState>,
    pub(crate) warm: Option<WarmState>,
    pub(crate) rng: Vec<String>,
}

impl DeltaBasis {
    /// Starts a delta chain at `base` (typically the checkpoint just
    /// written to durable storage).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::CheckpointCodec`] when hashing fails.
    pub fn new(base: &SessionCheckpoint) -> Result<Self, EngineError> {
        let id = base.snapshot_id()?;
        Ok(DeltaBasis {
            base: id.clone(),
            seq: 0,
            prev: id,
            user_hashes: base
                .tracker
                .users
                .iter()
                .map(user_hash)
                .collect::<Result<_, _>>()?,
            lifecycle: base.users.clone(),
            warm: base.warm.clone(),
            rng: base.rng.clone(),
        })
    }

    /// Snapshot id of the chain's base checkpoint.
    pub fn base(&self) -> &str {
        &self.base
    }

    /// Sequence number of the most recently produced delta (0 before
    /// the first).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Replays a delta chain onto its base snapshot, validating the chain
/// at every link, and returns the materialized full checkpoint.
///
/// # Errors
///
/// - [`EngineError::DeltaBaseMissing`] when `base` is `None`.
/// - [`EngineError::DeltaBaseMismatch`] when a delta names a different
///   chain origin than `base`, or its `prev` id disagrees with the
///   state materialized so far (a delta applied to the wrong state).
/// - [`EngineError::DeltaChainBroken`] for a gap or reordering in the
///   sequence numbers.
/// - [`EngineError::BadCheckpoint`] for a structurally invalid delta
///   and the usual validation errors for a bad base.
pub fn materialize(
    base: Option<&SessionCheckpoint>,
    deltas: &[DeltaCheckpoint],
) -> Result<SessionCheckpoint, EngineError> {
    let Some(base) = base else {
        return Err(EngineError::DeltaBaseMissing {
            base: deltas.first().map(|d| d.base.clone()).unwrap_or_default(),
        });
    };
    base.validate()?;
    let origin = base.snapshot_id()?;
    let mut current = base.clone();
    let mut current_id = origin.clone();
    for (i, delta) in deltas.iter().enumerate() {
        check_version(delta.version)?;
        if delta.base != origin {
            return Err(EngineError::DeltaBaseMismatch {
                expected: origin.clone(),
                found: delta.base.clone(),
            });
        }
        let expected_seq = i as u64 + 1;
        if delta.seq != expected_seq {
            return Err(EngineError::DeltaChainBroken {
                expected: expected_seq,
                found: delta.seq,
            });
        }
        if delta.prev != current_id {
            return Err(EngineError::DeltaBaseMismatch {
                expected: current_id.clone(),
                found: delta.prev.clone(),
            });
        }
        for du in &delta.changed {
            let idx = du.index as usize;
            match idx.cmp(&current.tracker.users.len()) {
                std::cmp::Ordering::Less => current.tracker.users[idx] = du.state.clone(),
                std::cmp::Ordering::Equal => current.tracker.users.push(du.state.clone()),
                std::cmp::Ordering::Greater => {
                    return Err(EngineError::BadCheckpoint {
                        field: "delta.changed",
                    })
                }
            }
        }
        if let Some(users) = &delta.users {
            current.users = users.clone();
        }
        if current.users.len() != current.tracker.users.len() {
            // A delta that grew the tracker population must carry the
            // grown lifecycle vector too.
            return Err(EngineError::BadCheckpoint {
                field: "delta.users",
            });
        }
        if let Some(warm) = &delta.warm {
            current.warm = Some(warm.clone());
        }
        if let Some(rng) = &delta.rng {
            current.rng = rng.clone();
        }
        current.rounds_ingested = delta.rounds_ingested;
        current.tracker.last_step_time = delta.last_step_time;
        current.validate()?;
        current_id = current.snapshot_id()?;
    }
    Ok(current)
}

/// Decodes a hex-encoded RNG stream position (shared by the full and
/// compact checkpoint shapes).
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

/// Content hash of one user's serialized track state — what
/// [`DeltaBasis`] keeps instead of the state itself.
pub(crate) fn user_hash(user: &UserTrackState) -> Result<u64, EngineError> {
    let json =
        serde_json::to_string(user).map_err(|e| EngineError::CheckpointCodec(e.to_string()))?;
    Ok(fnv1a64(json.as_bytes()))
}

/// FNV-1a 64 — the same tiny stable hash the experiment registry uses
/// for plan identity; here it names snapshots in delta chains.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxprint_fluxmodel::FluxModel;
    use fluxprint_geometry::Point2;
    use fluxprint_smc::{SmcConfig, UserTrackState, WeightedSample};

    fn checkpoint() -> SessionCheckpoint {
        SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            tracker: TrackerState {
                config: SmcConfig::default(),
                model: FluxModel::default(),
                users: vec![UserTrackState {
                    samples: vec![WeightedSample {
                        position: Point2::new(1.0, 2.0),
                        weight: 1.0,
                    }],
                    t_last: 0.0,
                    initialized: false,
                    history: Vec::new(),
                }],
                last_step_time: 0.0,
            },
            rng: SessionCheckpoint::encode_rng([1, u64::MAX, 0x0123_4567_89ab_cdef, 42]),
            users: vec![UserState::Active],
            rounds_ingested: 3,
            warm: None,
        }
    }

    #[test]
    fn rng_hex_round_trips_extreme_words() {
        let words = [u64::MAX, 0, 1, 0x8000_0000_0000_0001];
        let encoded = SessionCheckpoint::encode_rng(words);
        let mut cp = checkpoint();
        cp.rng = encoded;
        assert_eq!(cp.decode_rng().unwrap(), words);
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad() {
        checkpoint().validate().unwrap();

        let mut cp = checkpoint();
        cp.version = CHECKPOINT_VERSION + 1;
        assert!(matches!(
            cp.validate(),
            Err(EngineError::UnsupportedVersion {
                found,
                supported: CHECKPOINT_VERSION
            }) if found == CHECKPOINT_VERSION + 1
        ));

        let mut cp = checkpoint();
        cp.version = 0;
        assert!(matches!(
            cp.validate(),
            Err(EngineError::UnsupportedVersion { found: 0, .. })
        ));

        let mut cp = checkpoint();
        cp.warm = Some(WarmState {
            rounds_since_escape: 1,
            hot: vec![true, false],
        });
        assert!(matches!(
            cp.validate(),
            Err(EngineError::BadCheckpoint { field: "warm" })
        ));

        let mut cp = checkpoint();
        cp.warm = Some(WarmState::cold(1));
        cp.validate().unwrap();

        let mut cp = checkpoint();
        cp.rng.pop();
        assert!(matches!(
            cp.validate(),
            Err(EngineError::BadCheckpoint { field: "rng" })
        ));

        let mut cp = checkpoint();
        cp.rng[0] = "not hex".into();
        assert!(matches!(
            cp.validate(),
            Err(EngineError::BadCheckpoint { field: "rng" })
        ));

        let mut cp = checkpoint();
        cp.users.push(UserState::Suspended);
        assert!(matches!(
            cp.validate(),
            Err(EngineError::BadCheckpoint { field: "users" })
        ));
    }

    #[test]
    fn checkpoint_json_round_trips() {
        let cp = checkpoint();
        let json = serde_json::to_string(&cp).unwrap();
        let back: SessionCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cp);
        assert_eq!(
            back.decode_rng().unwrap(),
            [1, u64::MAX, 0x0123_4567_89ab_cdef, 42]
        );
    }

    #[test]
    fn compact_checkpoint_round_trips_and_validates() {
        let full = checkpoint();
        let compact = full.compact(2);
        compact.validate().unwrap();
        let expanded = compact.expand().unwrap();
        assert_eq!(expanded.tracker, full.tracker);
        assert_eq!(expanded.rng, full.rng);
        assert_eq!(expanded.users, full.users);
        assert_eq!(expanded.rounds_ingested, full.rounds_ingested);
        assert_eq!(expanded.warm, full.warm);

        // JSON round trip of the compact form is exact too.
        let json = serde_json::to_string(&compact).unwrap();
        let back: CompactCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, compact);

        // Only the current version is accepted.
        let mut bad = compact.clone();
        bad.version = 2;
        assert!(matches!(
            bad.validate(),
            Err(EngineError::UnsupportedVersion { found: 2, .. })
        ));

        let mut bad = compact.clone();
        bad.users.push(UserState::Suspended);
        assert!(matches!(
            bad.validate(),
            Err(EngineError::BadCheckpoint { field: "users" })
        ));

        let mut bad = compact;
        bad.warm = Some(WarmState::cold(2));
        assert!(matches!(
            bad.validate(),
            Err(EngineError::BadCheckpoint { field: "warm" })
        ));
    }

    fn delta(seq: u64, base: &str, prev: &str, cp: &SessionCheckpoint) -> DeltaCheckpoint {
        DeltaCheckpoint {
            version: CHECKPOINT_VERSION,
            base: base.into(),
            seq,
            prev: prev.into(),
            changed: Vec::new(),
            users: None,
            warm: None,
            rng: Some(cp.rng.clone()),
            rounds_ingested: cp.rounds_ingested,
            last_step_time: cp.tracker.last_step_time,
        }
    }

    #[test]
    fn materialize_replays_a_chain_and_rejects_abuse() {
        let base = checkpoint();
        let origin = base.snapshot_id().unwrap();

        // An empty chain materializes the base itself.
        assert_eq!(materialize(Some(&base), &[]).unwrap(), base);

        // A two-link chain: first link bumps the round counter, second
        // rewrites a user's track.
        let mut step1 = base.clone();
        step1.rounds_ingested += 1;
        let mut d1 = delta(1, &origin, &origin, &step1);
        let id1 = step1.snapshot_id().unwrap();

        let mut step2 = step1.clone();
        step2.tracker.users[0].t_last = 5.0;
        step2.rounds_ingested += 1;
        let mut d2 = delta(2, &origin, &id1, &step2);
        d2.changed.push(DeltaUser {
            index: 0,
            state: step2.tracker.users[0].clone(),
        });

        let out = materialize(Some(&base), &[d1.clone(), d2.clone()]).unwrap();
        assert_eq!(out, step2);

        // Missing base.
        assert!(matches!(
            materialize(None, &[d1.clone()]),
            Err(EngineError::DeltaBaseMissing { base }) if base == origin
        ));

        // Out-of-order / gapped chain.
        assert!(matches!(
            materialize(Some(&base), &[d2.clone(), d1.clone()]),
            Err(EngineError::DeltaChainBroken {
                expected: 1,
                found: 2
            })
        ));
        assert!(matches!(
            materialize(Some(&base), &[d2.clone()]),
            Err(EngineError::DeltaChainBroken {
                expected: 1,
                found: 2
            })
        ));

        // Wrong chain origin.
        let mut foreign = d1.clone();
        foreign.base = "deadbeefdeadbeef".into();
        assert!(matches!(
            materialize(Some(&base), &[foreign]),
            Err(EngineError::DeltaBaseMismatch { expected, found })
                if expected == origin && found == "deadbeefdeadbeef"
        ));

        // Right origin, wrong predecessor state (a delta applied to a
        // state other than the one it diffed against).
        d1.prev = "deadbeefdeadbeef".into();
        assert!(matches!(
            materialize(Some(&base), &[d1]),
            Err(EngineError::DeltaBaseMismatch { expected, found })
                if expected == origin && found == "deadbeefdeadbeef"
        ));

        // A structurally broken delta: changed index past the
        // population.
        d2.seq = 1;
        d2.prev = origin.clone();
        d2.changed[0].index = 7;
        assert!(matches!(
            materialize(Some(&base), &[d2]),
            Err(EngineError::BadCheckpoint {
                field: "delta.changed"
            })
        ));
    }
}
