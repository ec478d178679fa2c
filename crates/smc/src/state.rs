//! Tracker state snapshots and their one serialized form.
//!
//! A [`Tracker`](crate::Tracker) is a live object holding an
//! `Arc<dyn Boundary>`; the boundary is scenario geometry, not tracker
//! state. Everything else — per-user weighted samples, freeze times,
//! initialization flags, the §4.C heading history, the configuration,
//! and the flux model — is captured by [`TrackerState`], a plain
//! in-memory snapshot that [`Tracker::state`](crate::Tracker::state)
//! produces.
//!
//! The serialized form is [`CompactTrackerState`]: per-user pools of raw
//! `f64` bit patterns, packed as base64, without the configuration or
//! model. [`TrackerState::compact`] writes it and
//! [`CompactTrackerState::expand`] reads it back, checking every
//! invariant the live tracker relies on;
//! [`Tracker::from_compact`](crate::Tracker::from_compact) revives a
//! tracker from it against a caller-supplied boundary.
//!
//! The round-trip is exact: every float is preserved bit-for-bit, so a
//! revived tracker continues producing bit-identical
//! [`StepOutcome`](crate::StepOutcome)s — the engine crate's checkpoint
//! guarantee builds directly on this.

use serde::{Deserialize, Serialize};

use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::Point2;

use crate::{SmcConfig, SmcError, WeightedSample};

/// Snapshot of one tracked user: the `<P(i), w(i)>` duples of §4.D plus
/// the asynchronous-gate bookkeeping of §4.E.
#[derive(Debug, Clone, PartialEq)]
pub struct UserTrackState {
    /// The user's current weighted position samples.
    pub samples: Vec<WeightedSample>,
    /// Time of the user's last detected collection (the `Δt` origin).
    pub t_last: f64,
    /// Whether the user has ever matched an observation (uninitialized
    /// users predict uniformly over the whole field).
    pub initialized: bool,
    /// The last up-to-two active-round estimates with their times, for
    /// the heading-aware prediction refinement of §4.C.
    pub history: Vec<(f64, Point2)>,
}

/// Complete tracker state: configuration, flux model, and every user's
/// track. Produced by [`Tracker::state`](crate::Tracker::state) and
/// [`CompactTrackerState::expand`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerState {
    /// The tracker's configuration.
    pub config: SmcConfig,
    /// The flux model the tracker fits against.
    pub model: FluxModel,
    /// Per-user track state, in user-index order.
    pub users: Vec<UserTrackState>,
    /// Time of the most recent step (or the start time).
    pub last_step_time: f64,
}

impl TrackerState {
    /// Validates every invariant the live tracker relies on: a valid
    /// configuration, a positive finite model floor, a finite step
    /// clock, and at least one user, each with a nonempty set of
    /// finite, nonnegatively weighted samples, at most two history
    /// entries, and a finite `Δt` origin no later than the step clock
    /// (the tracker only ever sets `t_last` to a step time, and a later
    /// one would make the next prediction disc's radius
    /// `v_max·(t − t_last)` negative).
    ///
    /// # Errors
    ///
    /// Returns [`SmcError::ZeroUsers`] for an empty user list and
    /// [`SmcError::BadConfig`] for any other violation.
    pub fn validate(&self) -> Result<(), SmcError> {
        self.config.validate()?;
        if !(self.model.d_floor().is_finite() && self.model.d_floor() > 0.0) {
            return Err(SmcError::BadConfig {
                field: "state.model.d_floor",
            });
        }
        if self.users.is_empty() {
            return Err(SmcError::ZeroUsers);
        }
        if !self.last_step_time.is_finite() {
            return Err(SmcError::BadConfig {
                field: "state.last_step_time",
            });
        }
        for user in &self.users {
            if user.samples.is_empty() {
                return Err(SmcError::BadConfig {
                    field: "state.samples",
                });
            }
            for s in &user.samples {
                if !(s.weight.is_finite() && s.weight >= 0.0) {
                    return Err(SmcError::BadConfig {
                        field: "state.samples.weight",
                    });
                }
                if !(s.position.x.is_finite() && s.position.y.is_finite()) {
                    return Err(SmcError::BadConfig {
                        field: "state.samples.position",
                    });
                }
            }
            if !(user.t_last.is_finite() && user.t_last <= self.last_step_time) {
                return Err(SmcError::BadConfig {
                    field: "state.t_last",
                });
            }
            if user.history.len() > 2 {
                return Err(SmcError::BadConfig {
                    field: "state.history",
                });
            }
        }
        Ok(())
    }
}

/// Compact snapshot of one tracked user: the same information as
/// [`UserTrackState`] in a pooled, base64-packed form.
///
/// Positions and weights are deduplicated into per-user pools of raw
/// little-endian `f64` bit patterns; each sample is then a `(position,
/// weight)` pair of `u16` pool indices, which is why
/// [`SmcConfig::keep_m`] is bounded by the index range. The encoding is
/// quantization-free — every float survives bit-for-bit — so
/// [`CompactTrackerState::expand`] inverts
/// [`compact`](UserTrackState::compact) exactly. Sample *count*
/// information is carried redundantly in [`n`](Self::n) so a truncated
/// pool or index blob is refused instead of silently shrinking the
/// sample set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompactUserTrackState {
    /// Unique sample positions: base64 of little-endian `(x, y)` bit
    /// pairs, 16 bytes per entry, in first-seen order.
    pub pos_pool: String,
    /// Unique sample weights: base64 of little-endian `f64` bits, 8
    /// bytes per entry, in first-seen order.
    pub w_pool: String,
    /// Per-sample pool indices: base64 of little-endian `u16` pairs
    /// `(position index, weight index)`, 4 bytes per sample.
    pub samples: String,
    /// Sample count (must match the decoded length of `samples`).
    pub n: u32,
    /// Time of the user's last detected collection.
    pub t_last: f64,
    /// Whether the user has ever matched an observation.
    pub initialized: bool,
    /// Heading history, truncated to the snapshot's `history_cap`
    /// (newest entries kept).
    pub history: Vec<(f64, Point2)>,
}

impl UserTrackState {
    /// Packs this user's track into its compact form, keeping at most
    /// the `history_cap` newest history entries.
    pub fn compact(&self, history_cap: u32) -> CompactUserTrackState {
        let mut pos_pool: Vec<u8> = Vec::new();
        let mut pos_index: Vec<(u64, u64)> = Vec::new();
        let mut w_pool: Vec<u8> = Vec::new();
        let mut w_index: Vec<u64> = Vec::new();
        let mut pairs: Vec<u8> = Vec::with_capacity(self.samples.len() * 4);
        for s in &self.samples {
            let key = (s.position.x.to_bits(), s.position.y.to_bits());
            let pi = match pos_index.iter().position(|&k| k == key) {
                Some(i) => i,
                None => {
                    pos_index.push(key);
                    pos_pool.extend_from_slice(&key.0.to_le_bytes());
                    pos_pool.extend_from_slice(&key.1.to_le_bytes());
                    pos_index.len() - 1
                }
            };
            let wkey = s.weight.to_bits();
            let wi = match w_index.iter().position(|&k| k == wkey) {
                Some(i) => i,
                None => {
                    w_index.push(wkey);
                    w_pool.extend_from_slice(&wkey.to_le_bytes());
                    w_index.len() - 1
                }
            };
            pairs.extend_from_slice(&(pi as u16).to_le_bytes());
            pairs.extend_from_slice(&(wi as u16).to_le_bytes());
        }
        let skip = self.history.len().saturating_sub(history_cap as usize);
        CompactUserTrackState {
            pos_pool: b64_encode(&pos_pool),
            w_pool: b64_encode(&w_pool),
            samples: b64_encode(&pairs),
            n: self.samples.len() as u32,
            t_last: self.t_last,
            initialized: self.initialized,
            history: self.history[skip..].to_vec(),
        }
    }
}

impl CompactUserTrackState {
    /// Decodes the blobs: pools of whole entries, a sample blob matching
    /// `n`, and in-range indices. The float invariants are
    /// [`TrackerState::validate`]'s.
    fn decode(&self) -> Result<UserTrackState, SmcError> {
        let pos_bytes = b64_decode(&self.pos_pool).ok_or(SmcError::BadConfig {
            field: "compact.pos_pool",
        })?;
        if pos_bytes.is_empty() || pos_bytes.len() % 16 != 0 {
            return Err(SmcError::BadConfig {
                field: "compact.pos_pool",
            });
        }
        let positions: Vec<Point2> = pos_bytes
            .chunks_exact(16)
            .map(|c| {
                Point2::new(
                    // fluxlint: allow(no-panic) — chunks_exact(16) guarantees 8-byte halves
                    f64::from_bits(u64::from_le_bytes(c[..8].try_into().expect("8 bytes"))),
                    // fluxlint: allow(no-panic) — chunks_exact(16) guarantees 8-byte halves
                    f64::from_bits(u64::from_le_bytes(c[8..].try_into().expect("8 bytes"))),
                )
            })
            .collect();
        let w_bytes = b64_decode(&self.w_pool).ok_or(SmcError::BadConfig {
            field: "compact.w_pool",
        })?;
        if w_bytes.is_empty() || w_bytes.len() % 8 != 0 {
            return Err(SmcError::BadConfig {
                field: "compact.w_pool",
            });
        }
        let weights: Vec<f64> = w_bytes
            .chunks_exact(8)
            // fluxlint: allow(no-panic) — chunks_exact(8) guarantees 8-byte chunks
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect();
        let pair_bytes = b64_decode(&self.samples).ok_or(SmcError::BadConfig {
            field: "compact.samples",
        })?;
        if pair_bytes.len() % 4 != 0 || pair_bytes.len() / 4 != self.n as usize || self.n == 0 {
            return Err(SmcError::BadConfig {
                field: "compact.samples",
            });
        }
        let mut samples = Vec::with_capacity(self.n as usize);
        for pair in pair_bytes.chunks_exact(4) {
            // fluxlint: allow(no-panic) — chunks_exact(4) guarantees 2-byte halves
            let pi = u16::from_le_bytes(pair[..2].try_into().expect("2 bytes")) as usize;
            // fluxlint: allow(no-panic) — chunks_exact(4) guarantees 2-byte halves
            let wi = u16::from_le_bytes(pair[2..].try_into().expect("2 bytes")) as usize;
            let (position, weight) = match (positions.get(pi), weights.get(wi)) {
                (Some(&p), Some(&w)) => (p, w),
                _ => {
                    return Err(SmcError::BadConfig {
                        field: "compact.samples",
                    })
                }
            };
            samples.push(WeightedSample { position, weight });
        }
        Ok(UserTrackState {
            samples,
            t_last: self.t_last,
            initialized: self.initialized,
            history: self.history.clone(),
        })
    }
}

/// Compact snapshot of a whole tracker: the per-user compact tracks plus
/// the step clock, *without* the configuration or flux model — both are
/// engine-level scenario knowledge a caller supplies back at
/// [`expand`](Self::expand) time, so a fleet of thousands of compact
/// snapshots does not repeat them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompactTrackerState {
    /// Maximum history entries kept per user at pack time. Expansion
    /// with a cap below 2 is refused when the supplied configuration's
    /// `heading_bias` is nonzero: the heading refinement reads the full
    /// two-entry history, so truncating it would change KPIs. With the
    /// paper-default `heading_bias = 0` the history is never read and
    /// any cap preserves step semantics exactly.
    pub history_cap: u32,
    /// Per-user compact tracks, in user-index order.
    pub users: Vec<CompactUserTrackState>,
    /// Time of the most recent step (or the start time).
    pub last_step_time: f64,
}

impl TrackerState {
    /// Packs this snapshot into its compact form, keeping at most
    /// `history_cap` history entries per user. A cap of 2 (the live
    /// tracker's own bound) loses nothing; see
    /// [`CompactTrackerState::history_cap`] for when smaller caps are
    /// safe.
    pub fn compact(&self, history_cap: u32) -> CompactTrackerState {
        CompactTrackerState {
            history_cap,
            users: self.users.iter().map(|u| u.compact(history_cap)).collect(),
            last_step_time: self.last_step_time,
        }
    }
}

impl CompactTrackerState {
    /// Expands the compact snapshot into a [`TrackerState`] under a
    /// caller-supplied configuration and flux model, bit-for-bit equal
    /// to the one it was packed from (minus any history entries the cap
    /// truncated). Each blob is decoded once and the result validated
    /// once.
    ///
    /// # Errors
    ///
    /// [`SmcError::BadConfig`] with a `compact.*` field for a malformed
    /// blob or a history longer than the cap, and with field
    /// `compact.history_cap` when the pack-time cap was below 2 but
    /// `config.heading_bias` is nonzero (the truncation would change
    /// stepping); then the errors of [`TrackerState::validate`].
    pub fn expand(&self, config: SmcConfig, model: FluxModel) -> Result<TrackerState, SmcError> {
        let users = self
            .users
            .iter()
            .map(|user| {
                if user.history.len() > self.history_cap.min(2) as usize {
                    return Err(SmcError::BadConfig {
                        field: "compact.history",
                    });
                }
                user.decode()
            })
            .collect::<Result<Vec<_>, _>>()?;
        // fluxlint: allow(float-eq) — exact-zero sentinel: any nonzero bias reads history[1]
        if self.history_cap < 2 && config.heading_bias != 0.0 {
            return Err(SmcError::BadConfig {
                field: "compact.history_cap",
            });
        }
        let state = TrackerState {
            config,
            model,
            users,
            last_step_time: self.last_step_time,
        };
        state.validate()?;
        Ok(state)
    }
}

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 with padding, hand-rolled on std only (the workspace
/// vendors no codec crates).
fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [
            chunk[0],
            *chunk.get(1).unwrap_or(&0),
            *chunk.get(2).unwrap_or(&0),
        ];
        let word = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        for i in 0..4 {
            if i <= chunk.len() {
                out.push(B64_ALPHABET[(word >> (18 - 6 * i)) as usize & 0x3f] as char);
            } else {
                out.push('=');
            }
        }
    }
    out
}

/// [`B64_ALPHABET`] inverted: the 6-bit value of each alphabet byte,
/// `0xff` for every other byte.
const B64_VALUES: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < B64_ALPHABET.len() {
        table[B64_ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Inverse of [`b64_encode`]; `None` for any malformed input.
fn b64_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(4) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 4 * 3);
    let bytes = s.as_bytes();
    for chunk in bytes.chunks(4) {
        let pad = chunk.iter().rev().take_while(|&&c| c == b'=').count();
        if pad > 2 || chunk[..4 - pad].contains(&b'=') {
            return None;
        }
        let mut word = 0u32;
        for &c in &chunk[..4 - pad] {
            let v = B64_VALUES[c as usize];
            if v == 0xff {
                return None;
            }
            word = (word << 6) | u32::from(v);
        }
        word <<= 6 * pad;
        out.push((word >> 16) as u8);
        if pad < 2 {
            out.push((word >> 8) as u8);
        }
        if pad < 1 {
            out.push(word as u8);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(x: f64, y: f64, w: f64) -> WeightedSample {
        WeightedSample {
            position: Point2::new(x, y),
            weight: w,
        }
    }

    fn valid_state() -> TrackerState {
        TrackerState {
            config: SmcConfig::default(),
            model: FluxModel::default(),
            users: vec![UserTrackState {
                samples: vec![sample(1.0, 2.0, 0.5), sample(3.0, 4.0, 0.5)],
                t_last: 0.0,
                initialized: true,
                history: vec![(1.0, Point2::new(2.0, 2.0))],
            }],
            last_step_time: 1.0,
        }
    }

    #[test]
    fn valid_state_passes() {
        valid_state().validate().unwrap();
    }

    #[test]
    fn empty_users_rejected() {
        let mut s = valid_state();
        s.users.clear();
        assert!(matches!(s.validate(), Err(SmcError::ZeroUsers)));
    }

    #[test]
    fn bad_fields_rejected() {
        let mut s = valid_state();
        s.users[0].samples.clear();
        assert!(matches!(
            s.validate(),
            Err(SmcError::BadConfig {
                field: "state.samples"
            })
        ));

        let mut s = valid_state();
        s.users[0].samples[0].weight = f64::NAN;
        assert!(matches!(
            s.validate(),
            Err(SmcError::BadConfig {
                field: "state.samples.weight"
            })
        ));

        let mut s = valid_state();
        s.users[0].samples[1].position = Point2::new(f64::INFINITY, 0.0);
        assert!(matches!(
            s.validate(),
            Err(SmcError::BadConfig {
                field: "state.samples.position"
            })
        ));

        let mut s = valid_state();
        s.users[0].t_last = f64::NAN;
        assert!(matches!(
            s.validate(),
            Err(SmcError::BadConfig {
                field: "state.t_last"
            })
        ));

        let mut s = valid_state();
        s.users[0].history = vec![
            (0.0, Point2::new(0.0, 0.0)),
            (1.0, Point2::new(1.0, 1.0)),
            (2.0, Point2::new(2.0, 2.0)),
        ];
        assert!(matches!(
            s.validate(),
            Err(SmcError::BadConfig {
                field: "state.history"
            })
        ));

        // A `Δt` origin later than the step clock: the next prediction
        // disc would have a negative radius.
        let mut s = valid_state();
        s.users[0].t_last = s.last_step_time + 0.5;
        assert!(matches!(
            s.validate(),
            Err(SmcError::BadConfig {
                field: "state.t_last"
            })
        ));

        let mut s = valid_state();
        s.last_step_time = f64::NEG_INFINITY;
        assert!(matches!(
            s.validate(),
            Err(SmcError::BadConfig {
                field: "state.last_step_time"
            })
        ));

        let mut s = valid_state();
        s.config.keep_m = 0;
        assert!(matches!(
            s.validate(),
            Err(SmcError::BadConfig { field: "keep_m" })
        ));
    }

    #[test]
    fn base64_round_trips_all_lengths() {
        for len in 0..32usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let encoded = b64_encode(&bytes);
            assert_eq!(b64_decode(&encoded).unwrap(), bytes, "len {len}");
        }
        assert_eq!(b64_encode(b"Man"), "TWFu");
        assert_eq!(b64_encode(b"Ma"), "TWE=");
        assert_eq!(b64_encode(b"M"), "TQ==");
        assert!(b64_decode("TQ=").is_none(), "bad length");
        assert!(b64_decode("T===").is_none(), "over-padded");
        assert!(b64_decode("T=Qu").is_none(), "interior padding");
        assert!(b64_decode("TW!u").is_none(), "non-alphabet byte");
    }

    /// A state with awkward floats (negative zero, subnormals, shared
    /// positions and weights) survives compact → expand bit-for-bit.
    #[test]
    fn compact_round_trip_is_bit_exact() {
        let mut state = valid_state();
        state.users[0].samples = vec![
            sample(-0.0, 1.5e-310, 0.25),
            sample(3.0, 4.0, 0.25),
            // Duplicate position with a new weight, duplicate weight
            // with a new position: both pools must dedup.
            sample(-0.0, 1.5e-310, 0.5),
            sample(7.0, -2.0, 0.25),
        ];
        state.users[0].history = vec![(1.0, Point2::new(2.0, 2.0)), (2.0, Point2::new(3.0, -0.0))];
        let compact = state.compact(2);
        assert_eq!(compact.users[0].n, 4);
        let back = compact.expand(state.config, state.model).unwrap();
        assert_eq!(back.users.len(), state.users.len());
        for (a, b) in back.users.iter().zip(&state.users) {
            assert_eq!(a.samples.len(), b.samples.len());
            for (sa, sb) in a.samples.iter().zip(&b.samples) {
                assert_eq!(sa.position.x.to_bits(), sb.position.x.to_bits());
                assert_eq!(sa.position.y.to_bits(), sb.position.y.to_bits());
                assert_eq!(sa.weight.to_bits(), sb.weight.to_bits());
            }
            assert_eq!(a.t_last.to_bits(), b.t_last.to_bits());
            assert_eq!(a.initialized, b.initialized);
            assert_eq!(a.history.len(), b.history.len());
            for ((ta, pa), (tb, pb)) in a.history.iter().zip(&b.history) {
                assert_eq!(ta.to_bits(), tb.to_bits());
                assert_eq!(pa.x.to_bits(), pb.x.to_bits());
                assert_eq!(pa.y.to_bits(), pb.y.to_bits());
            }
        }
        assert_eq!(
            back.last_step_time.to_bits(),
            state.last_step_time.to_bits()
        );
        // The pools actually deduplicated: 3 unique positions, 2 unique
        // weights, out of 4 samples.
        assert_eq!(
            b64_decode(&compact.users[0].pos_pool).unwrap().len(),
            3 * 16
        );
        assert_eq!(b64_decode(&compact.users[0].w_pool).unwrap().len(), 2 * 8);
    }

    #[test]
    fn compact_truncates_history_keeping_newest() {
        let mut state = valid_state();
        state.users[0].history = vec![(1.0, Point2::new(1.0, 1.0)), (2.0, Point2::new(2.0, 2.0))];
        let compact = state.compact(1);
        assert_eq!(compact.users[0].history, vec![(2.0, Point2::new(2.0, 2.0))]);
        // With the default heading_bias = 0 the truncation is
        // semantics-preserving and expands fine…
        compact.expand(state.config, state.model).unwrap();
        // …but a heading-biased config reads the full history, so the
        // lossy cap is refused.
        let mut biased = state.config;
        biased.heading_bias = 0.3;
        assert!(matches!(
            compact.expand(biased, state.model),
            Err(SmcError::BadConfig {
                field: "compact.history_cap"
            })
        ));
    }

    #[test]
    fn compact_expand_rejects_malformed_blobs() {
        let state = valid_state();
        let good = state.compact(2);
        let expand = |c: &CompactTrackerState| c.expand(state.config, state.model);

        let mut c = good.clone();
        c.users[0].pos_pool = "!!!".into();
        assert!(matches!(
            expand(&c),
            Err(SmcError::BadConfig {
                field: "compact.pos_pool"
            })
        ));

        let mut c = good.clone();
        c.users[0].w_pool = String::new();
        assert!(matches!(
            expand(&c),
            Err(SmcError::BadConfig {
                field: "compact.w_pool"
            })
        ));

        // Sample count disagreeing with the blob.
        let mut c = good.clone();
        c.users[0].n += 1;
        assert!(matches!(
            expand(&c),
            Err(SmcError::BadConfig {
                field: "compact.samples"
            })
        ));

        // An index pointing past the pool.
        let mut c = good.clone();
        c.users[0].samples = b64_encode(&[0xff, 0xff, 0, 0]);
        c.users[0].n = 1;
        assert!(matches!(
            expand(&c),
            Err(SmcError::BadConfig {
                field: "compact.samples"
            })
        ));

        // History longer than the declared cap.
        let mut c = good.clone();
        c.history_cap = 0;
        assert!(matches!(
            expand(&c),
            Err(SmcError::BadConfig {
                field: "compact.history"
            })
        ));

        let mut c = good;
        c.users.clear();
        assert!(matches!(expand(&c), Err(SmcError::ZeroUsers)));
    }

    #[test]
    fn compact_json_round_trips() {
        let compact = valid_state().compact(2);
        let json = serde_json::to_string(&compact).unwrap();
        let back: CompactTrackerState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, compact);
    }
}
