//! Tracker state: the live per-user record and its one serialized form.
//!
//! Algorithm 4.1 keeps per user only its weighted samples
//! `⟨P(i), w(i)⟩`, the §4.E `Δt` origin, whether it has ever matched an
//! observation and, for the §4.C heading refinement, its last two
//! estimates. A [`Tracker`](crate::Tracker) holds exactly that per user,
//! in one crate-private record, beside its configuration, flux model,
//! boundary and step clock.
//!
//! The serialized form is [`CompactTrackerState`]: per-user pools of raw
//! `f64` bit patterns, packed as base64, without the configuration or
//! model. [`Tracker::compact`](crate::Tracker::compact) packs it straight
//! from the live users, and
//! [`Tracker::from_compact`](crate::Tracker::from_compact) decodes it
//! straight into them against a caller-supplied configuration, model and
//! boundary, checking every invariant the live tracker relies on.
//!
//! The round-trip is exact: every float is preserved bit-for-bit, so a
//! revived tracker continues producing bit-identical
//! [`StepOutcome`](crate::StepOutcome)s — the engine crate's checkpoint
//! guarantee builds directly on this.

use rand::Rng;
use serde::{Deserialize, Serialize};

use fluxprint_geometry::{deployment, Boundary, Point2};

use crate::{SmcError, WeightedSample};

/// One tracked user: the `⟨P(i), w(i)⟩` duples of §4.D plus the
/// asynchronous-gate bookkeeping of §4.E. The tracker's only per-user
/// state; [`pack`](UserTrack::pack) and [`unpack`](UserTrack::unpack)
/// convert it to and from its compact form.
#[derive(Debug, Clone)]
pub(crate) struct UserTrack {
    /// The user's current weighted position samples.
    pub(crate) samples: Vec<WeightedSample>,
    /// Time of the user's last detected collection (the `Δt` origin).
    pub(crate) t_last: f64,
    /// Whether the user has ever matched an observation (uninitialized
    /// users predict uniformly over the whole field).
    pub(crate) initialized: bool,
    /// The last two active-round estimates with their times, oldest
    /// first, for the heading-aware prediction refinement of §4.C. After
    /// a user's first active round only the newer slot is filled.
    pub(crate) history: [Option<(f64, Point2)>; 2],
}

impl UserTrack {
    /// A user that has matched no observation yet, with `Δt` origin `t0`
    /// and the uninformed prior of §4.C: `keep_m` uniform random samples
    /// of equal weight over `boundary`.
    pub(crate) fn unseen<R: Rng + ?Sized>(
        boundary: &dyn Boundary,
        keep_m: usize,
        t0: f64,
        rng: &mut R,
    ) -> Self {
        let samples = (0..keep_m)
            .map(|_| WeightedSample {
                position: deployment::random_point(boundary, rng),
                weight: 1.0 / keep_m as f64,
            })
            .collect();
        UserTrack {
            samples,
            t_last: t0,
            initialized: false,
            history: [None; 2],
        }
    }

    /// Records an active round's estimate, dropping the older of the two
    /// the history holds.
    pub(crate) fn record(&mut self, t: f64, estimate: Point2) {
        self.history = [self.history[1], Some((t, estimate))];
    }

    /// Packs this user's track into its compact form, keeping at most
    /// the `history_cap` newest history entries.
    pub(crate) fn pack(&self, history_cap: u32) -> CompactUserTrackState {
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
        let mut history: Vec<(f64, Point2)> = self.history.iter().flatten().copied().collect();
        history.drain(..history.len().saturating_sub(history_cap as usize));
        CompactUserTrackState {
            pos_pool: b64_encode(&pos_pool),
            w_pool: b64_encode(&w_pool),
            samples: b64_encode(&pairs),
            n: self.samples.len() as u32,
            t_last: self.t_last,
            initialized: self.initialized,
            history,
        }
    }

    /// Decodes a compact track: at most `min(history_cap, 2)` history
    /// entries, pools of whole entries, a sample blob matching `n`, and
    /// in-range indices. The float invariants are
    /// [`check`](UserTrack::check)'s.
    pub(crate) fn unpack(
        compact: &CompactUserTrackState,
        history_cap: u32,
    ) -> Result<Self, SmcError> {
        let bad = |field| SmcError::BadConfig { field };
        if compact.history.len() > history_cap.min(2) as usize {
            return Err(bad("compact.history"));
        }
        let words = entries::<8>(&compact.pos_pool).ok_or(bad("compact.pos_pool"))?;
        let (positions, odd) = words.as_chunks::<2>();
        if positions.is_empty() || !odd.is_empty() {
            return Err(bad("compact.pos_pool"));
        }
        let weights = entries::<8>(&compact.w_pool)
            .filter(|w| !w.is_empty())
            .ok_or(bad("compact.w_pool"))?;
        let pairs = entries::<4>(&compact.samples)
            .filter(|p| p.len() == compact.n as usize && compact.n > 0)
            .ok_or(bad("compact.samples"))?;
        let mut samples = Vec::with_capacity(pairs.len());
        for [p0, p1, w0, w1] in pairs {
            let position = positions.get(usize::from(u16::from_le_bytes([p0, p1])));
            let weight = weights.get(usize::from(u16::from_le_bytes([w0, w1])));
            let (Some(&[x, y]), Some(&w)) = (position, weight) else {
                return Err(bad("compact.samples"));
            };
            samples.push(WeightedSample {
                position: Point2::new(f64_le(x), f64_le(y)),
                weight: f64_le(w),
            });
        }
        // Newest last, so a single entry fills the newer slot, as
        // `record` leaves it.
        let mut history = [None; 2];
        for (slot, &entry) in history.iter_mut().rev().zip(compact.history.iter().rev()) {
            *slot = Some(entry);
        }
        Ok(UserTrack {
            samples,
            t_last: compact.t_last,
            initialized: compact.initialized,
            history,
        })
    }

    /// Checks the float invariants the live tracker relies on: finite,
    /// nonnegatively weighted samples at finite positions, and a finite
    /// `Δt` origin no later than the step clock `last_step_time` (the
    /// tracker only ever sets `t_last` to a step time, and a later one
    /// would make the next prediction disc's radius `v_max·(t − t_last)`
    /// negative).
    pub(crate) fn check(&self, last_step_time: f64) -> Result<(), SmcError> {
        let bad = |field| SmcError::BadConfig { field };
        for s in &self.samples {
            if !(s.weight.is_finite() && s.weight >= 0.0) {
                return Err(bad("state.samples.weight"));
            }
            if !(s.position.x.is_finite() && s.position.y.is_finite()) {
                return Err(bad("state.samples.position"));
            }
        }
        if !(self.t_last.is_finite() && self.t_last <= last_step_time) {
            return Err(bad("state.t_last"));
        }
        Ok(())
    }
}

/// Decodes a base64 blob of whole `N`-byte entries: `None` for malformed
/// base64 or a partial last entry.
fn entries<const N: usize>(blob: &str) -> Option<Vec<[u8; N]>> {
    let bytes = b64_decode(blob)?;
    let (entries, tail) = bytes.as_chunks::<N>();
    tail.is_empty().then(|| entries.to_vec())
}

/// A little-endian `f64` bit pattern.
fn f64_le(bytes: [u8; 8]) -> f64 {
    f64::from_bits(u64::from_le_bytes(bytes))
}

/// Compact snapshot of one tracked user: its samples, `Δt` origin,
/// initialization flag and heading history in a pooled, base64-packed
/// form.
///
/// Positions and weights are deduplicated into per-user pools of raw
/// little-endian `f64` bit patterns; each sample is then a `(position,
/// weight)` pair of `u16` pool indices, which is why
/// [`SmcConfig::keep_m`](crate::SmcConfig::keep_m) is bounded by the
/// index range. The encoding is quantization-free — every float survives
/// bit-for-bit — so [`Tracker::from_compact`](crate::Tracker::from_compact)
/// inverts [`Tracker::compact`](crate::Tracker::compact) exactly. Sample
/// *count* information is carried redundantly in [`n`](Self::n) so a
/// truncated pool or index blob is refused instead of silently shrinking
/// the sample set.
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
    /// Heading history, oldest first, truncated to the snapshot's
    /// `history_cap` (newest entries kept).
    pub history: Vec<(f64, Point2)>,
}

/// Compact snapshot of a whole tracker: the per-user compact tracks plus
/// the step clock, *without* the configuration or flux model. The caller
/// supplies both back at
/// [`Tracker::from_compact`](crate::Tracker::from_compact); the engine's
/// session checkpoint carries them beside this snapshot as fields of its
/// own.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompactTrackerState {
    /// Maximum history entries kept per user at pack time. Decoding
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
    use std::sync::Arc;

    use fluxprint_fluxmodel::FluxModel;
    use fluxprint_geometry::Rect;

    use crate::{SmcConfig, Tracker};

    fn sample(x: f64, y: f64, w: f64) -> WeightedSample {
        WeightedSample {
            position: Point2::new(x, y),
            weight: w,
        }
    }

    /// A user tracked since step time 1, with one history entry.
    fn valid_user() -> UserTrack {
        UserTrack {
            samples: vec![sample(1.0, 2.0, 0.5), sample(3.0, 4.0, 0.5)],
            t_last: 0.0,
            initialized: true,
            history: [None, Some((1.0, Point2::new(2.0, 2.0)))],
        }
    }

    fn document(users: &[UserTrack], history_cap: u32) -> CompactTrackerState {
        CompactTrackerState {
            history_cap,
            users: users.iter().map(|u| u.pack(history_cap)).collect(),
            last_step_time: 1.0,
        }
    }

    fn revive_with(c: &CompactTrackerState, config: SmcConfig) -> Result<Tracker, SmcError> {
        let field = Arc::new(Rect::square(30.0).unwrap());
        Tracker::from_compact(c, config, FluxModel::default(), field)
    }

    fn revive(c: &CompactTrackerState) -> Result<Tracker, SmcError> {
        revive_with(c, SmcConfig::default())
    }

    fn assert_refused(c: &CompactTrackerState, field: &str) {
        match revive(c) {
            Err(SmcError::BadConfig { field: got }) => assert_eq!(got, field),
            other => panic!("expected BadConfig({field}), got {other:?}"),
        }
    }

    /// Every invariant the live tracker relies on is refused with its
    /// own field, from a packed document.
    #[test]
    fn bad_fields_rejected() {
        revive(&document(&[valid_user()], 2)).unwrap();
        assert!(matches!(
            revive(&document(&[], 2)),
            Err(SmcError::ZeroUsers)
        ));

        // No samples at all: the position pool is empty.
        let mut user = valid_user();
        user.samples.clear();
        assert_refused(&document(&[user], 2), "compact.pos_pool");

        let mut user = valid_user();
        user.samples[0].weight = f64::NAN;
        assert_refused(&document(&[user], 2), "state.samples.weight");

        let mut user = valid_user();
        user.samples[1].position = Point2::new(f64::INFINITY, 0.0);
        assert_refused(&document(&[user], 2), "state.samples.position");

        let mut user = valid_user();
        user.t_last = f64::NAN;
        assert_refused(&document(&[user], 2), "state.t_last");

        // Three history entries: more than the tracker ever holds.
        let mut c = document(&[valid_user()], 3);
        c.users[0].history = vec![
            (0.0, Point2::new(0.0, 0.0)),
            (1.0, Point2::new(1.0, 1.0)),
            (2.0, Point2::new(2.0, 2.0)),
        ];
        assert_refused(&c, "compact.history");

        // A `Δt` origin later than the step clock: the next prediction
        // disc would have a negative radius.
        let mut user = valid_user();
        user.t_last = 1.5;
        assert_refused(&document(&[user], 2), "state.t_last");

        let mut c = document(&[valid_user()], 2);
        c.last_step_time = f64::NEG_INFINITY;
        assert_refused(&c, "state.last_step_time");

        let bad = SmcConfig {
            keep_m: 0,
            ..SmcConfig::default()
        };
        assert!(matches!(
            revive_with(&document(&[valid_user()], 2), bad),
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

    /// A track with awkward floats (negative zero, subnormals, shared
    /// positions and weights) survives pack → unpack bit-for-bit.
    #[test]
    fn compact_round_trip_is_bit_exact() {
        let mut user = valid_user();
        user.samples = vec![
            sample(-0.0, 1.5e-310, 0.25),
            sample(3.0, 4.0, 0.25),
            // Duplicate position with a new weight, duplicate weight
            // with a new position: both pools must dedup.
            sample(-0.0, 1.5e-310, 0.5),
            sample(7.0, -2.0, 0.25),
        ];
        user.record(2.0, Point2::new(3.0, -0.0));
        let packed = user.pack(2);
        assert_eq!(packed.n, 4);
        let back = UserTrack::unpack(&packed, 2).unwrap();
        assert_eq!(back.samples.len(), user.samples.len());
        for (sa, sb) in back.samples.iter().zip(&user.samples) {
            assert_eq!(sa.position.x.to_bits(), sb.position.x.to_bits());
            assert_eq!(sa.position.y.to_bits(), sb.position.y.to_bits());
            assert_eq!(sa.weight.to_bits(), sb.weight.to_bits());
        }
        assert_eq!(back.t_last.to_bits(), user.t_last.to_bits());
        assert_eq!(back.initialized, user.initialized);
        for (a, b) in back.history.iter().zip(&user.history) {
            let (ta, pa) = a.unwrap();
            let (tb, pb) = b.unwrap();
            assert_eq!(ta.to_bits(), tb.to_bits());
            assert_eq!(pa.x.to_bits(), pb.x.to_bits());
            assert_eq!(pa.y.to_bits(), pb.y.to_bits());
        }
        assert_eq!(back.pack(2), packed);
        // The pools actually deduplicated: 3 unique positions, 2 unique
        // weights, out of 4 samples.
        assert_eq!(b64_decode(&packed.pos_pool).unwrap().len(), 3 * 16);
        assert_eq!(b64_decode(&packed.w_pool).unwrap().len(), 2 * 8);
    }

    #[test]
    fn compact_truncates_history_keeping_newest() {
        let mut user = valid_user();
        user.record(2.0, Point2::new(3.0, 3.0));
        let compact = document(&[user], 1);
        assert_eq!(compact.users[0].history, vec![(2.0, Point2::new(3.0, 3.0))]);
        // With the default heading_bias = 0 the truncation is
        // semantics-preserving and decodes fine…
        revive(&compact).unwrap();
        // …but a heading-biased config reads the full history, so the
        // lossy cap is refused.
        let biased = SmcConfig {
            heading_bias: 0.3,
            ..SmcConfig::default()
        };
        assert!(matches!(
            revive_with(&compact, biased),
            Err(SmcError::BadConfig {
                field: "compact.history_cap"
            })
        ));
    }

    #[test]
    fn compact_expand_rejects_malformed_blobs() {
        let good = document(&[valid_user()], 2);

        let mut c = good.clone();
        c.users[0].pos_pool = "!!!".into();
        assert_refused(&c, "compact.pos_pool");

        let mut c = good.clone();
        c.users[0].w_pool = String::new();
        assert_refused(&c, "compact.w_pool");

        // Sample count disagreeing with the blob.
        let mut c = good.clone();
        c.users[0].n += 1;
        assert_refused(&c, "compact.samples");

        // An index pointing past the pool.
        let mut c = good.clone();
        c.users[0].samples = b64_encode(&[0xff, 0xff, 0, 0]);
        c.users[0].n = 1;
        assert_refused(&c, "compact.samples");

        // History longer than the declared cap.
        let mut c = good.clone();
        c.history_cap = 0;
        assert_refused(&c, "compact.history");

        let mut c = good;
        c.users.clear();
        assert!(matches!(revive(&c), Err(SmcError::ZeroUsers)));
    }

    #[test]
    fn compact_json_round_trips() {
        let compact = document(&[valid_user()], 2);
        let json = serde_json::to_string(&compact).unwrap();
        let back: CompactTrackerState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, compact);
    }
}
