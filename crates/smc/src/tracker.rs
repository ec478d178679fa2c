//! The multi-target tracker of Algorithm 4.1.

use std::sync::Arc;

use rand::Rng;

use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::{deployment, Boundary, Point2};
use fluxprint_solver::{CacheScratch, FluxObjective};
use fluxprint_stats::WeightedAlias;
use fluxprint_telemetry::{self as telemetry, names};

use crate::{
    associate, weighted_mean, CompactTrackerState, SmcConfig, SmcError, TrackerState,
    UserTrackState, WeightedSample,
};

/// Candidate-budget divisor for hot users on warm rounds: a hot user
/// searches `n_predictions / WARM_SHRINK` candidates (posterior samples
/// first, fresh motion-disc draws after) instead of the full budget, and
/// never fewer than its kept samples.
pub const WARM_SHRINK: usize = 4;

/// Best-fit stretch at or below which a user is deemed inactive this
/// window (`s_j/r → 0`, §4.E).
pub const ACTIVITY_THRESHOLD: f64 = 0.05;

/// Gain test of forward selection: a new source is accepted only when
/// it cuts the residual by at least this factor. Residual model error
/// routinely fits a small positive `q` onto idle users, but an idle
/// user barely changes the fit, while a genuinely collecting user
/// explains its whole flux pattern.
pub const ACTIVITY_MIN_GAIN: f64 = 1.15;

/// Fraction of each round's predictions drawn uniformly over the field
/// instead of from the motion prior: recovery candidates for a user
/// whose samples locked onto the wrong source early (the motion prior
/// alone can never escape a bad initialization).
pub const EXPLORE_FRACTION: f64 = 0.1;

/// A user's recovery candidates win its bid only when their best
/// conditional residual beats its motion-prior candidates' by this
/// factor, and the winning bid then competes at `1 / EXPLORE_ACCEPT_RATIO`
/// times its residual, so an already-tracked user cannot "steal" another
/// user's flux peak.
pub const EXPLORE_ACCEPT_RATIO: f64 = 0.5;

/// Per-round tracker output.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Observation time of this round.
    pub time: f64,
    /// Point estimate per user (weighted mean of its current samples;
    /// for users inactive this round, the estimate from their last active
    /// round).
    pub estimates: Vec<Point2>,
    /// Whether each user was detected as collecting this round
    /// (best-fit `q_j` above the activity threshold).
    pub active: Vec<bool>,
    /// Best-fit integrated stretch factors from the winning combination.
    pub stretches: Vec<f64>,
    /// Objective value `‖F̂ − F′‖` of the winning combination.
    pub residual: f64,
}

#[derive(Debug, Clone)]
struct UserTrack {
    samples: Vec<WeightedSample>,
    t_last: f64,
    initialized: bool,
    /// The last two active-round estimates with their times, for the
    /// heading-aware prediction refinement of §4.C.
    history: Vec<(f64, Point2)>,
}

/// Sequential Monte Carlo tracker for `K` mobile users (Algorithm 4.1).
///
/// Feed it one [`FluxObjective`] per observation window via
/// [`step`](Tracker::step); read per-user estimates from the returned
/// [`StepOutcome`] or the [`samples`](Tracker::samples) accessor.
#[derive(Debug, Clone)]
pub struct Tracker {
    config: SmcConfig,
    boundary: Arc<dyn Boundary>,
    model: FluxModel,
    users: Vec<UserTrack>,
    last_step_time: f64,
}

impl Tracker {
    /// Creates a tracker for `k` users at start time `t0`, seeding each
    /// user with `keep_m` uniform random samples of equal weight
    /// (the uninformed prior of §4.C).
    ///
    /// # Errors
    ///
    /// Returns [`SmcError::ZeroUsers`] for `k == 0` and
    /// [`SmcError::BadConfig`] for an invalid configuration.
    pub fn new<R: Rng + ?Sized>(
        k: usize,
        boundary: Arc<dyn Boundary>,
        model: FluxModel,
        config: SmcConfig,
        t0: f64,
        rng: &mut R,
    ) -> Result<Self, SmcError> {
        if k == 0 {
            return Err(SmcError::ZeroUsers);
        }
        config.validate()?;
        let users = (0..k)
            .map(|_| UserTrack {
                samples: (0..config.keep_m)
                    .map(|_| WeightedSample {
                        position: deployment::random_point(boundary.as_ref(), rng),
                        weight: 1.0 / config.keep_m as f64,
                    })
                    .collect(),
                t_last: t0,
                initialized: false,
                history: Vec::new(),
            })
            .collect();
        Ok(Tracker {
            config,
            boundary,
            model,
            users,
            last_step_time: t0,
        })
    }

    /// Number of tracked users.
    pub fn k(&self) -> usize {
        self.users.len()
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &SmcConfig {
        &self.config
    }

    /// The flux model the tracker was built with.
    pub fn model(&self) -> &FluxModel {
        &self.model
    }

    /// Time of the most recent step (or the start time).
    pub fn time(&self) -> f64 {
        self.last_step_time
    }

    /// Snapshots the tracker's complete state: per-user samples, freeze
    /// times, heading histories, the configuration, and the flux model.
    /// The boundary is scenario geometry, not tracker state — supply it
    /// again at [`from_compact`](Tracker::from_compact).
    pub fn state(&self) -> TrackerState {
        TrackerState {
            config: self.config,
            model: self.model,
            users: self
                .users
                .iter()
                .map(|u| UserTrackState {
                    samples: u.samples.clone(),
                    t_last: u.t_last,
                    initialized: u.initialized,
                    history: u.history.clone(),
                })
                .collect(),
            last_step_time: self.last_step_time,
        }
    }

    /// Bytes of the buffers the tracker owns: the per-user entries with
    /// their samples and heading histories, counted by length, so spare
    /// capacity and allocator overhead are left out.
    pub fn heap_bytes(&self) -> usize {
        let tracks: usize = self
            .users
            .iter()
            .map(|u| {
                std::mem::size_of_val(u.samples.as_slice())
                    + std::mem::size_of_val(u.history.as_slice())
            })
            .sum();
        std::mem::size_of_val(self.users.as_slice()) + tracks
    }

    /// Revives a tracker from a compact snapshot (see
    /// [`TrackerState::compact`]) under the caller's configuration and
    /// flux model, and the field boundary it tracked over. Each blob is
    /// decoded once and the result validated once (see
    /// [`CompactTrackerState::expand`]).
    ///
    /// Restore is exact: the revived tracker produces bit-identical
    /// [`StepOutcome`]s to the one the snapshot was taken from, given the
    /// same observation and RNG streams.
    ///
    /// # Errors
    ///
    /// As [`CompactTrackerState::expand`].
    pub fn from_compact(
        compact: &CompactTrackerState,
        config: SmcConfig,
        model: FluxModel,
        boundary: Arc<dyn Boundary>,
    ) -> Result<Self, SmcError> {
        let state = compact.expand(config, model)?;
        Ok(Tracker {
            config: state.config,
            boundary,
            model: state.model,
            users: state
                .users
                .into_iter()
                .map(|u| UserTrack {
                    samples: u.samples,
                    t_last: u.t_last,
                    initialized: u.initialized,
                    history: u.history,
                })
                .collect(),
            last_step_time: state.last_step_time,
        })
    }

    /// The current weighted samples of user `index`.
    ///
    /// # Errors
    ///
    /// Returns [`SmcError::UserOutOfRange`] for an invalid index.
    pub fn samples(&self, index: usize) -> Result<&[WeightedSample], SmcError> {
        self.users
            .get(index)
            .map(|u| u.samples.as_slice())
            .ok_or(SmcError::UserOutOfRange {
                index,
                users: self.users.len(),
            })
    }

    /// Point estimate (weighted sample mean) for user `index`.
    ///
    /// # Errors
    ///
    /// Returns [`SmcError::UserOutOfRange`] for an invalid index.
    pub fn estimate(&self, index: usize) -> Result<Point2, SmcError> {
        Ok(weighted_mean(self.samples(index)?))
    }

    /// Adds a new user mid-run (a session join), seeded with `keep_m`
    /// uniform random samples — the uninformed prior of §4.C. The user's
    /// `Δt` origin is the current step time. Returns the new user's index.
    pub fn add_user<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        let samples = (0..self.config.keep_m)
            .map(|_| WeightedSample {
                position: deployment::random_point(self.boundary.as_ref(), rng),
                weight: 1.0 / self.config.keep_m as f64,
            })
            .collect();
        self.users.push(UserTrack {
            samples,
            t_last: self.last_step_time,
            initialized: false,
            history: Vec::new(),
        });
        self.users.len() - 1
    }

    /// Runs one observation round at time `t` against the sniffed flux in
    /// `objective`: prediction → filtering → importance update →
    /// asynchronous gate. Every user participates and scoring runs cold,
    /// on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`SmcError::TimeNotAdvancing`] when `t` does not move past
    /// the previous step; filtering failures are propagated.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        t: f64,
        objective: &FluxObjective,
        rng: &mut R,
    ) -> Result<StepOutcome, SmcError> {
        let everyone = vec![true; self.users.len()];
        self.step_gated_in(t, objective, &everyone, None, rng, &mut CacheScratch::new())
    }

    /// [`step`](Tracker::step) with a participation mask, optional warm
    /// hot flags, and a caller-owned [`CacheScratch`].
    ///
    /// Only users with `participating[i] == true` predict, bid, and
    /// update; the rest get the paper's Null update unconditionally
    /// (frozen samples, growing `Δt`) — the mechanism behind
    /// session-level suspend/leave lifecycle states. With an all-`true`
    /// mask and no hot flags this is bit-identical to `step`.
    ///
    /// `hot` (indexed by user id) picks the users of a warm round. A hot
    /// user carries its posterior instead of re-searching: its kept
    /// samples enter the candidate set verbatim (so "stay put" is always
    /// a hypothesis), topped up to `n_predictions / WARM_SHRINK` (see
    /// [`WARM_SHRINK`]) fresh draws from the `v_max·Δt` motion disc, with
    /// **no** exploration candidates — the caller's periodic escape sweep
    /// (a fully cold round) is what recovers a user the bounded search
    /// loses. Users that are not hot, or have never matched an
    /// observation, keep the full cold candidate recipe. Every inner solve
    /// is cold either way. With `hot == None` the round is exactly cold —
    /// the engine passes `None` on escape rounds and whenever no user is
    /// hot.
    ///
    /// The scratch is reused across rounds, so a drain worker stepping
    /// many rounds touches no allocator in the hot loop.
    ///
    /// # Errors
    ///
    /// As [`step`](Tracker::step); additionally [`SmcError::BadConfig`]
    /// when the mask or the `hot` flags differ in length from the user
    /// count.
    pub fn step_gated_in<R: Rng + ?Sized>(
        &mut self,
        t: f64,
        objective: &FluxObjective,
        participating: &[bool],
        hot: Option<&[bool]>,
        rng: &mut R,
        scratch: &mut CacheScratch,
    ) -> Result<StepOutcome, SmcError> {
        if participating.len() != self.users.len() {
            return Err(SmcError::BadConfig {
                field: "participating",
            });
        }
        if hot.is_some_and(|hot| hot.len() != self.users.len()) {
            return Err(SmcError::BadConfig { field: "warm" });
        }
        if t.is_nan() || t <= self.last_step_time {
            return Err(SmcError::TimeNotAdvancing {
                previous: self.last_step_time,
                current: t,
            });
        }
        let _span = telemetry::span(names::SPAN_SMC_STEP);
        telemetry::counter(names::SMC_STEPS, 1);
        let k = self.users.len();

        // Participating users, in user order. `part[c]` maps the compact
        // index `c` used for candidate/association arrays back to the
        // user index; with a full mask the mapping is the identity.
        let part: Vec<usize> = (0..k).filter(|&i| participating[i]).collect();
        if part.is_empty() {
            // Every user suspended: a whole-round Null update. The clock
            // still advances so Δt keeps growing toward resumption.
            self.last_step_time = t;
            let residual = objective.null_residual();
            telemetry::counter(names::SMC_USERS_FROZEN, k as u64);
            telemetry::record(names::HIST_SMC_ROUND_ACTIVE, 0.0);
            telemetry::record(names::HIST_SMC_ROUND_RESIDUAL, residual);
            return Ok(StepOutcome {
                time: t,
                estimates: self
                    .users
                    .iter()
                    .map(|u| weighted_mean(&u.samples))
                    .collect(),
                active: vec![false; k],
                stretches: vec![0.0; k],
                residual,
            });
        }

        // Prediction (Formula 4.2): per user, N candidates drawn uniformly
        // from the discs of radius v_max·Δt around resampled parents.
        // Users that have never matched an observation predict uniformly
        // over the whole field instead (the uninformed prior).
        let n = self.config.n_predictions;
        // Exploration (recovery) candidates: drawn uniformly instead of
        // from the motion prior, so a user locked onto the wrong source
        // can still reach a distant flux peak. `explore_from[c]` marks the
        // index where user c's exploration candidates begin (== n when the
        // user is uninitialized and every candidate is already uniform).
        let n_explore = ((n as f64 * EXPLORE_FRACTION).round() as usize).min(n - 1);
        let mut candidates: Vec<Vec<Point2>> = Vec::with_capacity(part.len());
        let mut parent_weights: Vec<Vec<f64>> = Vec::with_capacity(part.len());
        let mut explore_from: Vec<usize> = Vec::with_capacity(part.len());
        for &ui in &part {
            let user = &self.users[ui];
            let mut cands = Vec::with_capacity(n);
            let mut weights = Vec::with_capacity(n);
            // fluxlint: region(hot-path) — warm candidate generation: runs
            // once per hot user per round; draws must stay deterministic
            // given the RNG stream and allocation-light.
            if user.initialized && hot.is_some_and(|hot| hot[ui]) {
                // Warm fast path: carry the posterior. Kept samples are
                // candidates verbatim ("stay put" is always in the
                // hypothesis set), topped up with fresh motion-disc draws
                // to a shrunk budget; no exploration — the escape sweep
                // owns recovery.
                let n_warm = (n / WARM_SHRINK).max(user.samples.len()).max(1);
                let radius = self.config.vmax * (t - user.t_last);
                for s in &user.samples {
                    cands.push(s.position);
                    weights.push(s.weight);
                }
                // fluxlint: allow(hot-path-alloc) — keep_m-sized weight copy, once per hot user
                let w: Vec<f64> = user.samples.iter().map(|s| s.weight).collect();
                let alias = WeightedAlias::new(&w)
                    .or_else(|_| {
                        telemetry::counter(names::SMC_WEIGHT_DEGENERATE, 1);
                        // fluxlint: allow(hot-path-alloc) — degenerate-weight fallback, pathological rounds only
                        WeightedAlias::new(&vec![1.0; w.len()])
                    })
                    .map_err(|_| SmcError::BadConfig {
                        field: "n_predictions",
                    })?;
                while cands.len() < n_warm {
                    let parent = &user.samples[alias.sample(rng)];
                    cands.push(deployment::random_point_in_disc(
                        self.boundary.as_ref(),
                        parent.position,
                        radius,
                        rng,
                    ));
                    weights.push(parent.weight);
                }
                explore_from.push(cands.len());
                // fluxlint: endregion(hot-path)
            } else if !user.initialized {
                for _ in 0..n {
                    cands.push(deployment::random_point(self.boundary.as_ref(), rng));
                    weights.push(1.0);
                }
                explore_from.push(n);
            } else {
                let radius = self.config.vmax * (t - user.t_last);
                let w: Vec<f64> = user.samples.iter().map(|s| s.weight).collect();
                // Degenerate weights (all zero after a pathological round)
                // fall back to uniform; that can only fail for an empty
                // sample set, which `new` rules out via n_predictions >= 1.
                let alias = WeightedAlias::new(&w)
                    .or_else(|_| {
                        telemetry::counter(names::SMC_WEIGHT_DEGENERATE, 1);
                        WeightedAlias::new(&vec![1.0; w.len()])
                    })
                    .map_err(|_| SmcError::BadConfig {
                        field: "n_predictions",
                    })?;
                // Optional §4.C refinement: bias part of the prediction
                // into a forward cone along the estimated heading. The
                // biased draws stay inside the v_max·Δt disc.
                let heading = if self.config.heading_bias > 0.0 && user.history.len() == 2 {
                    let (t0, p0) = user.history[0];
                    let (t1, p1) = user.history[1];
                    let dt = t1 - t0;
                    if dt > 0.0 {
                        (p1 - p0).normalized()
                    } else {
                        None
                    }
                } else {
                    None
                };
                let n_prior = n - n_explore;
                let n_biased = heading
                    .map(|_| (n_prior as f64 * self.config.heading_bias) as usize)
                    .unwrap_or(0);
                for i in 0..n_prior {
                    let parent = &user.samples[alias.sample(rng)];
                    let position = if let (true, Some(dir)) = (i < n_biased, heading) {
                        // Forward cone: ±45° around the heading, distance
                        // in [0.25, 1.0]·radius.
                        let angle = dir.angle()
                            + rng.gen_range(
                                -std::f64::consts::FRAC_PI_4..std::f64::consts::FRAC_PI_4,
                            );
                        let dist = radius * rng.gen_range(0.25..1.0);
                        self.boundary.clamp(
                            parent.position + fluxprint_geometry::Vec2::from_angle(angle) * dist,
                        )
                    } else {
                        deployment::random_point_in_disc(
                            self.boundary.as_ref(),
                            parent.position,
                            radius,
                            rng,
                        )
                    };
                    cands.push(position);
                    weights.push(parent.weight);
                }
                explore_from.push(cands.len());
                let mean_w = 1.0 / user.samples.len() as f64;
                for _ in 0..n_explore {
                    cands.push(deployment::random_point(self.boundary.as_ref(), rng));
                    weights.push(mean_w);
                }
            }
            candidates.push(cands);
            parent_weights.push(weights);
        }
        let predicted: usize = candidates.iter().map(Vec::len).sum();
        let explored: usize = candidates
            .iter()
            .zip(&explore_from)
            .map(|(c, &from)| c.len().saturating_sub(from))
            .sum();
        telemetry::counter(names::SMC_SAMPLES_PREDICTED, predicted as u64);
        telemetry::counter(names::SMC_SAMPLES_EXPLORE, explored as u64);
        telemetry::record(names::HIST_SMC_ROUND_SAMPLES, predicted as f64);

        // Detection + association: forward selection of active sources
        // with motion-consistency preference (see the `association`
        // module). Unselected users receive the paper's Null update.
        let assoc = associate(objective, &candidates, &explore_from, &self.config, scratch)?;

        let mut active = vec![false; k];
        let mut stretches = vec![0.0; k];
        let mut residual = objective.null_residual();
        if let Some(fit) = &assoc.fit {
            residual = fit.residual;
            for (slot, &ci) in assoc.selected.iter().enumerate() {
                stretches[part[ci]] = fit.stretches[slot];
            }
        }
        for (ci, &ui) in part.iter().enumerate() {
            if stretches[ui] <= ACTIVITY_THRESHOLD {
                continue; // Null update: samples and t_last untouched.
            }
            let Some(res) = assoc.per_candidate_residual[ci].as_ref() else {
                continue;
            };
            active[ui] = true;
            // Rank this user's admissible candidates by conditional
            // residual (exploration candidates only when its winning bid
            // was one).
            let limit = if assoc.used_explore[ci] {
                res.len()
            } else {
                explore_from[ci].min(res.len())
            };
            let mut order: Vec<usize> = (0..limit).collect();
            order.sort_by(|&a, &b| res[a].total_cmp(&res[b]));
            order.truncate(self.config.keep_m);
            let use_weights = self.config.use_importance_weights;
            let mut kept: Vec<WeightedSample> = order
                .into_iter()
                .map(|c| WeightedSample {
                    position: candidates[ci][c],
                    weight: if use_weights {
                        parent_weights[ci][c] / res[c].max(1e-9)
                    } else {
                        1.0
                    },
                })
                .collect();
            telemetry::counter(names::SMC_SAMPLES_KEPT, kept.len() as u64);
            let wsum: f64 = kept.iter().map(|s| s.weight).sum();
            if wsum > 0.0 {
                telemetry::counter(names::SMC_WEIGHT_RENORMALIZATIONS, 1);
                for s in kept.iter_mut() {
                    s.weight /= wsum;
                }
            } else {
                telemetry::counter(names::SMC_WEIGHT_DEGENERATE, 1);
                let uniform = 1.0 / kept.len() as f64;
                for s in kept.iter_mut() {
                    s.weight = uniform;
                }
            }
            let user = &mut self.users[ui];
            user.samples = kept;
            user.t_last = t;
            user.initialized = true;
            let estimate = weighted_mean(&user.samples);
            user.history.push((t, estimate));
            if user.history.len() > 2 {
                user.history.remove(0);
            }
        }
        self.last_step_time = t;

        let n_active = active.iter().filter(|&&a| a).count();
        telemetry::counter(names::SMC_USERS_ACTIVE, n_active as u64);
        telemetry::counter(names::SMC_USERS_FROZEN, (k - n_active) as u64);
        telemetry::record(names::HIST_SMC_ROUND_ACTIVE, n_active as f64);
        telemetry::record(names::HIST_SMC_ROUND_RESIDUAL, residual);

        let estimates = self
            .users
            .iter()
            .map(|u| weighted_mean(&u.samples))
            .collect();
        Ok(StepOutcome {
            time: t,
            estimates,
            active,
            stretches,
            residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxprint_geometry::Rect;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn field() -> Arc<Rect> {
        Arc::new(Rect::square(30.0).unwrap())
    }

    fn sniffer_grid() -> Vec<Point2> {
        let mut v = Vec::new();
        for i in 0..7 {
            for j in 0..7 {
                v.push(Point2::new(2.0 + i as f64 * 4.3, 2.0 + j as f64 * 4.3));
            }
        }
        v
    }

    fn observation(truth: &[(Point2, f64)]) -> FluxObjective {
        let model = FluxModel::default();
        let f = Rect::square(30.0).unwrap();
        let sniffers = sniffer_grid();
        let measured: Vec<f64> = sniffers
            .iter()
            .map(|&p| model.predict_superposed(truth, p, &f))
            .collect();
        FluxObjective::new(field(), model, sniffers, measured).unwrap()
    }

    /// A cold gated step with a fresh scratch.
    fn step_gated(
        tracker: &mut Tracker,
        t: f64,
        objective: &FluxObjective,
        participating: &[bool],
        rng: &mut StdRng,
    ) -> Result<StepOutcome, SmcError> {
        let mut scratch = CacheScratch::new();
        tracker.step_gated_in(t, objective, participating, None, rng, &mut scratch)
    }

    fn small_config() -> SmcConfig {
        SmcConfig {
            n_predictions: 300,
            keep_m: 10,
            ..Default::default()
        }
    }

    #[test]
    fn static_user_estimate_converges() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut tracker = Tracker::new(
            1,
            field(),
            FluxModel::default(),
            small_config(),
            0.0,
            &mut rng,
        )
        .unwrap();
        let truth = Point2::new(12.0, 17.0);
        let obs = observation(&[(truth, 2.0)]);
        let mut err = f64::INFINITY;
        for round in 1..=5 {
            let out = tracker.step(round as f64, &obs, &mut rng).unwrap();
            assert!(out.active[0]);
            err = out.estimates[0].distance(truth);
        }
        assert!(err < 2.0, "final error {err:.2}");
    }

    #[test]
    fn moving_user_is_followed() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut tracker = Tracker::new(
            1,
            field(),
            FluxModel::default(),
            small_config(),
            0.0,
            &mut rng,
        )
        .unwrap();
        // User moves east 2 units per round; v_max = 5 covers it.
        let mut errors = Vec::new();
        for round in 1..=8 {
            let truth = Point2::new(5.0 + 2.0 * round as f64, 15.0);
            let obs = observation(&[(truth, 2.0)]);
            let out = tracker.step(round as f64, &obs, &mut rng).unwrap();
            errors.push(out.estimates[0].distance(truth));
        }
        let late_avg = errors[4..].iter().sum::<f64>() / 4.0;
        assert!(late_avg < 2.5, "late-round tracking error {late_avg:.2}");
    }

    #[test]
    fn inactive_window_freezes_samples() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut tracker = Tracker::new(
            1,
            field(),
            FluxModel::default(),
            small_config(),
            0.0,
            &mut rng,
        )
        .unwrap();
        let truth = Point2::new(12.0, 17.0);
        tracker
            .step(1.0, &observation(&[(truth, 2.0)]), &mut rng)
            .unwrap();
        let before: Vec<WeightedSample> = tracker.samples(0).unwrap().to_vec();

        // Silent window: zero flux everywhere → q fits to 0 → no update.
        let silent = FluxObjective::new(
            field(),
            FluxModel::default(),
            sniffer_grid(),
            vec![0.0; sniffer_grid().len()],
        )
        .unwrap();
        let out = tracker.step(2.0, &silent, &mut rng).unwrap();
        assert!(!out.active[0]);
        assert_eq!(tracker.samples(0).unwrap(), before.as_slice());

        // Reactivation after the gap: Δt = 2 rounds, wider prediction disc.
        let out = tracker
            .step(3.0, &observation(&[(truth, 2.0)]), &mut rng)
            .unwrap();
        assert!(out.active[0]);
        assert!(out.estimates[0].distance(truth) < 3.0);
    }

    #[test]
    fn two_users_tracked_jointly() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = SmcConfig {
            n_predictions: 200,
            ..Default::default()
        };
        let mut tracker =
            Tracker::new(2, field(), FluxModel::default(), cfg, 0.0, &mut rng).unwrap();
        let t1 = Point2::new(8.0, 8.0);
        let t2 = Point2::new(22.0, 21.0);
        let obs = observation(&[(t1, 2.0), (t2, 2.5)]);
        let mut out = None;
        for round in 1..=6 {
            out = Some(tracker.step(round as f64, &obs, &mut rng).unwrap());
        }
        let out = out.unwrap();
        // Identity-free scoring: each truth matched by some estimate.
        for truth in [t1, t2] {
            let nearest = out
                .estimates
                .iter()
                .map(|e| e.distance(truth))
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 3.0, "user at {truth} missed ({nearest:.2})");
        }
    }

    #[test]
    fn time_must_advance() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut tracker = Tracker::new(
            1,
            field(),
            FluxModel::default(),
            small_config(),
            0.0,
            &mut rng,
        )
        .unwrap();
        let obs = observation(&[(Point2::new(10.0, 10.0), 1.0)]);
        tracker.step(1.0, &obs, &mut rng).unwrap();
        assert!(matches!(
            tracker.step(1.0, &obs, &mut rng),
            Err(SmcError::TimeNotAdvancing { .. })
        ));
        assert!(matches!(
            tracker.step(0.5, &obs, &mut rng),
            Err(SmcError::TimeNotAdvancing { .. })
        ));
    }

    #[test]
    fn step_gated_with_full_mask_matches_step() {
        // The gated side reuses one scratch across rounds, which may not
        // change a bit.
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = StdRng::seed_from_u64(21);
        let mut plain = Tracker::new(
            2,
            field(),
            FluxModel::default(),
            small_config(),
            0.0,
            &mut rng_a,
        )
        .unwrap();
        let mut gated = Tracker::new(
            2,
            field(),
            FluxModel::default(),
            small_config(),
            0.0,
            &mut rng_b,
        )
        .unwrap();
        let mut scratch = CacheScratch::new();
        for round in 1..=4 {
            let obs = observation(&[
                (Point2::new(8.0 + round as f64, 9.0), 2.0),
                (Point2::new(22.0, 20.0), 1.5),
            ]);
            let a = plain.step(round as f64, &obs, &mut rng_a).unwrap();
            let b = gated
                .step_gated_in(
                    round as f64,
                    &obs,
                    &[true, true],
                    None,
                    &mut rng_b,
                    &mut scratch,
                )
                .unwrap();
            assert_eq!(a.active, b.active);
            for (ea, eb) in a.estimates.iter().zip(&b.estimates) {
                assert_eq!(ea.x.to_bits(), eb.x.to_bits());
                assert_eq!(ea.y.to_bits(), eb.y.to_bits());
            }
            assert_eq!(a.residual.to_bits(), b.residual.to_bits());
        }
    }

    #[test]
    fn gated_out_user_is_frozen() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut tracker = Tracker::new(
            2,
            field(),
            FluxModel::default(),
            small_config(),
            0.0,
            &mut rng,
        )
        .unwrap();
        let obs = observation(&[(Point2::new(8.0, 9.0), 2.0), (Point2::new(22.0, 20.0), 1.5)]);
        tracker.step(1.0, &obs, &mut rng).unwrap();
        let frozen: Vec<WeightedSample> = tracker.samples(1).unwrap().to_vec();

        // User 1 suspended: even with its source still emitting, it must
        // take the Null update while user 0 keeps tracking.
        let out = step_gated(&mut tracker, 2.0, &obs, &[true, false], &mut rng).unwrap();
        assert!(!out.active[1]);
        assert_eq!(out.stretches[1], 0.0);
        assert_eq!(tracker.samples(1).unwrap(), frozen.as_slice());

        // Mask length must match the user count.
        assert!(matches!(
            step_gated(&mut tracker, 3.0, &obs, &[true], &mut rng),
            Err(SmcError::BadConfig { .. })
        ));

        // All users suspended: whole-round Null update, clock advances.
        let out = step_gated(&mut tracker, 3.0, &obs, &[false, false], &mut rng).unwrap();
        assert!(out.active.iter().all(|&a| !a));
        assert_eq!(tracker.time(), 3.0);
    }

    #[test]
    fn add_user_joins_with_uninformed_prior() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut tracker = Tracker::new(
            1,
            field(),
            FluxModel::default(),
            small_config(),
            0.0,
            &mut rng,
        )
        .unwrap();
        let solo = Point2::new(8.0, 9.0);
        tracker
            .step(1.0, &observation(&[(solo, 2.0)]), &mut rng)
            .unwrap();

        let joined = tracker.add_user(&mut rng);
        assert_eq!(joined, 1);
        assert_eq!(tracker.k(), 2);
        assert_eq!(tracker.samples(1).unwrap().len(), 10);

        // The joiner localizes its own source within a few rounds.
        let newcomer = Point2::new(22.0, 20.0);
        let obs = observation(&[(solo, 2.0), (newcomer, 1.5)]);
        let mut last = None;
        for round in 2..=6 {
            last = Some(tracker.step(round as f64, &obs, &mut rng).unwrap());
        }
        let out = last.unwrap();
        assert!(out.active[1], "joined user never detected");
        let err = out.estimates[1].distance(newcomer);
        assert!(err < 3.0, "joined user error {err:.2}");
    }

    #[test]
    fn constructor_validation_and_accessors() {
        let mut rng = StdRng::seed_from_u64(6);
        assert!(matches!(
            Tracker::new(
                0,
                field(),
                FluxModel::default(),
                small_config(),
                0.0,
                &mut rng
            ),
            Err(SmcError::ZeroUsers)
        ));
        let bad = SmcConfig {
            keep_m: 0,
            ..Default::default()
        };
        assert!(matches!(
            Tracker::new(1, field(), FluxModel::default(), bad, 0.0, &mut rng),
            Err(SmcError::BadConfig { .. })
        ));
        let tracker = Tracker::new(
            2,
            field(),
            FluxModel::default(),
            small_config(),
            0.0,
            &mut rng,
        )
        .unwrap();
        assert_eq!(tracker.k(), 2);
        assert_eq!(tracker.time(), 0.0);
        assert_eq!(tracker.samples(0).unwrap().len(), 10);
        assert!(tracker.samples(5).is_err());
        assert!(tracker.estimate(0).is_ok());
        assert_eq!(tracker.config().keep_m, 10);
        assert_eq!(tracker.model().d_floor(), 1.0);
    }
}
