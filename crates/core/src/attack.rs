//! The passive-sniffing attack pipeline.

use rand::Rng;
use serde::{Deserialize, Serialize};

use fluxprint_engine::{Engine, SessionConfig};
use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::Point2;
use fluxprint_netsim::{Network, NoiseModel, Sniffer};
use fluxprint_smc::{SmcConfig, StepOutcome};
use fluxprint_solver::{random_search, FluxObjective, RandomSearchConfig, SinkFit};

use crate::{metrics, CoreError, Countermeasure, Scenario};

/// How many nodes the adversary sniffs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SnifferSpec {
    /// A random percentage of all nodes (Figures 6(a)/8(a)/10(a)).
    Percentage(f64),
    /// A fixed number of random nodes (Figures 6(b)/8(b) use 90).
    Count(usize),
    /// Every node (the full-map briefing view).
    All,
}

impl SnifferSpec {
    /// Builds the sniffer over `network`.
    ///
    /// # Errors
    ///
    /// Propagates sniffer-construction failures.
    pub fn build<R: Rng + ?Sized>(
        &self,
        network: &Network,
        rng: &mut R,
    ) -> Result<Sniffer, CoreError> {
        Ok(match *self {
            SnifferSpec::Percentage(pct) => Sniffer::random_percentage(network, pct, rng)?,
            SnifferSpec::Count(n) => Sniffer::random_count(network, n, rng)?,
            SnifferSpec::All => Sniffer::all(network),
        })
    }
}

/// Full attacker configuration.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Sniffer coverage.
    pub sniffer: SnifferSpec,
    /// Measurement noise on each sniffed reading.
    pub noise: NoiseModel,
    /// The flux model the adversary fits.
    pub model: FluxModel,
    /// Particle-filter parameters for tracking.
    pub smc: SmcConfig,
    /// Random-search parameters for instant localization.
    pub search: RandomSearchConfig,
    /// Network-side defense applied before sniffing.
    pub defense: Countermeasure,
    /// Read the neighborhood-mean flux at each sniffer instead of the raw
    /// per-node count (§3.B smoothing; a sniffer physically overhears its
    /// whole radio neighborhood). Strongly recommended — raw per-node flux
    /// in a randomized tree is too dispersed to fit.
    pub smooth: bool,
    /// Number of users the adversary assumes. `None` = the true count
    /// (the paper notes a conservative overestimate also works, with
    /// surplus sinks fitting `q → 0`).
    pub assumed_k: Option<usize>,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            sniffer: SnifferSpec::Percentage(10.0),
            noise: NoiseModel::None,
            model: FluxModel::default(),
            smc: SmcConfig::default(),
            search: RandomSearchConfig::default(),
            defense: Countermeasure::None,
            smooth: true,
            assumed_k: None,
        }
    }
}

/// Result of one instant-localization attack (Figures 5/6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstantReport {
    /// Window start time.
    pub time: f64,
    /// Collection positions of the users active in the window.
    pub truths: Vec<Point2>,
    /// The adversary's position estimates (active sinks of the best fit).
    pub estimates: Vec<Point2>,
    /// The top-M fits from the random search (Figure 5 plots all of them).
    pub top_fits: Vec<SinkFit>,
    /// Mean identity-free matched error.
    pub mean_error: f64,
    /// Maximum identity-free matched error.
    pub max_error: f64,
}

/// One round of a tracking attack.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrackingRound {
    /// Window start time.
    pub time: f64,
    /// Ground-truth positions of all users at this time.
    pub truths: Vec<Point2>,
    /// Tracker estimates for all users.
    pub estimates: Vec<Point2>,
    /// Which users the tracker saw collecting this round.
    pub active: Vec<bool>,
    /// Mean identity-free matched error of this round.
    pub mean_error: f64,
    /// Identity-free matched error between the *detected-active*
    /// estimates and the positions of the users that *truly collected*
    /// this window — the error at collection events, where the adversary
    /// actually gets information. Labels are ignored (the paper's
    /// position-not-identity semantics); a user silent for many windows is
    /// not scorable against its current position from flux alone, so it
    /// does not appear here.
    pub active_mean_error: Option<f64>,
}

/// Result of a full tracking attack (Figures 7/8/10).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrackingReport {
    /// Number of tracked users.
    pub k: usize,
    /// One entry per observation window, in time order.
    pub rounds: Vec<TrackingRound>,
}

impl TrackingReport {
    /// Mean matched error of the final round (the paper's Figure 8
    /// metric: "the error of the location estimation of each user in the
    /// final round").
    pub fn final_mean_error(&self) -> Option<f64> {
        self.rounds.last().map(|r| r.mean_error)
    }

    /// Mean matched error over every round (the trace-driven Figure 10
    /// metric).
    pub fn mean_error_over_rounds(&self) -> Option<f64> {
        if self.rounds.is_empty() {
            return None;
        }
        Some(self.rounds.iter().map(|r| r.mean_error).sum::<f64>() / self.rounds.len() as f64)
    }

    /// Mean matched error over the second half of the rounds — the
    /// converged regime, past the uniform-prior burn-in.
    pub fn converged_mean_error(&self) -> Option<f64> {
        if self.rounds.is_empty() {
            return None;
        }
        let half = &self.rounds[self.rounds.len() / 2..];
        Some(half.iter().map(|r| r.mean_error).sum::<f64>() / half.len() as f64)
    }

    /// Mean error at collection events: the average of
    /// [`TrackingRound::active_mean_error`] over rounds that detected at
    /// least one active user. The fair trace-driven metric — a user is
    /// only scorable when it actually touches the network.
    pub fn mean_active_error(&self) -> Option<f64> {
        let vals: Vec<f64> = self
            .rounds
            .iter()
            .filter_map(|r| r.active_mean_error)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Like [`mean_active_error`](Self::mean_active_error) but over the
    /// second half of the rounds (past burn-in).
    pub fn converged_active_error(&self) -> Option<f64> {
        let half = &self.rounds[self.rounds.len() / 2..];
        let vals: Vec<f64> = half.iter().filter_map(|r| r.active_mean_error).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Number of identity swaps over the run (changes of the optimal
    /// estimate→truth labeling between consecutive rounds) — Figure 7(d)'s
    /// crossing behavior, quantified.
    pub fn identity_swaps(&self) -> usize {
        let rounds: Vec<(Vec<Point2>, Vec<Point2>)> = self
            .rounds
            .iter()
            .map(|r| (r.estimates.clone(), r.truths.clone()))
            .collect();
        crate::metrics::count_identity_swaps(&rounds)
    }
}

/// Runs one instant-localization attack on the window starting at `t`
/// (the Figure 5/6 experiment).
///
/// # Errors
///
/// Returns [`CoreError::BadConfig`] when no user collects in the window;
/// simulation and solver failures are propagated.
pub fn run_instant_localization<R: Rng + ?Sized>(
    scenario: &Scenario,
    t: f64,
    config: &AttackConfig,
    rng: &mut R,
) -> Result<InstantReport, CoreError> {
    let active = scenario.active_users_at(t);
    if active.is_empty() {
        return Err(CoreError::BadConfig {
            field: "no active users in window",
        });
    }
    let truths: Vec<Point2> = active.iter().map(|&(_, p, _)| p).collect();

    let sniffer = config.sniffer.build(&scenario.network, rng)?;
    let mut flux = scenario.simulate_window(t, rng)?;
    config.defense.apply(&scenario.network, &mut flux, rng)?;
    let measured = if config.smooth {
        sniffer.observe_smoothed(&scenario.network, &flux, config.noise, rng)
    } else {
        sniffer.observe(&flux, config.noise, rng)
    };
    let objective = FluxObjective::new(
        scenario.network.boundary_arc(),
        config.model,
        sniffer.positions().to_vec(),
        measured,
    )?;

    let k = config.assumed_k.unwrap_or(truths.len());
    let fits = random_search(&objective, k, &config.search, rng)?;
    let best = &fits[0];
    // Report only the sinks the fit deems active; a conservative k leaves
    // the surplus at q ≈ 0.
    let mut estimates: Vec<Point2> = best
        .active_sinks(fluxprint_smc::ACTIVITY_THRESHOLD)
        .into_iter()
        .map(|i| best.positions[i])
        .collect();
    if estimates.is_empty() {
        estimates = best.positions.clone();
    }
    let errors = metrics::matched_errors(&estimates, &truths)?;
    let mean_error = errors.iter().sum::<f64>() / errors.len() as f64;
    let max_error = errors.iter().cloned().fold(0.0, f64::max);
    Ok(InstantReport {
        time: t,
        truths,
        estimates,
        top_fits: fits,
        mean_error,
        max_error,
    })
}

/// Scores one tracker round against the scenario's ground truth.
fn score_round(
    scenario: &Scenario,
    t: f64,
    outcome: StepOutcome,
) -> Result<TrackingRound, CoreError> {
    let truths = scenario.truths_at(t);
    let mean_error = metrics::mean_matched_error(&outcome.estimates, &truths)?;
    let active_estimates: Vec<Point2> = outcome
        .estimates
        .iter()
        .zip(&outcome.active)
        .filter(|(_, &a)| a)
        .map(|(&e, _)| e)
        .collect();
    // Positions of the users that truly collected this window.
    let collecting: Vec<Point2> = scenario
        .active_users_at(t)
        .into_iter()
        .map(|(_, p, _)| p)
        .collect();
    let active_mean_error = if active_estimates.is_empty() || collecting.is_empty() {
        None
    } else {
        Some(metrics::mean_matched_error(&active_estimates, &collecting)?)
    };
    Ok(TrackingRound {
        time: t,
        truths,
        estimates: outcome.estimates,
        active: outcome.active,
        mean_error,
        active_mean_error,
    })
}

/// Runs a full tracking attack over the scenario's time span
/// (the Figure 7/8/10 experiment): one tracker step per observation
/// window, asynchronous collections handled by the §4.E gate.
///
/// This is a thin batch adapter over the streaming engine: it opens one
/// [`fluxprint_engine::Session`], packages each simulated window as an
/// [`fluxprint_netsim::ObservationRound`], and ingests them in time
/// order. The output contract is pinned by the committed golden fixture
/// in `crates/bench/tests/golden.rs`, and the `engine_equivalence`
/// integration test asserts that an interrupted (checkpoint/restore)
/// session reproduces this uninterrupted loop bit-for-bit.
///
/// # Errors
///
/// Propagates simulation, solver, and tracker failures.
pub fn run_tracking<R: Rng + ?Sized>(
    scenario: &Scenario,
    config: &AttackConfig,
    rng: &mut R,
) -> Result<TrackingReport, CoreError> {
    let (t_start, t_end) = scenario.time_span();
    let window = scenario.window;
    let k = config.assumed_k.unwrap_or(scenario.k());
    let engine = Engine::for_network(&scenario.network, config.model)?;
    let session_config = SessionConfig {
        users: k,
        smc: config.smc,
        start_time: t_start - window,
        // The legacy batch pipeline this adapter reproduces predates
        // warm-started solving; cold keeps the fig7 fixture exact.
        warm: false,
    };
    // `open_session_with` + `ingest_with` draw from the caller's RNG in
    // exactly the legacy call order (tracker prior, sniffer build, then
    // per round: simulate, defend, observe, step), which is what keeps
    // this adapter bit-identical to the retired pre-engine batch loop —
    // the golden fig7 fixture pins that stream for good.
    let mut session = engine.open_session_with(&session_config, rng)?;
    let sniffer = config.sniffer.build(&scenario.network, rng)?;

    let mut rounds = Vec::new();
    let mut t = t_start;
    while t <= t_end {
        let mut flux = scenario.simulate_window(t, rng)?;
        config.defense.apply(&scenario.network, &mut flux, rng)?;
        let round = if config.smooth {
            sniffer.observe_round_smoothed(t, &scenario.network, &flux, config.noise, rng)
        } else {
            sniffer.observe_round(t, &flux, config.noise, rng)
        };
        let outcome = session.ingest_with(&round, rng)?;
        rounds.push(score_round(scenario, t, outcome)?);
        t += window;
    }
    Ok(TrackingReport { k, rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioBuilder;
    use fluxprint_mobility::{CollectionSchedule, Trajectory, UserMotion};
    use fluxprint_netsim::NetsimError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn static_user(x: f64, y: f64, stretch: f64) -> UserMotion {
        UserMotion::new(
            Trajectory::stationary(0.0, Point2::new(x, y)).unwrap(),
            CollectionSchedule::periodic(0.0, 1.0, 10).unwrap(),
            stretch,
        )
        .unwrap()
    }

    fn moving_user(from: Point2, to: Point2, rounds: usize) -> UserMotion {
        UserMotion::new(
            Trajectory::linear(0.0, from, rounds as f64, to).unwrap(),
            CollectionSchedule::periodic(0.0, 1.0, rounds + 1).unwrap(),
            2.0,
        )
        .unwrap()
    }

    fn quick_config() -> AttackConfig {
        let mut c = AttackConfig::default();
        c.search.samples = 1500;
        c.search.top_m = 5;
        c.smc.n_predictions = 250;
        c
    }

    #[test]
    fn instant_localization_single_user() {
        let mut rng = StdRng::seed_from_u64(1);
        let scenario = ScenarioBuilder::new()
            .grid_nodes(20, 20)
            .radius(3.0)
            .user(static_user(12.0, 17.0, 2.0))
            .build(&mut rng)
            .unwrap();
        let report = run_instant_localization(&scenario, 0.0, &quick_config(), &mut rng).unwrap();
        assert_eq!(report.truths, vec![Point2::new(12.0, 17.0)]);
        assert!(report.mean_error < 2.5, "error {:.2}", report.mean_error);
        assert!(!report.top_fits.is_empty());
        assert!(report.max_error >= report.mean_error);
    }

    #[test]
    fn instant_localization_requires_active_user() {
        let mut rng = StdRng::seed_from_u64(2);
        let scenario = ScenarioBuilder::new()
            .grid_nodes(15, 15)
            .radius(4.0)
            .user(static_user(10.0, 10.0, 1.0))
            .build(&mut rng)
            .unwrap();
        // No collection in [100, 101): schedule ended at t = 9.
        assert!(matches!(
            run_instant_localization(&scenario, 100.0, &quick_config(), &mut rng),
            Err(CoreError::BadConfig { .. })
        ));
    }

    #[test]
    fn conservative_k_reports_only_active_sinks() {
        let mut rng = StdRng::seed_from_u64(3);
        let scenario = ScenarioBuilder::new()
            .grid_nodes(20, 20)
            .radius(3.0)
            .user(static_user(12.0, 17.0, 2.0))
            .build(&mut rng)
            .unwrap();
        let mut config = quick_config();
        config.assumed_k = Some(3); // overestimate, as §4.A allows
        let report = run_instant_localization(&scenario, 0.0, &config, &mut rng).unwrap();
        assert!(
            report.estimates.len() <= 3,
            "reported {} estimates",
            report.estimates.len()
        );
        assert!(report.mean_error < 4.0, "error {:.2}", report.mean_error);
    }

    #[test]
    fn tracking_converges_on_moving_user() {
        let mut rng = StdRng::seed_from_u64(4);
        let scenario = ScenarioBuilder::new()
            .grid_nodes(20, 20)
            .radius(3.0)
            .user(moving_user(
                Point2::new(6.0, 15.0),
                Point2::new(24.0, 15.0),
                9,
            ))
            .build(&mut rng)
            .unwrap();
        let report = run_tracking(&scenario, &quick_config(), &mut rng).unwrap();
        assert_eq!(report.rounds.len(), 10);
        assert_eq!(report.k, 1);
        let converged = report.converged_mean_error().unwrap();
        assert!(converged < 3.0, "converged error {converged:.2}");
        assert!(report.final_mean_error().unwrap() < 4.0);
    }

    #[test]
    fn tracking_handles_asynchronous_users() {
        let mut rng = StdRng::seed_from_u64(5);
        // User 0 collects on even seconds, user 1 on odd seconds.
        let u0 = UserMotion::new(
            Trajectory::stationary(0.0, Point2::new(8.0, 8.0)).unwrap(),
            CollectionSchedule::from_times(vec![0.0, 2.0, 4.0, 6.0, 8.0]).unwrap(),
            2.0,
        )
        .unwrap();
        let u1 = UserMotion::new(
            Trajectory::stationary(0.0, Point2::new(22.0, 21.0)).unwrap(),
            CollectionSchedule::from_times(vec![1.0, 3.0, 5.0, 7.0]).unwrap(),
            2.0,
        )
        .unwrap();
        let scenario = ScenarioBuilder::new()
            .grid_nodes(20, 20)
            .radius(3.0)
            .user(u0)
            .user(u1)
            .build(&mut rng)
            .unwrap();
        let report = run_tracking(&scenario, &quick_config(), &mut rng).unwrap();
        // Ground truth: one collection per window. Before a user's samples
        // localize, the fit may briefly attribute flux to both hypotheses,
        // so allow a few double-active rounds.
        let double_active = report
            .rounds
            .iter()
            .filter(|r| r.active.iter().filter(|&&a| a).count() > 1)
            .count();
        assert!(
            double_active <= 3,
            "{double_active} rounds with both users active"
        );
        // At least some rounds detect each user.
        let u0_rounds = report.rounds.iter().filter(|r| r.active[0]).count();
        let u1_rounds = report.rounds.iter().filter(|r| r.active[1]).count();
        assert!(u0_rounds >= 3, "user 0 active in only {u0_rounds} rounds");
        assert!(u1_rounds >= 2, "user 1 active in only {u1_rounds} rounds");
        let converged = report.converged_mean_error().unwrap();
        assert!(converged < 5.0, "async tracking error {converged:.2}");
    }

    #[test]
    fn defense_degrades_attack() {
        let mut rng = StdRng::seed_from_u64(6);
        let scenario = ScenarioBuilder::new()
            .grid_nodes(20, 20)
            .radius(3.0)
            .user(static_user(12.0, 17.0, 2.0))
            .build(&mut rng)
            .unwrap();
        let clean = run_instant_localization(&scenario, 0.0, &quick_config(), &mut rng).unwrap();
        let mut defended_cfg = quick_config();
        defended_cfg.defense = Countermeasure::DummySinks {
            count: 4,
            stretch: 3.0,
        };
        // Average over a few runs: decoys are random.
        let mut defended_total = 0.0;
        for _ in 0..3 {
            defended_total += run_instant_localization(&scenario, 0.0, &defended_cfg, &mut rng)
                .unwrap()
                .mean_error;
        }
        assert!(
            defended_total / 3.0 > clean.mean_error,
            "defense did not degrade the attack ({:.2} vs {:.2})",
            defended_total / 3.0,
            clean.mean_error
        );
    }

    #[test]
    fn sniffer_spec_builds_expected_sizes() {
        let mut rng = StdRng::seed_from_u64(7);
        let scenario = ScenarioBuilder::new()
            .grid_nodes(10, 10)
            .radius(5.0)
            .user(static_user(10.0, 10.0, 1.0))
            .build(&mut rng)
            .unwrap();
        assert_eq!(
            SnifferSpec::Percentage(10.0)
                .build(&scenario.network, &mut rng)
                .unwrap()
                .len(),
            10
        );
        assert_eq!(
            SnifferSpec::Count(25)
                .build(&scenario.network, &mut rng)
                .unwrap()
                .len(),
            25
        );
        assert_eq!(
            SnifferSpec::All
                .build(&scenario.network, &mut rng)
                .unwrap()
                .len(),
            100
        );
    }

    #[test]
    fn sniffer_spec_edge_cases() {
        let mut rng = StdRng::seed_from_u64(8);
        let scenario = ScenarioBuilder::new()
            .grid_nodes(10, 10)
            .radius(5.0)
            .user(static_user(10.0, 10.0, 1.0))
            .build(&mut rng)
            .unwrap();
        let net = &scenario.network;

        // Percentage 0 is out of the paper's (0, 100] domain; 100 sniffs
        // every node.
        assert!(matches!(
            SnifferSpec::Percentage(0.0).build(net, &mut rng),
            Err(CoreError::Netsim(NetsimError::BadPercentage(_)))
        ));
        assert_eq!(
            SnifferSpec::Percentage(100.0)
                .build(net, &mut rng)
                .unwrap()
                .len(),
            net.len()
        );

        // Count 0 and count > node count are both rejected; count == node
        // count is the full-map boundary and succeeds.
        assert!(matches!(
            SnifferSpec::Count(0).build(net, &mut rng),
            Err(CoreError::Netsim(NetsimError::EmptyNetwork))
        ));
        assert!(matches!(
            SnifferSpec::Count(net.len() + 1).build(net, &mut rng),
            Err(CoreError::Netsim(NetsimError::TooManySniffers { .. }))
        ));
        assert_eq!(
            SnifferSpec::Count(net.len())
                .build(net, &mut rng)
                .unwrap()
                .len(),
            net.len()
        );
    }
}
