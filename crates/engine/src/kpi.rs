//! KPI extraction from session outcomes.
//!
//! The experiment registry (`fluxreg`, in the bench crate) records one
//! row per ablation job; the numbers it gates on have to come from
//! somewhere deterministic. This module folds a stream of
//! [`StepOutcome`]s — from one session or a whole grid fleet — into a
//! small aggregate that is bit-stable for a fixed seed at any thread
//! count, because the outcomes themselves are (DESIGN.md §9/§11).
//!
//! Accuracy against ground truth is *not* computed here: the engine has
//! no notion of truth (it is the adversary). Identity-free error metrics
//! live in `core::metrics`; the registry runner combines both.

use fluxprint_smc::StepOutcome;

/// Deterministic aggregates over a set of ingested rounds.
///
/// The accumulator is associative and order-insensitive in its sums, so
/// merging per-session aggregates in any fixed order yields the same
/// result as one pass over all outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OutcomeKpis {
    /// Rounds folded in.
    pub rounds: u64,
    /// Sum of winning-combination residuals `‖F̂ − F′‖` across rounds.
    pub residual_sum: f64,
    /// User-rounds observed (sum of per-round tracked-user counts).
    pub user_rounds: u64,
    /// User-rounds detected as actively collecting.
    pub active_user_rounds: u64,
}

impl OutcomeKpis {
    /// Folds one batch of outcomes into a fresh aggregate.
    pub fn from_outcomes(outcomes: &[StepOutcome]) -> Self {
        let mut kpis = OutcomeKpis::default();
        kpis.fold(outcomes);
        kpis
    }

    /// Folds further outcomes into this aggregate.
    pub fn fold(&mut self, outcomes: &[StepOutcome]) {
        for outcome in outcomes {
            self.rounds += 1;
            self.residual_sum += outcome.residual;
            self.user_rounds += outcome.active.len() as u64;
            self.active_user_rounds += outcome.active.iter().filter(|a| **a).count() as u64;
        }
    }

    /// Merges another aggregate (e.g. a different session's) into this one.
    pub fn merge(&mut self, other: &OutcomeKpis) {
        self.rounds += other.rounds;
        self.residual_sum += other.residual_sum;
        self.user_rounds += other.user_rounds;
        self.active_user_rounds += other.active_user_rounds;
    }

    /// Mean residual per round (`NaN` for an empty aggregate — callers
    /// decide how to render absent data).
    pub fn mean_residual(&self) -> f64 {
        if self.rounds == 0 {
            f64::NAN
        } else {
            self.residual_sum / self.rounds as f64
        }
    }

    /// Fraction of user-rounds detected active (`NaN` when no users).
    pub fn active_fraction(&self) -> f64 {
        if self.user_rounds == 0 {
            f64::NAN
        } else {
            self.active_user_rounds as f64 / self.user_rounds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxprint_geometry::Point2;

    fn outcome(residual: f64, active: &[bool]) -> StepOutcome {
        StepOutcome {
            time: 1.0,
            estimates: vec![Point2::ORIGIN; active.len()],
            active: active.to_vec(),
            stretches: vec![1.0; active.len()],
            residual,
        }
    }

    #[test]
    fn folds_rounds_users_and_residuals() {
        let outcomes = [outcome(2.0, &[true, false]), outcome(4.0, &[true, true])];
        let kpis = OutcomeKpis::from_outcomes(&outcomes);
        assert_eq!(kpis.rounds, 2);
        assert_eq!(kpis.user_rounds, 4);
        assert_eq!(kpis.active_user_rounds, 3);
        assert_eq!(kpis.mean_residual(), 3.0);
        assert_eq!(kpis.active_fraction(), 0.75);
    }

    #[test]
    fn merge_matches_single_pass() {
        let a = [outcome(1.0, &[true]), outcome(2.0, &[false])];
        let b = [outcome(3.0, &[true, true])];
        let mut merged = OutcomeKpis::from_outcomes(&a);
        merged.merge(&OutcomeKpis::from_outcomes(&b));
        let all: Vec<StepOutcome> = a.iter().chain(&b).cloned().collect();
        assert_eq!(merged, OutcomeKpis::from_outcomes(&all));
    }

    #[test]
    fn empty_aggregate_reports_nan_not_zero() {
        let kpis = OutcomeKpis::default();
        assert!(kpis.mean_residual().is_nan());
        assert!(kpis.active_fraction().is_nan());
    }
}
