//! Tracker configuration.

use serde::{Deserialize, Serialize};

use crate::SmcError;

/// The largest [`SmcConfig::keep_m`]: the number of distinct `u16` pool
/// indices a compact snapshot can address per user.
const MAX_KEEP_M: usize = 1 << 16;

/// The largest [`SmcConfig::n_predictions`]: 100 times the paper's
/// `N = 1000`, and above the largest `keep_m` (65,536), so that every
/// `keep_m` stays reachable. A round allocates per user a few words
/// per prediction plus a basis column over every sniffer, so a
/// restored checkpoint or a wire spec asking for `u32::MAX`
/// predictions would abort the process on its next ingest instead of
/// failing here.
pub const MAX_N_PREDICTIONS: usize = 100_000;

/// Parameters of the Sequential Monte Carlo tracker.
///
/// Defaults follow §5.B: `N = 1000` predictions, `M = 10` kept samples,
/// maximum speed 5 per detection interval. The tracker's other tuning
/// values are constants: [`ACTIVITY_THRESHOLD`](crate::ACTIVITY_THRESHOLD),
/// [`ACTIVITY_MIN_GAIN`](crate::ACTIVITY_MIN_GAIN),
/// [`EXPLORE_FRACTION`](crate::EXPLORE_FRACTION),
/// [`EXPLORE_ACCEPT_RATIO`](crate::EXPLORE_ACCEPT_RATIO) and
/// [`WARM_SHRINK`](crate::WARM_SHRINK).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmcConfig {
    /// `N`: candidate positions predicted per user per round, at most
    /// [`MAX_N_PREDICTIONS`].
    pub n_predictions: usize,
    /// `M`: samples kept per user after filtering. At most 65,536: the
    /// compact snapshot addresses each user's sample pools with `u16`
    /// indices, and a larger `M` would make a checkpoint restore into a
    /// different session.
    pub keep_m: usize,
    /// Maximum user speed `v_max` (field units per time unit).
    pub vmax: f64,
    /// Use the recursive importance weights of Formula 4.3 (`w_t ∝
    /// w_{t-1} / ‖F̂ − F′‖`). Disabled, the filter degenerates to the
    /// plain top-M selection of §4.C — kept as an ablation of the §4.D
    /// importance-sampling refinement.
    pub use_importance_weights: bool,
    /// Fraction of motion-prior candidates drawn from a forward cone along
    /// the user's estimated heading instead of the full uniform disc — the
    /// refinement §4.C sketches ("the heading of the mobile user"). `0`
    /// (the default) is the paper's plain uniform-disc prior; the biased
    /// draws still respect the `v_max·Δt` reachability constraint.
    pub heading_bias: f64,
}

impl Default for SmcConfig {
    fn default() -> Self {
        SmcConfig {
            n_predictions: 1000,
            keep_m: 10,
            vmax: 5.0,
            use_importance_weights: true,
            heading_bias: 0.0,
        }
    }
}

impl SmcConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SmcError::BadConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), SmcError> {
        if self.n_predictions == 0 || self.n_predictions > MAX_N_PREDICTIONS {
            return Err(SmcError::BadConfig {
                field: "n_predictions",
            });
        }
        if self.keep_m == 0 || self.keep_m > self.n_predictions || self.keep_m > MAX_KEEP_M {
            return Err(SmcError::BadConfig { field: "keep_m" });
        }
        if !(self.vmax.is_finite() && self.vmax > 0.0) {
            return Err(SmcError::BadConfig { field: "vmax" });
        }
        if !(0.0..1.0).contains(&self.heading_bias) {
            return Err(SmcError::BadConfig {
                field: "heading_bias",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_paper_matched() {
        let c = SmcConfig::default();
        c.validate().unwrap();
        assert_eq!(c.n_predictions, 1000);
        assert_eq!(c.keep_m, 10);
        assert_eq!(c.vmax, 5.0);
    }

    #[test]
    fn invalid_fields_detected() {
        let base = SmcConfig::default();
        for (cfg, field) in [
            (
                SmcConfig {
                    n_predictions: 0,
                    ..base
                },
                "n_predictions",
            ),
            (
                SmcConfig {
                    n_predictions: MAX_N_PREDICTIONS + 1,
                    ..base
                },
                "n_predictions",
            ),
            (
                SmcConfig {
                    n_predictions: u32::MAX as usize,
                    ..base
                },
                "n_predictions",
            ),
            (SmcConfig { keep_m: 0, ..base }, "keep_m"),
            (
                SmcConfig {
                    keep_m: 2000,
                    ..base
                },
                "keep_m",
            ),
            (
                SmcConfig {
                    n_predictions: 70_000,
                    keep_m: MAX_KEEP_M + 1,
                    ..base
                },
                "keep_m",
            ),
            (SmcConfig { vmax: 0.0, ..base }, "vmax"),
            (
                SmcConfig {
                    heading_bias: 1.0,
                    ..base
                },
                "heading_bias",
            ),
        ] {
            match cfg.validate() {
                Err(SmcError::BadConfig { field: f }) => assert_eq!(f, field),
                other => panic!("expected BadConfig({field}), got {other:?}"),
            }
        }
        SmcConfig {
            n_predictions: 70_000,
            keep_m: MAX_KEEP_M,
            ..base
        }
        .validate()
        .unwrap();
        SmcConfig {
            n_predictions: MAX_N_PREDICTIONS,
            ..base
        }
        .validate()
        .unwrap();
    }
}
