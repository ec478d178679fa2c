//! Empirical cumulative distribution functions.
//!
//! Figure 3(a) of the paper plots the CDF of the flux-model approximation
//! error for three network densities; [`Ecdf`] is the exact structure the
//! repro harness evaluates at the figure's x-axis points.

use crate::StatsError;

/// An empirical CDF over a fixed sample set.
///
/// # Example
///
/// ```
/// use fluxprint_stats::Ecdf;
///
/// let cdf = Ecdf::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(cdf.eval(0.5), 0.0);
/// assert_eq!(cdf.eval(2.0), 0.5);
/// assert_eq!(cdf.eval(10.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF of `samples`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] or
    /// [`StatsError::NonFiniteSample`] on invalid input.
    pub fn from_samples(samples: &[f64]) -> Result<Self, StatsError> {
        if samples.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if let Some(index) = samples.iter().position(|v| !v.is_finite()) {
            return Err(StatsError::NonFiniteSample { index });
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Ok(Ecdf { sorted })
    }

    /// Fraction of samples `≤ x` (right-continuous step function).
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point returns the count of samples ≤ x because the
        // predicate is `v <= x` over a sorted slice.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_function_semantics() {
        let cdf = Ecdf::from_samples(&[1.0, 1.0, 2.0]).unwrap();
        assert_eq!(cdf.eval(0.999), 0.0);
        assert!((cdf.eval(1.0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((cdf.eval(1.5) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cdf.eval(2.0), 1.0);
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            Ecdf::from_samples(&[]),
            Err(StatsError::EmptyInput)
        ));
        assert!(matches!(
            Ecdf::from_samples(&[f64::NAN]),
            Err(StatsError::NonFiniteSample { .. })
        ));
    }

    #[test]
    fn monotone_nondecreasing() {
        let cdf = Ecdf::from_samples(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]).unwrap();
        let mut last = 0.0;
        for i in 0..100 {
            let x = i as f64 / 10.0;
            let v = cdf.eval(x);
            assert!(v >= last);
            last = v;
        }
    }
}
