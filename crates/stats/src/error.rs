//! Error type for statistics routines.

use std::error::Error;
use std::fmt;

/// Errors produced by statistics and sampling routines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StatsError {
    /// An operation required at least one sample.
    EmptyInput,
    /// A sample or weight was NaN or infinite.
    NonFiniteSample {
        /// Index of the offending value.
        index: usize,
    },
    /// Weights summed to zero (or a weight was negative).
    BadWeights,
    /// More distinct indices were requested than exist.
    NotEnoughItems {
        /// Items requested.
        requested: usize,
        /// Items available.
        available: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptyInput => write!(f, "input must contain at least one sample"),
            StatsError::NonFiniteSample { index } => {
                write!(f, "sample at index {index} is not finite")
            }
            StatsError::BadWeights => write!(f, "weights must be non-negative with positive sum"),
            StatsError::NotEnoughItems {
                requested,
                available,
            } => {
                write!(f, "requested {requested} distinct items from {available}")
            }
        }
    }
}

impl Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty() {
        let errs = [
            StatsError::EmptyInput,
            StatsError::NonFiniteSample { index: 3 },
            StatsError::BadWeights,
            StatsError::NotEnoughItems {
                requested: 5,
                available: 2,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
