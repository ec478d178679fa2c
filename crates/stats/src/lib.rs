//! Sampling utilities and the empirical CDF for the `fluxprint` workspace.
//!
//! Three callers, three items: the SMC tracker draws each round's
//! predictions from its weighted samples through [`WeightedAlias`], the
//! sniffer selection draws distinct nodes with
//! [`sample_indices_without_replacement`], and Figure 3(a) evaluates the
//! flux-model error CDF through [`Ecdf`].
//!
//! # Example
//!
//! ```
//! use fluxprint_stats::{Ecdf, WeightedAlias};
//! use rand::SeedableRng;
//!
//! let cdf = Ecdf::from_samples(&[0.4, 0.9, 1.1, 0.3, 2.0]).unwrap();
//! assert!((cdf.eval(1.0) - 0.6).abs() < 1e-12); // 3 of 5 samples ≤ 1.0
//!
//! let alias = WeightedAlias::new(&[0.0, 1.0]).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! assert_eq!(alias.sample(&mut rng), 1); // zero-weight index never drawn
//! ```

#![warn(missing_docs)]

mod ecdf;
mod error;
mod sampling;

pub use ecdf::Ecdf;
pub use error::StatsError;
pub use sampling::{sample_indices_without_replacement, WeightedAlias};
