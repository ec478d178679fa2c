//! Property-based tests for the statistics substrate.

use fluxprint_stats::{sample_indices_without_replacement, Ecdf, WeightedAlias};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0..100.0f64, 1..64)
}

proptest! {
    /// ECDF is a proper CDF: 0 before the min, 1 at the max, and
    /// monotone.
    #[test]
    fn ecdf_is_cdf(xs in samples()) {
        let cdf = Ecdf::from_samples(&xs).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(cdf.eval(lo - 1.0), 0.0);
        prop_assert_eq!(cdf.eval(hi), 1.0);
        let mut last = 0.0;
        for i in 0..20 {
            let x = lo + (hi - lo) * i as f64 / 19.0;
            let v = cdf.eval(x);
            prop_assert!(v >= last - 1e-12);
            last = v;
        }
    }

    /// Alias sampling only ever returns indices with positive weight.
    #[test]
    fn alias_respects_support(
        weights in proptest::collection::vec(0.0..1.0f64, 1..16),
        seed in 0u64..1000,
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 1e-6);
        let alias = WeightedAlias::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let i = alias.sample(&mut rng);
            prop_assert!(weights[i] > 0.0, "sampled zero-weight index {i}");
        }
    }

    /// Sampling without replacement covers 0..n uniformly enough that a
    /// full draw is a permutation.
    #[test]
    fn full_draw_is_permutation(n in 1usize..64, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx = sample_indices_without_replacement(n, n, &mut rng).unwrap();
        idx.sort_unstable();
        prop_assert_eq!(idx, (0..n).collect::<Vec<_>>());
    }
}
