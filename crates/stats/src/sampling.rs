//! Weighted and index sampling.
//!
//! The particle filter resamples positions proportionally to importance
//! weights (Formula 4.3), and the sniffer selection draws a fixed
//! percentage of distinct nodes. Both live here.

use rand::Rng;

use crate::StatsError;

/// Walker's alias method for O(1) weighted sampling after O(n) setup.
///
/// Used to resample particles by importance weight; beats repeated binary
/// search when thousands of draws are taken per tracking round.
///
/// # Example
///
/// ```
/// use fluxprint_stats::WeightedAlias;
/// use rand::SeedableRng;
///
/// let alias = WeightedAlias::new(&[0.0, 1.0, 3.0]).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let draws: Vec<usize> = (0..1000).map(|_| alias.sample(&mut rng)).collect();
/// assert!(draws.iter().all(|&i| i != 0)); // zero-weight index never drawn
/// ```
#[derive(Debug, Clone)]
pub struct WeightedAlias {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl WeightedAlias {
    /// Builds the alias table for the given (unnormalized) weights.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for no weights and
    /// [`StatsError::BadWeights`] when any weight is negative/non-finite or
    /// all weights are zero.
    pub fn new(weights: &[f64]) -> Result<Self, StatsError> {
        let n = weights.len();
        if n == 0 {
            return Err(StatsError::EmptyInput);
        }
        let sum: f64 = weights.iter().sum();
        if weights.iter().any(|&w| w < 0.0 || !w.is_finite()) || sum <= 0.0 {
            return Err(StatsError::BadWeights);
        }
        // Scale weights so the average bucket holds probability 1.
        let scaled: Vec<f64> = weights.iter().map(|&w| w * n as f64 / sum).collect();
        let mut prob = vec![0.0; n];
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        let mut work = scaled;
        for (i, &w) in work.iter().enumerate() {
            if w < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            prob[s] = work[s];
            alias[s] = l;
            work[l] = (work[l] + work[s]) - 1.0;
            if work[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        Ok(WeightedAlias { prob, alias })
    }

    /// Draws one index with probability proportional to its weight.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

/// Draws `count` *distinct* indices from `0..n` uniformly at random
/// (partial Fisher–Yates).
///
/// This is how sniffer nodes are chosen: "we randomly select the percentage
/// of sensor nodes from the network and use their flux reports" (§5.A).
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughItems`] when `count > n`.
pub fn sample_indices_without_replacement<R: Rng + ?Sized>(
    n: usize,
    count: usize,
    rng: &mut R,
) -> Result<Vec<usize>, StatsError> {
    if count > n {
        return Err(StatsError::NotEnoughItems {
            requested: count,
            available: n,
        });
    }
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..count {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(count);
    Ok(pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn alias_matches_weights_statistically() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let alias = WeightedAlias::new(&weights).unwrap();
        let mut counts = [0usize; 4];
        let mut r = rng();
        let draws = 100_000;
        for _ in 0..draws {
            counts[alias.sample(&mut r)] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / total;
            let got = counts[i] as f64 / draws as f64;
            assert!(
                (got - expected).abs() < 0.01,
                "index {i}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn alias_zero_weight_never_sampled() {
        let alias = WeightedAlias::new(&[0.0, 1.0]).unwrap();
        let mut r = rng();
        for _ in 0..10_000 {
            assert_eq!(alias.sample(&mut r), 1);
        }
    }

    #[test]
    fn alias_rejects_bad_weights() {
        assert!(matches!(
            WeightedAlias::new(&[]),
            Err(StatsError::EmptyInput)
        ));
        assert!(matches!(
            WeightedAlias::new(&[-1.0, 2.0]),
            Err(StatsError::BadWeights)
        ));
        assert!(matches!(
            WeightedAlias::new(&[0.0, 0.0]),
            Err(StatsError::BadWeights)
        ));
        assert!(matches!(
            WeightedAlias::new(&[f64::NAN]),
            Err(StatsError::BadWeights)
        ));
    }

    #[test]
    fn without_replacement_distinct_and_in_range() {
        let mut r = rng();
        let idx = sample_indices_without_replacement(100, 30, &mut r).unwrap();
        assert_eq!(idx.len(), 30);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30, "indices must be distinct");
        assert!(idx.iter().all(|&i| i < 100));
    }

    #[test]
    fn without_replacement_full_draw_is_permutation() {
        let mut r = rng();
        let mut idx = sample_indices_without_replacement(10, 10, &mut r).unwrap();
        idx.sort_unstable();
        assert_eq!(idx, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn without_replacement_too_many_rejected() {
        assert!(matches!(
            sample_indices_without_replacement(3, 4, &mut rng()),
            Err(StatsError::NotEnoughItems {
                requested: 4,
                available: 3
            })
        ));
    }
}
