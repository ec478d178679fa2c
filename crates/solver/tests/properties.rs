//! Property-based tests for the solver layer.

use std::sync::Arc;

use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::{Point2, Rect};
use fluxprint_linalg::Matrix;
use fluxprint_solver::{
    min_cost_assignment, nelder_mead, random_search, refine_fit, FluxObjective, RandomSearchConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn grid_sniffers() -> Vec<Point2> {
    let mut v = Vec::new();
    for i in 0..7 {
        for j in 0..7 {
            v.push(Point2::new(2.0 + i as f64 * 4.3, 2.0 + j as f64 * 4.3));
        }
    }
    v
}

fn objective_for(truth: &[(Point2, f64)]) -> FluxObjective {
    let field = Rect::square(30.0).unwrap();
    let model = FluxModel::default();
    let sniffers = grid_sniffers();
    let measured: Vec<f64> = sniffers
        .iter()
        .map(|&p| model.predict_superposed(truth, p, &field))
        .collect();
    FluxObjective::new(Arc::new(field), model, sniffers, measured).unwrap()
}

fn point_in_field() -> impl Strategy<Value = Point2> {
    (3.0..27.0, 3.0..27.0).prop_map(|(x, y)| Point2::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// NNLS-fitted residual is bounded by the empty-model residual, and
    /// stretches are non-negative, for any hypothesis.
    #[test]
    fn objective_residual_bounded(truth in point_in_field(), hyp in point_in_field(), q in 0.5..3.0) {
        let obj = objective_for(&[(truth, q)]);
        let fit = obj.evaluate(&[hyp]).unwrap();
        prop_assert!(fit.residual <= obj.null_residual() + 1e-9);
        prop_assert!(fit.stretches.iter().all(|&s| s >= 0.0));
    }

    /// Adding a sink can never worsen the best achievable residual (NNLS
    /// may zero the new column).
    #[test]
    fn extra_sink_never_hurts(truth in point_in_field(), extra in point_in_field(), q in 0.5..3.0) {
        let obj = objective_for(&[(truth, q)]);
        let single = obj.evaluate(&[truth]).unwrap();
        let double = obj.evaluate(&[truth, extra]).unwrap();
        prop_assert!(double.residual <= single.residual + 1e-9);
    }

    /// Nelder–Mead refinement never worsens a fit.
    #[test]
    fn refinement_monotone(truth in point_in_field(), start in point_in_field(), q in 0.5..3.0) {
        let obj = objective_for(&[(truth, q)]);
        let fit = obj.evaluate(&[start]).unwrap();
        let refined = refine_fit(&obj, &fit, 400).unwrap();
        prop_assert!(refined.residual <= fit.residual + 1e-9);
        // Refined positions stay on the field.
        for p in &refined.positions {
            prop_assert!(obj.boundary().contains(*p));
        }
    }

    /// Random search results arrive sorted and respect top_m.
    #[test]
    fn search_results_sorted(truth in point_in_field(), seed in 0u64..1000, q in 0.5..3.0) {
        let obj = objective_for(&[(truth, q)]);
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = RandomSearchConfig { samples: 200, top_m: 7 };
        let fits = random_search(&obj, 1, &cfg, &mut rng).unwrap();
        prop_assert_eq!(fits.len(), 7);
        for w in fits.windows(2) {
            prop_assert!(w[0].residual <= w[1].residual + 1e-12);
        }
    }

    /// Nelder–Mead on a translated quadratic bowl finds its center.
    #[test]
    fn nelder_mead_quadratic(cx in -5.0..5.0f64, cy in -5.0..5.0f64) {
        let f = |x: &[f64]| (x[0] - cx).powi(2) + 2.0 * (x[1] - cy).powi(2);
        let (x, fx) = nelder_mead(f, &[0.0, 0.0], 800).unwrap();
        prop_assert!(fx < 1e-4, "objective {fx}");
        prop_assert!((x[0] - cx).abs() < 0.05 && (x[1] - cy).abs() < 0.05);
    }

    /// The Hungarian assignment's total cost is invariant under row
    /// permutations of the cost matrix.
    #[test]
    fn assignment_invariant_under_row_permutation(
        data in proptest::collection::vec(0.0..10.0f64, 9),
    ) {
        let cost = Matrix::from_vec(3, 3, data.clone()).unwrap();
        let a = min_cost_assignment(&cost).unwrap();
        let total: f64 = a.iter().enumerate().map(|(r, &c)| cost[(r, c)]).sum();
        // Rotate rows by one.
        let mut rotated = data[3..].to_vec();
        rotated.extend_from_slice(&data[..3]);
        let cost_rot = Matrix::from_vec(3, 3, rotated).unwrap();
        let a_rot = min_cost_assignment(&cost_rot).unwrap();
        let total_rot: f64 =
            a_rot.iter().enumerate().map(|(r, &c)| cost_rot[(r, c)]).sum();
        prop_assert!((total - total_rot).abs() < 1e-9);
    }
}
