//! Property tests for the scaling-curve fit.

use hslb_nlsq::{exponent_grid, fit_scaling, ScalingCurve, ScalingFitOptions};
use proptest::prelude::*;

fn arb_curve() -> impl Strategy<Value = ScalingCurve> {
    (
        100.0f64..100_000.0, // a
        0.0f64..0.01,        // b
        1.0f64..1.8,         // c
        0.1f64..100.0,       // d
    )
        .prop_map(|(a, b, c, d)| ScalingCurve { a, b, c, d })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Noiseless synthetic data from an in-bounds curve must be fit with
    /// R² ≈ 1 and accurate predictions at the sampled points.
    #[test]
    fn noiseless_fit_reproduces_observations(truth in arb_curve()) {
        let ns = [8.0, 24.0, 96.0, 384.0, 1024.0, 4096.0];
        let data: Vec<(f64, f64)> = ns.iter().map(|&n| (n, truth.eval(n))).collect();
        let fit = fit_scaling(&data, &ScalingFitOptions::default()).unwrap();
        prop_assert!(fit.r_squared > 0.999, "r2 = {}", fit.r_squared);
        for &(n, y) in &data {
            let p = fit.curve.eval(n);
            prop_assert!((p - y).abs() <= 0.02 * y + 1e-6, "n={n}: {p} vs {y}");
        }
    }

    /// The fit must always respect the positivity and exponent bounds
    /// (Table II line 11 plus the convexity guard).
    #[test]
    fn fitted_parameters_respect_bounds(truth in arb_curve(),
                                        jitter in prop::collection::vec(0.95f64..1.05, 6)) {
        let ns = [16.0, 32.0, 128.0, 512.0, 2048.0, 8192.0];
        let data: Vec<(f64, f64)> = ns
            .iter()
            .zip(&jitter)
            .map(|(&n, &j)| (n, truth.eval(n) * j))
            .collect();
        let fit = fit_scaling(&data, &ScalingFitOptions::default()).unwrap();
        prop_assert!(fit.curve.a >= 0.0);
        prop_assert!(fit.curve.b >= 0.0);
        prop_assert!(fit.curve.d >= 0.0);
        prop_assert!(fit.curve.c >= 1.0 && fit.curve.c <= 3.0);
        prop_assert!(fit.curve.is_convex());
    }

    /// Monotone consequence of convex fits: the curve evaluated on a
    /// decreasing-time dataset never predicts negative times.
    #[test]
    fn predictions_stay_positive(truth in arb_curve(), n in 1.0f64..100_000.0) {
        let ns = [8.0, 64.0, 512.0, 4096.0];
        let data: Vec<(f64, f64)> = ns.iter().map(|&m| (m, truth.eval(m))).collect();
        let fit = fit_scaling(&data, &ScalingFitOptions::default()).unwrap();
        prop_assert!(fit.curve.eval(n) >= 0.0);
    }

    /// Every parameter lies in the fit's box: non-negative `(a, b, d)`
    /// under their data-derived caps, and `c` inside its bounds — also
    /// when the bounds are narrowed or pinned.
    #[test]
    fn parameters_lie_in_the_box(
        truth in arb_curve(),
        jitter in prop::collection::vec(0.9f64..1.1, 6),
        lo in 1.0f64..2.5,
        width in 0.0f64..1.0,
    ) {
        let data = jittered(truth, &jitter);
        let c_bounds = (lo, lo + width);
        let fit = fit_scaling(&data, &ScalingFitOptions { c_bounds }).unwrap();
        let y_max = data.iter().map(|&(_, y)| y).fold(0.0, f64::max);
        let n_max = data.iter().map(|&(n, _)| n).fold(0.0, f64::max);
        let k = fit.curve;
        prop_assert!((0.0..=10.0 * y_max * n_max).contains(&k.a), "a = {}", k.a);
        prop_assert!((0.0..=y_max).contains(&k.b), "b = {}", k.b);
        prop_assert!((0.0..=y_max).contains(&k.d), "d = {}", k.d);
        prop_assert!(k.c >= c_bounds.0 && k.c <= c_bounds.1, "c = {}", k.c);
    }

    /// The fit is a pure function of its data: a repeated fit returns
    /// the same bits.
    #[test]
    fn fit_is_deterministic(truth in arb_curve(), jitter in prop::collection::vec(0.9f64..1.1, 6)) {
        let data = jittered(truth, &jitter);
        let first = fit_scaling(&data, &ScalingFitOptions::default()).unwrap();
        let again = fit_scaling(&data, &ScalingFitOptions::default()).unwrap();
        let bits = |k: ScalingCurve| [k.a, k.b, k.c, k.d].map(f64::to_bits);
        prop_assert_eq!(bits(first.curve), bits(again.curve));
        prop_assert_eq!(first.sse.to_bits(), again.sse.to_bits());
        prop_assert_eq!(first.lm_iterations, again.lm_iterations);
        prop_assert_eq!(first.starts_run, 1);
    }

    /// The outer search never ends above a point it evaluated: the fit's
    /// SSE is at most the projected SSE at every grid exponent (the fit
    /// with `c` pinned there).
    #[test]
    fn sse_is_at_most_the_projected_sse_at_every_grid_exponent(
        truth in arb_curve(),
        jitter in prop::collection::vec(0.9f64..1.1, 6),
    ) {
        let data = jittered(truth, &jitter);
        let opts = ScalingFitOptions::default();
        let fit = fit_scaling(&data, &opts).unwrap();
        for c in exponent_grid(opts.c_bounds) {
            let pinned = fit_scaling(&data, &ScalingFitOptions { c_bounds: (c, c) }).unwrap();
            prop_assert_eq!(pinned.curve.c, c);
            prop_assert!(fit.sse <= pinned.sse, "c = {}: {} > {}", c, fit.sse, pinned.sse);
        }
    }
}

fn jittered(truth: ScalingCurve, jitter: &[f64]) -> Vec<(f64, f64)> {
    [8.0, 24.0, 96.0, 384.0, 1024.0, 4096.0]
        .iter()
        .zip(jitter)
        .map(|(&n, &j)| (n, truth.eval(n) * j))
        .collect()
}
