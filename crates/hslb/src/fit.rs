//! Step 2: fit every component's performance curve.

use crate::data::BenchmarkData;
use crate::error::HslbError;
use hslb_cesm::{Allocation, Component, Layout};
use hslb_nlsq::{fit_scaling, ScalingCurve, ScalingFit, ScalingFitOptions};
use std::collections::BTreeMap;

/// The fitted curves for the four optimized components, plus fit-quality
/// diagnostics.
#[derive(Debug, Clone)]
pub struct FitSet {
    fits: BTreeMap<Component, ScalingFit>,
}

impl FitSet {
    /// The curve for a component, or [`HslbError::MissingFit`] if that
    /// component was never fitted (the coupler, say — only the four
    /// optimized components carry curves).
    pub fn curve(&self, c: Component) -> Result<ScalingCurve, HslbError> {
        self.fits
            .get(&c)
            .map(|f| f.curve)
            .ok_or(HslbError::MissingFit { component: c })
    }

    /// Full fit diagnostics for a component, or
    /// [`HslbError::MissingFit`] if it was never fitted.
    pub fn fit(&self, c: Component) -> Result<&ScalingFit, HslbError> {
        self.fits
            .get(&c)
            .ok_or(HslbError::MissingFit { component: c })
    }

    /// The curve for one of the four *optimized* components, which
    /// construction ([`fit_all`]/[`FitSet::from_curves`]) guarantees are
    /// present. For arbitrary components use the checked [`FitSet::curve`].
    #[allow(clippy::expect_used)] // construction invariant, see doc
    pub fn optimized_curve(&self, c: Component) -> ScalingCurve {
        self.fits
            .get(&c)
            .map(|f| f.curve)
            .expect("construction guarantees the four optimized components")
    }

    /// Fit diagnostics for one of the four optimized components (see
    /// [`FitSet::optimized_curve`] for the contract).
    #[allow(clippy::expect_used)] // construction invariant, see doc
    pub fn optimized_fit(&self, c: Component) -> &ScalingFit {
        self.fits
            .get(&c)
            .expect("construction guarantees the four optimized components")
    }

    /// Predicted time of component `c` on `n` nodes.
    pub fn predict(&self, c: Component, n: i64) -> f64 {
        self.optimized_curve(c).eval(n as f64)
    }

    /// Predicted coupled total of an allocation under `layout` — the
    /// layout composition rules of §III-D (concurrent groups take the
    /// max, sequential groups the sum). Shared by post-solve tuning and
    /// the objective ablations so the composition logic lives once.
    pub fn predicted_total(&self, layout: Layout, a: &Allocation) -> f64 {
        let (ice, lnd) = (
            self.predict(Component::Ice, a.ice),
            self.predict(Component::Lnd, a.lnd),
        );
        let (atm, ocn) = (
            self.predict(Component::Atm, a.atm),
            self.predict(Component::Ocn, a.ocn),
        );
        match layout {
            Layout::Hybrid => (ice.max(lnd) + atm).max(ocn),
            Layout::SequentialWithOcean => (ice + lnd + atm).max(ocn),
            Layout::FullySequential => ice + lnd + atm + ocn,
        }
    }

    /// Worst R² across *measured* components — the paper's headline
    /// fit-quality check ("R² was very close to 1 for each component").
    ///
    /// Synthetic fits (see [`FitSet::from_curves`]) carry no data and are
    /// excluded; `None` means every fit in the set is synthetic, so there
    /// is no measured quality to report. (The old signature returned
    /// `f64::INFINITY` in that case, which sailed straight through
    /// `min_r_squared() > threshold` accuracy gates.)
    pub fn min_r_squared(&self) -> Option<f64> {
        self.fits
            .values()
            .filter(|f| !f.synthetic && f.r_squared.is_finite())
            .map(|f| f.r_squared)
            .fold(None, |acc, r| Some(acc.map_or(r, |m: f64| m.min(r))))
    }

    /// Are any of the fits synthetic (injected curves, no backing data)?
    pub fn has_synthetic(&self) -> bool {
        self.fits.values().any(|f| f.synthetic)
    }

    /// Iterate `(component, fit)` pairs in component order.
    pub fn iter(&self) -> impl Iterator<Item = (Component, &ScalingFit)> {
        self.fits.iter().map(|(&c, f)| (c, f))
    }

    /// Build a fit set directly from known curves (e.g. for what-if
    /// studies over hypothetical hardware).
    ///
    /// All four optimized components must be present — `curve`/`fit`
    /// index by component, so a partial map would panic deep inside the
    /// solve step; reject it here with [`HslbError::IncompleteFitSet`].
    /// The entries are stamped as synthetic (`r_squared = NAN`,
    /// `points = 0`) so downstream accuracy gates can tell them apart
    /// from measured fits.
    pub fn from_curves(curves: BTreeMap<Component, ScalingCurve>) -> Result<Self, HslbError> {
        let missing: Vec<Component> = Component::OPTIMIZED
            .iter()
            .copied()
            .filter(|c| !curves.contains_key(c))
            .collect();
        if !missing.is_empty() {
            return Err(HslbError::IncompleteFitSet { missing });
        }
        let fits = curves
            .into_iter()
            .map(|(c, curve)| (c, ScalingFit::synthetic(curve)))
            .collect();
        Ok(FitSet { fits })
    }

    /// Rebuild a fit set from complete [`ScalingFit`] records —
    /// diagnostics and all. This is the restore path for persisted fits
    /// (the tuning service's crash-safe cache snapshot): unlike
    /// [`FitSet::from_curves`], which stamps entries synthetic with
    /// `r_squared = NAN`, round-tripping measured fits through
    /// `from_fits` preserves `min_r_squared` and every other diagnostic,
    /// so a solve replayed from a restored set stays bit-identical to one
    /// replayed from the live set. The same completeness check applies:
    /// all four optimized components must be present.
    pub fn from_fits(fits: BTreeMap<Component, ScalingFit>) -> Result<Self, HslbError> {
        let missing: Vec<Component> = Component::OPTIMIZED
            .iter()
            .copied()
            .filter(|c| !fits.contains_key(c))
            .collect();
        if !missing.is_empty() {
            return Err(HslbError::IncompleteFitSet { missing });
        }
        Ok(FitSet { fits })
    }
}

/// Fit all four optimized components from benchmark data (Table II's four
/// least-squares problems).
pub fn fit_all(data: &BenchmarkData, opts: &ScalingFitOptions) -> Result<FitSet, HslbError> {
    let mut fits = BTreeMap::new();
    for &c in &Component::OPTIMIZED {
        let fit = fit_scaling(data.of(c), opts).map_err(|source| HslbError::Fit {
            component: c,
            source,
        })?;
        fits.insert(c, fit);
    }
    Ok(FitSet { fits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb_cesm::{Component, Simulator};

    fn gather(sim: &Simulator, counts: &[i64]) -> BenchmarkData {
        BenchmarkData::from_points(&sim.benchmark_all(counts))
    }

    #[test]
    fn fits_simulated_one_degree_data_with_high_r2() {
        let sim = Simulator::one_degree(5);
        let data = gather(&sim, &[16, 64, 256, 1024, 2048]);
        let fits = fit_all(&data, &ScalingFitOptions::default()).unwrap();
        // All components fit well; ice is the weakest but still decent.
        let min_r2 = fits.min_r_squared().expect("measured fits");
        assert!(min_r2 > 0.95, "min R² = {min_r2}");
        assert!(fits.fit(Component::Atm).unwrap().r_squared > 0.99);
        assert!(!fits.has_synthetic());
    }

    #[test]
    fn predictions_interpolate_the_truth() {
        let sim = Simulator::one_degree(6);
        let data = gather(&sim, &[16, 48, 128, 512, 2048]);
        let fits = fit_all(&data, &ScalingFitOptions::default()).unwrap();
        for &c in &Component::OPTIMIZED {
            for n in [32i64, 200, 1000] {
                let pred = fits.predict(c, n);
                let truth = sim.truth(c, n);
                assert!(
                    (pred - truth).abs() / truth < 0.15,
                    "{c}@{n}: pred {pred} vs truth {truth}"
                );
            }
        }
    }

    #[test]
    fn missing_component_data_is_a_fit_error() {
        let mut data = BenchmarkData::new();
        data.push(Component::Atm, 104.0, 306.9);
        data.push(Component::Atm, 1664.0, 62.0);
        let err = fit_all(&data, &ScalingFitOptions::default());
        assert!(matches!(err, Err(HslbError::Fit { .. })));
    }

    fn flat_curves() -> BTreeMap<Component, ScalingCurve> {
        Component::OPTIMIZED
            .iter()
            .map(|&c| {
                (
                    c,
                    ScalingCurve {
                        a: 100.0,
                        b: 0.0,
                        c: 1.0,
                        d: 1.0,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn from_curves_builds_synthetic_set() {
        let fits = FitSet::from_curves(flat_curves()).unwrap();
        assert_eq!(fits.predict(Component::Atm, 100), 2.0);
        // Regression: synthetic fits used to be stamped with fake-perfect
        // diagnostics (R² = 1.0, points = 0) that accuracy gates could not
        // distinguish from real fits. They must now be flagged and carry
        // no measured quality.
        assert!(fits.has_synthetic());
        assert_eq!(fits.min_r_squared(), None);
        let atm = fits.fit(Component::Atm).unwrap();
        assert!(atm.synthetic);
        assert!(atm.r_squared.is_nan());
        assert_eq!(atm.points, 0);
    }

    #[test]
    fn from_curves_rejects_partial_maps() {
        // Regression: a map missing a component used to construct fine and
        // then panic on the BTreeMap index inside `curve`/`fit` during the
        // solve step. Construction must fail instead.
        let mut curves = flat_curves();
        curves.remove(&Component::Ocn);
        curves.remove(&Component::Ice);
        match FitSet::from_curves(curves) {
            Err(HslbError::IncompleteFitSet { missing }) => {
                // Reported in Component::OPTIMIZED order.
                assert_eq!(missing, vec![Component::Ice, Component::Ocn]);
            }
            other => panic!("expected IncompleteFitSet, got {other:?}"),
        }
    }

    #[test]
    fn unfitted_component_is_an_error_not_a_panic() {
        // Regression: `curve`/`fit` used to index the BTreeMap directly,
        // so asking about the coupler (never optimized, never fitted)
        // panicked deep inside what-if studies. It must be a typed error.
        let fits = FitSet::from_curves(flat_curves()).unwrap();
        match fits.curve(Component::Cpl) {
            Err(HslbError::MissingFit { component }) => assert_eq!(component, Component::Cpl),
            other => panic!("expected MissingFit, got {other:?}"),
        }
        assert!(matches!(
            fits.fit(Component::Cpl),
            Err(HslbError::MissingFit { .. })
        ));
        // The optimized components remain available through both paths.
        assert!(fits.curve(Component::Atm).is_ok());
        assert_eq!(
            fits.optimized_curve(Component::Atm),
            fits.curve(Component::Atm).unwrap()
        );
    }

    #[test]
    fn predicted_total_matches_manual_composition() {
        use hslb_cesm::{Allocation, Layout};
        let fits = FitSet::from_curves(flat_curves()).unwrap();
        let a = Allocation {
            lnd: 10,
            ice: 20,
            atm: 30,
            ocn: 40,
        };
        let (ti, tl) = (
            fits.predict(Component::Ice, 20),
            fits.predict(Component::Lnd, 10),
        );
        let (ta, to) = (
            fits.predict(Component::Atm, 30),
            fits.predict(Component::Ocn, 40),
        );
        assert_eq!(
            fits.predicted_total(Layout::Hybrid, &a),
            (ti.max(tl) + ta).max(to)
        );
        assert_eq!(
            fits.predicted_total(Layout::SequentialWithOcean, &a),
            (ti + tl + ta).max(to)
        );
        assert_eq!(
            fits.predicted_total(Layout::FullySequential, &a),
            ti + tl + ta + to
        );
    }

    #[test]
    fn min_r_squared_is_none_when_nothing_is_measured() {
        // Regression: the empty/synthetic case used to fold to
        // f64::INFINITY, which passes any `> threshold` accuracy gate.
        let fits = FitSet::from_curves(flat_curves()).unwrap();
        assert_eq!(fits.min_r_squared(), None);
    }
}
