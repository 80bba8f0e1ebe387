//! Ground-truth calibration from the paper's published timings.
//!
//! Table III of the paper reports, for six experiments, per-component node
//! allocations together with measured wall-clock times. Each `(component,
//! nodes, seconds)` pair is an *actual Intrepid measurement*, so fitting
//! the paper's own performance model through them yields ground-truth
//! curves that interpolate the machine the authors used. The simulator
//! then exposes exactly the observable HSLB needs — component time at a
//! node count — with the real curve shapes.
//!
//! The embedded observations (all from Table III; "manual" and "actual"
//! columns are measurements, "predicted" columns are not used):
//!
//! * 1° resolution: 128- and 2048-node experiments (manual + HSLB actual);
//! * 1/8° resolution: 8192- and 32768-node experiments, constrained and
//!   unconstrained ocean (manual + HSLB actual).
//!
//! The curves are frozen as exact `f64` bit patterns ([`ground_truth`]):
//! every simulated timing in the workspace descends from them, so they
//! must not move when the fitter changes. They are the fits a 32-start
//! multistart Levenberg–Marquardt solver produced from these
//! observations; the exact variable-projection fit that replaced it
//! reaches an SSE no higher on every component (asserted below).

use crate::component::Component;
use crate::grid::Resolution;
use hslb_nlsq::ScalingCurve;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Paper observations for the 1° resolution: `(nodes, seconds)`.
pub fn one_degree_observations(c: Component) -> &'static [(f64, f64)] {
    match c {
        // Table III, 1° entries: manual@128, HSLB-actual@128,
        // manual@2048, HSLB-actual@2048.
        Component::Lnd => &[
            (24.0, 63.766),
            (15.0, 100.202),
            (384.0, 5.777),
            (71.0, 23.158),
        ],
        Component::Ice => &[
            (80.0, 109.054),
            (89.0, 116.472),
            (1280.0, 17.912),
            (1454.0, 18.242),
        ],
        Component::Atm => &[
            (104.0, 306.952),
            (104.0, 308.699),
            (1664.0, 61.987),
            (1525.0, 63.313),
        ],
        Component::Ocn => &[
            (24.0, 362.669),
            (24.0, 365.853),
            (384.0, 61.987),
            (256.0, 79.139),
        ],
        _ => &[],
    }
}

/// Paper observations for the 1/8° resolution: `(nodes, seconds)`.
pub fn eighth_degree_observations(c: Component) -> &'static [(f64, f64)] {
    match c {
        // Table III, 1/8° entries: manual@8192, HSLB-actual@8192,
        // manual@32768, HSLB-actual@32768, then the two unconstrained-
        // ocean actual runs at 8192 and 32768.
        Component::Lnd => &[
            (486.0, 147.397),
            (138.0, 457.052),
            (2220.0, 44.225),
            (302.0, 223.284),
            (146.0, 417.162),
            (272.0, 238.46),
        ],
        Component::Ice => &[
            (5350.0, 475.614),
            (4918.0, 499.691),
            (24424.0, 214.203),
            (13006.0, 311.195),
            (5287.0, 475.249),
            (20616.0, 231.631),
        ],
        Component::Atm => &[
            (5836.0, 2533.76),
            (5056.0, 2989.115),
            (26644.0, 787.478),
            (13308.0, 1301.136),
            (5433.0, 2702.651),
            (20888.0, 956.558),
        ],
        Component::Ocn => &[
            (2356.0, 3785.333),
            (3136.0, 2898.102),
            (6124.0, 1645.009),
            (19460.0, 700.373),
            (2759.0, 3496.331),
            (11880.0, 1255.593),
        ],
        _ => &[],
    }
}

/// Observations for a resolution and component.
pub fn observations(r: Resolution, c: Component) -> &'static [(f64, f64)] {
    match r {
        Resolution::OneDegree => one_degree_observations(c),
        Resolution::EighthDegree => eighth_degree_observations(c),
    }
}

/// Frozen 1° ground truth: `f64` bits of `[a, b, c, d]` per component.
const ONE_DEGREE_TRUTH: [(Component, [u64; 4]); 4] = [
    (
        Component::Lnd,
        [
            0x4097_009b_e41c_8265,
            0x0000_0000_0000_0000,
            0x3ff0_0000_0000_0000,
            0x4001_bf8d_a2b5_ec34,
        ],
    ),
    (
        Component::Ice,
        [
            0x40c0_6b8f_581c_f715,
            0x0000_0000_0000_0000,
            0x3ff0_0000_0000_0000,
            0x4028_ee01_c902_e5f0,
        ],
    ),
    (
        Component::Atm,
        [
            0x40da_e828_5c82_796d,
            0x3f5a_d5ca_562f_43d4,
            0x3ff0_0000_0000_0000,
            0x4045_5cfb_88ca_2153,
        ],
    ),
    (
        Component::Ocn,
        [
            0x40bd_def0_016a_9749,
            0x0000_0000_0000_0000,
            0x3ff0_0000_0000_0000,
            0x4046_d7d4_bc13_2077,
        ],
    ),
];

/// Frozen 1/8° ground truth: `f64` bits of `[a, b, c, d]` per component.
const EIGHTH_DEGREE_TRUTH: [(Component, [u64; 4]); 4] = [
    (
        Component::Lnd,
        [
            0x40ec_d090_b737_4fed,
            0x0000_0000_0000_0000,
            0x3ff0_0000_0000_0000,
            0x4036_a80d_7537_8749,
        ],
    ),
    (
        Component::Ice,
        [
            0x4139_ecc8_8018_1ccc,
            0x0000_0000_0000_0000,
            0x3ff0_0000_0000_0000,
            0x4063_9efd_2d85_ebf1,
        ],
    ),
    (
        Component::Atm,
        [
            0x4169_85c1_25fb_069d,
            0x3f51_ab16_cc31_9aea,
            0x3ff0_0000_0000_0000,
            0x4071_0d21_f9f8_2296,
        ],
    ),
    (
        Component::Ocn,
        [
            0x415e_fda2_5f4c_b105,
            0x0000_0000_0000_0000,
            0x3ff0_0000_0000_0000,
            0x4078_baf8_9223_7392,
        ],
    ),
];

fn curves(bits: &[(Component, [u64; 4]); 4]) -> BTreeMap<Component, ScalingCurve> {
    bits.iter()
        .map(|&(c, [a, b, e, d])| {
            let curve = ScalingCurve {
                a: f64::from_bits(a),
                b: f64::from_bits(b),
                c: f64::from_bits(e),
                d: f64::from_bits(d),
            };
            (c, curve)
        })
        .collect()
}

/// Ground-truth curves for a resolution, shared by every simulator in
/// the process.
pub fn ground_truth(r: Resolution) -> &'static BTreeMap<Component, ScalingCurve> {
    static ONE: OnceLock<BTreeMap<Component, ScalingCurve>> = OnceLock::new();
    static EIGHTH: OnceLock<BTreeMap<Component, ScalingCurve>> = OnceLock::new();
    match r {
        Resolution::OneDegree => ONE.get_or_init(|| curves(&ONE_DEGREE_TRUTH)),
        Resolution::EighthDegree => EIGHTH.get_or_init(|| curves(&EIGHTH_DEGREE_TRUTH)),
    }
}

/// The coupler/river overhead fraction applied to simulated total times.
/// §II: "the coupler and the river models take less time to run compared
/// to the other components, so these components were not included in our
/// HSLB models"; §III-C: "the HSLB reported time for the whole run may
/// differ slightly from the one found in the CESM output files, although
/// usually the difference between the two results is small".
pub const COUPLER_OVERHEAD_FRAC: f64 = 0.0;

/// One experiment row of the paper's Table III, kept verbatim so reports
/// and tests can compare the reproduction against the publication.
#[derive(Debug, Clone)]
pub struct PaperExperiment {
    pub resolution: Resolution,
    /// Target total node count N.
    pub target_nodes: i64,
    /// Whether the hard-coded ocean set constrained the solve.
    pub ocean_constrained: bool,
    /// Manual ("human") allocation `[lnd, ice, atm, ocn]`, if the paper
    /// reports one for this experiment.
    pub manual_alloc: Option<[i64; 4]>,
    /// Manual total time in seconds.
    pub manual_total: Option<f64>,
    /// HSLB allocation `[lnd, ice, atm, ocn]` (the *predicted* column; for
    /// the unconstrained-32768 run the tuned "actual" allocation differs
    /// and is given separately).
    pub hslb_alloc: [i64; 4],
    /// HSLB predicted total time.
    pub hslb_predicted_total: f64,
    /// HSLB actual (measured) total time.
    pub hslb_actual_total: f64,
    /// The tuned allocation actually run, when it differs from
    /// `hslb_alloc` (sweet-spot adjusted; last Table III entry).
    pub tuned_alloc: Option<[i64; 4]>,
}

/// All six Table III experiments, in publication order.
pub fn paper_table3() -> Vec<PaperExperiment> {
    use Resolution::*;
    vec![
        PaperExperiment {
            resolution: OneDegree,
            target_nodes: 128,
            ocean_constrained: true,
            manual_alloc: Some([24, 80, 104, 24]),
            manual_total: Some(416.006),
            hslb_alloc: [15, 89, 104, 24],
            hslb_predicted_total: 410.623,
            hslb_actual_total: 425.171,
            tuned_alloc: None,
        },
        PaperExperiment {
            resolution: OneDegree,
            target_nodes: 2048,
            ocean_constrained: true,
            manual_alloc: Some([384, 1280, 1664, 384]),
            manual_total: Some(79.899),
            hslb_alloc: [71, 1454, 1525, 256],
            hslb_predicted_total: 84.484,
            hslb_actual_total: 86.471,
            tuned_alloc: None,
        },
        PaperExperiment {
            resolution: EighthDegree,
            target_nodes: 8192,
            ocean_constrained: true,
            manual_alloc: Some([486, 5350, 5836, 2356]),
            manual_total: Some(3785.333),
            hslb_alloc: [138, 4918, 5056, 3136],
            hslb_predicted_total: 3390.394,
            hslb_actual_total: 3488.806,
            tuned_alloc: None,
        },
        PaperExperiment {
            resolution: EighthDegree,
            target_nodes: 32_768,
            ocean_constrained: true,
            manual_alloc: Some([2220, 24_424, 26_644, 6124]),
            manual_total: Some(1645.009),
            hslb_alloc: [302, 13_006, 13_308, 19_460],
            hslb_predicted_total: 1592.649,
            hslb_actual_total: 1612.331,
            tuned_alloc: None,
        },
        PaperExperiment {
            resolution: EighthDegree,
            target_nodes: 8192,
            ocean_constrained: false,
            manual_alloc: None,
            manual_total: None,
            hslb_alloc: [137, 5238, 5375, 2817],
            hslb_predicted_total: 3217.837,
            hslb_actual_total: 3496.331,
            tuned_alloc: Some([146, 5287, 5433, 2759]),
        },
        PaperExperiment {
            resolution: EighthDegree,
            target_nodes: 32_768,
            ocean_constrained: false,
            manual_alloc: None,
            manual_total: None,
            hslb_alloc: [299, 22_657, 22_956, 9812],
            hslb_predicted_total: 1129.405,
            hslb_actual_total: 1255.593,
            tuned_alloc: Some([272, 20_616, 20_888, 11_880]),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb_nlsq::{fit_scaling, ScalingFitOptions};
    use hslb_numerics::stats;

    #[test]
    fn ground_truth_interpolates_paper_timings() {
        // R² of the fitted truth against the embedded observations should
        // be near 1 for the smooth components; ice is allowed to be worse
        // (the paper says its curve is noisy).
        for r in [Resolution::OneDegree, Resolution::EighthDegree] {
            let truth = ground_truth(r);
            for &c in &Component::OPTIMIZED {
                let data = observations(r, c);
                let obs: Vec<f64> = data.iter().map(|&(_, y)| y).collect();
                let pred: Vec<f64> = data.iter().map(|&(n, _)| truth[&c].eval(n)).collect();
                let r2 = stats::r_squared(&obs, &pred).unwrap();
                let floor = if c == Component::Ice { 0.90 } else { 0.97 };
                assert!(r2 > floor, "{r:?}/{c}: R² = {r2}");
            }
        }
    }

    #[test]
    fn ground_truth_is_convex_and_positive() {
        for r in [Resolution::OneDegree, Resolution::EighthDegree] {
            for (c, curve) in ground_truth(r) {
                assert!(curve.is_convex(), "{c} curve not convex: {curve:?}");
                for n in [1.0, 10.0, 1000.0, 40_960.0] {
                    assert!(curve.eval(n) > 0.0, "{c} at {n}");
                }
            }
        }
    }

    #[test]
    fn ground_truth_is_cached() {
        let a = ground_truth(Resolution::OneDegree) as *const _;
        let b = ground_truth(Resolution::OneDegree) as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn ground_truth_is_the_frozen_calibration() {
        // Spot-check the literals against the values the calibration
        // has always produced (1° ocean: a ≈ 7646.9, b = 0, c = 1). The
        // full check is bitwise: the gathered-data hashes pinned in
        // `crates/hslb/tests/fixtures/multistart_sse.txt` were taken from
        // the simulator before the freeze, and `sse_dominance` regathers
        // all 130 scenarios against them.
        let ocn = ground_truth(Resolution::OneDegree)[&Component::Ocn];
        assert!((ocn.a - 7646.94).abs() < 0.01, "{ocn:?}");
        assert_eq!((ocn.b, ocn.c), (0.0, 1.0));
        for r in [Resolution::OneDegree, Resolution::EighthDegree] {
            assert_eq!(ground_truth(r).len(), 4);
        }
    }

    #[test]
    fn exact_fit_of_table3_is_no_worse_than_the_frozen_truth() {
        // The frozen curves came from the multistart fitter; the exact
        // fit of the same observations must reach an SSE no higher.
        for r in [Resolution::OneDegree, Resolution::EighthDegree] {
            for (&c, truth) in ground_truth(r) {
                let data = observations(r, c);
                let frozen: f64 = data.iter().map(|&(n, y)| (truth.eval(n) - y).powi(2)).sum();
                let fit = fit_scaling(data, &ScalingFitOptions::default()).unwrap();
                assert!(
                    fit.sse <= frozen * (1.0 + 1e-12),
                    "{r:?}/{c}: exact fit SSE {} above the frozen truth's {frozen}",
                    fit.sse
                );
            }
        }
    }

    #[test]
    fn table3_has_six_experiments_in_order() {
        let t = paper_table3();
        assert_eq!(t.len(), 6);
        assert_eq!(t[0].target_nodes, 128);
        assert_eq!(t[3].target_nodes, 32_768);
        assert!(t[4].manual_alloc.is_none()); // unconstrained entries
        assert!(t[5].tuned_alloc.is_some());
        // Headline numbers: 25 % actual improvement at 32768 unconstrained.
        let constrained = &t[3];
        let unconstrained = &t[5];
        let gain = stats::improvement_pct(
            constrained.hslb_actual_total,
            unconstrained.hslb_actual_total,
        )
        .unwrap();
        assert!(gain > 20.0 && gain < 30.0, "paper's ~25% claim: {gain}");
    }

    #[test]
    fn observations_cover_all_optimized_components() {
        for r in [Resolution::OneDegree, Resolution::EighthDegree] {
            for &c in &Component::OPTIMIZED {
                assert!(
                    observations(r, c).len() >= 4,
                    "{r:?}/{c} needs ≥4 points for the paper's fit recipe"
                );
            }
            assert!(observations(r, Component::Cpl).is_empty());
        }
    }
}
