//! An independent enumeration optimizer over fitted curves.
//!
//! Serves two purposes:
//!
//! * **verification** — on configurations where full enumeration is
//!   tractable (the 1° allowed-set experiments), it provides the exact
//!   optimum against which the branch-and-bound is tested;
//! * **coverage** — it evaluates the nonconvex `max-min` objective
//!   (§III-D equation 2) that the convex MINLP route cannot express.
//!
//! The layout structure factorizes the search: for layout 1, fixing
//! `n_ocn` and `n_atm` reduces the remainder to a one-dimensional ice/land
//! split, which is unimodal (max of a decreasing and an increasing
//! function of the split point) and solved exactly by integer ternary
//! search. The outer dimensions are enumerated exhaustively when the
//! candidate list is small (allowed sets) and by a dense grid-with-
//! refinement otherwise (documented approximation for the unconstrained
//! 1/8° cases — in practice it recovers the optimum because the outer
//! objective is near-unimodal in `n_ocn`).

use crate::fit::FitSet;
use crate::layout_model::NodeFloors;
use crate::objective::Objective;
use hslb_cesm::{Allocation, Component, Layout};
use hslb_numerics::scalar;

/// Exhaustive/DP optimizer over a fitted curve set.
#[derive(Debug, Clone)]
pub struct ExhaustiveOptimizer<'a> {
    pub fits: &'a FitSet,
    pub layout: Layout,
    pub total_nodes: i64,
    /// Allowed ocean counts; `None` = all of `[1, N]` (grid-scanned when
    /// large).
    pub ocean_allowed: Option<Vec<i64>>,
    /// Allowed atmosphere counts; `None` = all of `[1, N]`.
    pub atm_allowed: Option<Vec<i64>>,
    /// Per-component memory floors (§III-C); defaults to 1 node each.
    pub floors: NodeFloors,
}

/// Result of an enumeration solve.
#[derive(Debug, Clone)]
pub struct ExhaustiveResult {
    pub allocation: Allocation,
    /// Objective value achieved (makespan for min-max, the min time for
    /// max-min, the time sum for min-sum).
    pub objective: f64,
    /// Candidate allocations evaluated.
    pub evaluations: usize,
    /// Candidates discarded without scoring (floor/cap/allowed-set
    /// violations) — the enumeration's pruning effectiveness.
    pub pruned: usize,
}

impl<'a> ExhaustiveOptimizer<'a> {
    /// Build for a layout with free ocean/atmosphere counts.
    pub fn new(fits: &'a FitSet, layout: Layout, total_nodes: i64) -> Self {
        ExhaustiveOptimizer {
            fits,
            layout,
            total_nodes,
            ocean_allowed: None,
            atm_allowed: None,
            floors: NodeFloors::default(),
        }
    }

    fn t(&self, c: Component, n: i64) -> f64 {
        self.fits.predict(c, n.max(1))
    }

    /// Best ice/land split of `budget` nodes for min-max style scoring:
    /// minimize `max(T_ice(n_i), T_lnd(n_l))` with `n_i + n_l = budget`.
    /// Exact by ternary search (unimodal in `n_i`).
    fn best_icelnd_split(&self, budget: i64) -> (i64, i64, f64) {
        let (ice_lo, lnd_lo) = (self.floors.ice.max(1), self.floors.lnd.max(1));
        if budget < ice_lo + lnd_lo {
            return (ice_lo, lnd_lo, f64::INFINITY);
        }
        let f = |ni: i64| {
            self.t(Component::Ice, ni)
                .max(self.t(Component::Lnd, budget - ni))
        };
        let (ni, val) = scalar::integer_ternary_min(f, ice_lo, budget - lnd_lo);
        (ni, budget - ni, val)
    }

    /// Score an outer choice `(n_atm, n_ocn)` under min-max; returns the
    /// makespan and the inner split.
    fn score_minmax(&self, n_atm: i64, n_ocn: i64) -> (f64, i64, i64) {
        match self.layout {
            Layout::Hybrid => {
                let (ni, nl, icelnd) = self.best_icelnd_split(n_atm);
                let total =
                    (icelnd + self.t(Component::Atm, n_atm)).max(self.t(Component::Ocn, n_ocn));
                (total, ni, nl)
            }
            Layout::SequentialWithOcean => {
                // ice/lnd/atm share the non-ocean nodes; each may use up to
                // the full remainder, and more nodes are never worse on
                // convex decreasing-then-flat curves *except* for the b·n^c
                // term — optimize each independently over [1, n_atm].
                let cap = n_atm; // caller passes cap = N − n_ocn here
                let ni = self
                    .fits
                    .optimized_curve(Component::Ice)
                    .argmin_nodes(self.floors.ice, cap);
                let nl = self
                    .fits
                    .optimized_curve(Component::Lnd)
                    .argmin_nodes(self.floors.lnd, cap);
                let na = self
                    .fits
                    .optimized_curve(Component::Atm)
                    .argmin_nodes(self.floors.atm, cap);
                let seq = self.t(Component::Ice, ni)
                    + self.t(Component::Lnd, nl)
                    + self.t(Component::Atm, na);
                (seq.max(self.t(Component::Ocn, n_ocn)), ni, nl)
            }
            Layout::FullySequential => {
                let cap = self.total_nodes;
                let ni = self
                    .fits
                    .optimized_curve(Component::Ice)
                    .argmin_nodes(self.floors.ice, cap);
                let nl = self
                    .fits
                    .optimized_curve(Component::Lnd)
                    .argmin_nodes(self.floors.lnd, cap);
                let na = self
                    .fits
                    .optimized_curve(Component::Atm)
                    .argmin_nodes(self.floors.atm, cap);
                let no = self
                    .fits
                    .optimized_curve(Component::Ocn)
                    .argmin_nodes(self.floors.ocn, cap);
                let total = self.t(Component::Ice, ni)
                    + self.t(Component::Lnd, nl)
                    + self.t(Component::Atm, na)
                    + self.t(Component::Ocn, no);
                let _ = (n_atm, n_ocn);
                (total, ni, nl)
            }
        }
    }

    /// Candidate outer values for a dimension: the allowed list when one
    /// exists (trimmed to the cap), otherwise a dense 1..=cap range when
    /// small, otherwise `None` (grid search is used instead).
    fn candidates(allowed: &Option<Vec<i64>>, lo: i64, cap: i64) -> Option<Vec<i64>> {
        let lo = lo.max(1);
        match allowed {
            Some(list) => Some(
                list.iter()
                    .copied()
                    .filter(|&v| v >= lo && v <= cap)
                    .collect(),
            ),
            // An empty list (cap < lo) is a real answer: no candidates.
            None if cap <= 4096 => Some((lo..=cap).collect()),
            None => None,
        }
    }

    /// `lo..=hi` thinned to every `step`-th value, but always containing
    /// both endpoints. A plain `step_by` can step over `hi` whenever
    /// `(hi − lo) % step ≠ 0`, silently excluding the cap — on monotone
    /// curves often the true optimum — from enumeration.
    fn strided_inclusive(lo: i64, hi: i64, step: i64) -> Vec<i64> {
        if hi < lo {
            return Vec::new();
        }
        let mut out: Vec<i64> = (lo..=hi).step_by(step.max(1) as usize).collect();
        if out.last() != Some(&hi) {
            out.push(hi);
        }
        out
    }

    /// Solve under the given objective.
    ///
    /// Panics when the candidate space is empty; fault-tolerant callers
    /// should use [`Self::try_solve`].
    #[allow(clippy::expect_used)] // panicking wrapper, documented above
    pub fn solve(&self, objective: Objective) -> ExhaustiveResult {
        self.try_solve(objective)
            .expect("no feasible candidate allocation (use try_solve on the fault path)")
    }

    /// Fallible solve: `None` when no candidate allocation exists — the
    /// target machine is smaller than the memory floors, an allowed set
    /// filters down to nothing, or every candidate scores infinite.
    pub fn try_solve(&self, objective: Objective) -> Option<ExhaustiveResult> {
        match objective {
            Objective::MinMax => self.solve_minmax(),
            Objective::SumTime => self.solve_sum(),
            Objective::MaxMin => self.solve_maxmin(),
        }
        .filter(|r| r.objective.is_finite())
    }

    fn solve_minmax(&self) -> Option<ExhaustiveResult> {
        let n = self.total_nodes;
        let mut evals = 0usize;
        let mut pruned = 0usize;
        let mut best: Option<(f64, Allocation)> = None;

        // Layout 3 needs no outer enumeration at all.
        if self.layout == Layout::FullySequential {
            let (total, ni, nl) = self.score_minmax(0, 0);
            let na = self
                .fits
                .optimized_curve(Component::Atm)
                .argmin_nodes(self.floors.atm, n);
            let no = self
                .fits
                .optimized_curve(Component::Ocn)
                .argmin_nodes(self.floors.ocn, n);
            return Some(ExhaustiveResult {
                allocation: Allocation {
                    lnd: nl,
                    ice: ni,
                    atm: na,
                    ocn: no,
                },
                objective: total,
                evaluations: 1,
                pruned: 0,
            });
        }

        let min_atm_side = (self.floors.ice + self.floors.lnd)
            .max(self.floors.atm)
            .max(2);
        let ocn_cap = n - min_atm_side; // leave room for the atm side
        let ocn_candidates = Self::candidates(&self.ocean_allowed, self.floors.ocn, ocn_cap);

        let mut consider_ocn = |n_ocn: i64, evals: &mut usize, pruned: &mut usize| -> f64 {
            let atm_budget = n - n_ocn;
            let inner_best = match self.layout {
                Layout::Hybrid => {
                    // Optimize n_atm ∈ allowed ∩ [floor, atm_budget].
                    match Self::candidates(&self.atm_allowed, min_atm_side, atm_budget) {
                        Some(cands) => {
                            let mut loc: Option<(f64, i64)> = None;
                            for &na in &cands {
                                if na < min_atm_side {
                                    *pruned += 1;
                                    continue;
                                }
                                *evals += 1;
                                let (total, _, _) = self.score_minmax(na, n_ocn);
                                if loc.is_none_or(|(b, _)| total < b) {
                                    loc = Some((total, na));
                                }
                            }
                            loc
                        }
                        None => {
                            // Free atmosphere: the inner objective (best
                            // ice/land split + T_atm) is near-unimodal in
                            // n_atm; ternary search finds its basin in
                            // O(log) evaluations.
                            let f = |na: i64| self.score_minmax(na, n_ocn).0;
                            let (na, total) = scalar::integer_ternary_min(
                                f,
                                min_atm_side.min(atm_budget),
                                atm_budget,
                            );
                            *evals += 2 * (64 - atm_budget.leading_zeros() as usize);
                            Some((total, na))
                        }
                    }
                }
                Layout::SequentialWithOcean => {
                    *evals += 1;
                    let (total, _, _) = self.score_minmax(atm_budget, n_ocn);
                    Some((total, atm_budget))
                }
                Layout::FullySequential => unreachable!(),
            };
            let Some((total, na)) = inner_best else {
                *pruned += 1;
                return f64::INFINITY;
            };
            let (_, ni, nl) = self.score_minmax(na, n_ocn);
            let alloc = match self.layout {
                Layout::Hybrid => Allocation {
                    lnd: nl,
                    ice: ni,
                    atm: na,
                    ocn: n_ocn,
                },
                Layout::SequentialWithOcean => {
                    let cap = atm_budget;
                    Allocation {
                        lnd: self
                            .fits
                            .optimized_curve(Component::Lnd)
                            .argmin_nodes(self.floors.lnd, cap),
                        ice: self
                            .fits
                            .optimized_curve(Component::Ice)
                            .argmin_nodes(self.floors.ice, cap),
                        atm: self
                            .fits
                            .optimized_curve(Component::Atm)
                            .argmin_nodes(self.floors.atm, cap),
                        ocn: n_ocn,
                    }
                }
                Layout::FullySequential => unreachable!(),
            };
            if best.as_ref().is_none_or(|(b, _)| total < *b) {
                best = Some((total, alloc));
            }
            total
        };

        match ocn_candidates {
            Some(cands) => {
                for &no in &cands {
                    consider_ocn(no, &mut evals, &mut pruned);
                }
            }
            None => {
                // Grid-with-refinement over the big unconstrained range.
                let f = |no: i64| consider_ocn(no, &mut evals, &mut pruned);
                let _ = scalar::integer_grid_min(f, 1, ocn_cap, 256);
            }
        }

        let (objective, allocation) = best?;
        Some(ExhaustiveResult {
            allocation,
            objective,
            evaluations: evals,
            pruned,
        })
    }

    fn solve_sum(&self) -> Option<ExhaustiveResult> {
        // Equation (3): each component independently picks its curve's
        // minimizer subject to the layout's node caps — the sum decouples
        // given the outer ocn choice.
        let n = self.total_nodes;
        let mut best: Option<(f64, Allocation)> = None;
        let mut evals = 0usize;
        let ocn_cap = match self.layout {
            Layout::FullySequential => n,
            _ => n - 2,
        };
        let cands =
            Self::candidates(&self.ocean_allowed, self.floors.ocn, ocn_cap).unwrap_or_else(|| {
                Self::strided_inclusive(self.floors.ocn.max(1), ocn_cap, (n / 2048).max(1))
            });
        let mut pruned = 0usize;
        for &no in &cands {
            let cap = match self.layout {
                Layout::Hybrid | Layout::SequentialWithOcean => n - no,
                Layout::FullySequential => n,
            };
            if cap < 3 {
                pruned += 1;
                continue;
            }
            let na = match &self.atm_allowed {
                Some(list) => list
                    .iter()
                    .copied()
                    .filter(|&v| v <= cap && v >= self.floors.atm)
                    .min_by(|&x, &y| {
                        hslb_numerics::float::cmp_f64(
                            self.t(Component::Atm, x),
                            self.t(Component::Atm, y),
                        )
                    })
                    .unwrap_or(self.floors.atm.max(1)),
                None => self
                    .fits
                    .optimized_curve(Component::Atm)
                    .argmin_nodes(self.floors.atm, cap),
            };
            let inner_cap = match self.layout {
                Layout::Hybrid => na,
                _ => cap,
            };
            if inner_cap < 2 {
                pruned += 1;
                continue;
            }
            // In layout 1, ice+lnd ≤ n_atm couples them; minimize the sum
            // over the split (unimodal).
            let (ni, nl) = match self.layout {
                Layout::Hybrid => {
                    let (ice_lo, lnd_lo) = (self.floors.ice.max(1), self.floors.lnd.max(1));
                    if inner_cap < ice_lo + lnd_lo {
                        pruned += 1;
                        continue;
                    }
                    let f =
                        |k: i64| self.t(Component::Ice, k) + self.t(Component::Lnd, inner_cap - k);
                    let (k, _) = scalar::integer_ternary_min(f, ice_lo, inner_cap - lnd_lo);
                    (k, inner_cap - k)
                }
                _ => (
                    self.fits
                        .optimized_curve(Component::Ice)
                        .argmin_nodes(self.floors.ice, inner_cap),
                    self.fits
                        .optimized_curve(Component::Lnd)
                        .argmin_nodes(self.floors.lnd, inner_cap),
                ),
            };
            evals += 1;
            let total = self.t(Component::Ice, ni)
                + self.t(Component::Lnd, nl)
                + self.t(Component::Atm, na)
                + self.t(Component::Ocn, no);
            if best.as_ref().is_none_or(|(b, _)| total < *b) {
                best = Some((
                    total,
                    Allocation {
                        lnd: nl,
                        ice: ni,
                        atm: na,
                        ocn: no,
                    },
                ));
            }
        }
        let (objective, allocation) = best?;
        Some(ExhaustiveResult {
            allocation,
            objective,
            evaluations: evals,
            pruned,
        })
    }

    fn solve_maxmin(&self) -> Option<ExhaustiveResult> {
        // Equation (2): maximize min_j T_j(n_j) under a *use-all-nodes*
        // budget (without it the trivial answer is one node each). The
        // search mirrors min-max but scores with the minimum.
        let n = self.total_nodes;
        let mut best: Option<(f64, Allocation)> = None;
        let mut evals = 0usize;
        let mut pruned = 0usize;
        let cands =
            Self::candidates(&self.ocean_allowed, self.floors.ocn, n - 3).unwrap_or_else(|| {
                Self::strided_inclusive(self.floors.ocn.max(1), n - 3, (n / 2048).max(1))
            });
        for &no in &cands {
            let na = n - no; // all remaining nodes go to the atm group
            if na < 3 || na < self.floors.atm {
                pruned += 1;
                continue;
            }
            if let Some(list) = &self.atm_allowed {
                if !list.contains(&na) {
                    pruned += 1;
                    continue;
                }
            }
            // Split ice/lnd to maximize min(T_i, T_l): unimodal again.
            let (ice_lo, lnd_lo) = (self.floors.ice.max(1), self.floors.lnd.max(1));
            if na < ice_lo + lnd_lo {
                pruned += 1;
                continue;
            }
            let f = |k: i64| {
                -(self
                    .t(Component::Ice, k)
                    .min(self.t(Component::Lnd, na - k)))
            };
            let (k, neg) = scalar::integer_ternary_min(f, ice_lo, na - lnd_lo);
            evals += 1;
            let score = (-neg)
                .min(self.t(Component::Atm, na))
                .min(self.t(Component::Ocn, no));
            if best.as_ref().is_none_or(|(b, _)| score > *b) {
                best = Some((
                    score,
                    Allocation {
                        lnd: na - k,
                        ice: k,
                        atm: na,
                        ocn: no,
                    },
                ));
            }
        }
        let (objective, allocation) = best?;
        Some(ExhaustiveResult {
            allocation,
            objective,
            evaluations: evals,
            pruned,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::FitSet;
    use hslb_nlsq::ScalingCurve;
    use std::collections::BTreeMap;

    fn toy_fits() -> FitSet {
        let mk = |a: f64, d: f64| ScalingCurve {
            a,
            b: 0.0,
            c: 1.0,
            d,
        };
        FitSet::from_curves(BTreeMap::from([
            (Component::Ice, mk(8_000.0, 2.0)),
            (Component::Lnd, mk(1_500.0, 1.0)),
            (Component::Atm, mk(30_000.0, 10.0)),
            (Component::Ocn, mk(9_000.0, 5.0)),
        ]))
        .unwrap()
    }

    #[test]
    fn minmax_beats_naive_allocations() {
        let fits = toy_fits();
        let opt = ExhaustiveOptimizer::new(&fits, Layout::Hybrid, 128);
        let res = opt.solve(Objective::MinMax);
        // Sanity: compare against a handful of hand-picked allocations.
        for (ni, nl, na, no) in [(30, 10, 100, 28), (40, 24, 64, 64), (10, 5, 96, 32)] {
            let icelnd = fits
                .predict(Component::Ice, ni)
                .max(fits.predict(Component::Lnd, nl));
            let t =
                (icelnd + fits.predict(Component::Atm, na)).max(fits.predict(Component::Ocn, no));
            assert!(res.objective <= t + 1e-9, "beaten by ({ni},{nl},{na},{no})");
        }
        // And the reported allocation achieves the reported objective.
        let a = res.allocation;
        let icelnd = fits
            .predict(Component::Ice, a.ice)
            .max(fits.predict(Component::Lnd, a.lnd));
        let t =
            (icelnd + fits.predict(Component::Atm, a.atm)).max(fits.predict(Component::Ocn, a.ocn));
        assert!((t - res.objective).abs() < 1e-9);
        assert!(a.ice + a.lnd <= a.atm);
        assert!(a.atm + a.ocn <= 128);
    }

    #[test]
    fn try_solve_reports_empty_candidate_space() {
        let fits = toy_fits();
        // Two nodes cannot host an atm side plus an ocean.
        let tiny = ExhaustiveOptimizer::new(&fits, Layout::Hybrid, 2);
        assert!(tiny.try_solve(Objective::MinMax).is_none());
        let ok = ExhaustiveOptimizer::new(&fits, Layout::Hybrid, 128);
        assert!(ok.try_solve(Objective::MinMax).is_some());
    }

    #[test]
    fn allowed_sets_are_respected() {
        let fits = toy_fits();
        let mut opt = ExhaustiveOptimizer::new(&fits, Layout::Hybrid, 128);
        opt.ocean_allowed = Some(vec![8, 16, 24, 32, 64]);
        let res = opt.solve(Objective::MinMax);
        assert!([8, 16, 24, 32, 64].contains(&res.allocation.ocn));
    }

    #[test]
    fn layout_ordering_matches_figure_4() {
        // Predicted: layout 1 ≈ layout 2 ≤ layout 3 (fully sequential is
        // worst).
        let fits = toy_fits();
        let t1 = ExhaustiveOptimizer::new(&fits, Layout::Hybrid, 256)
            .solve(Objective::MinMax)
            .objective;
        let t2 = ExhaustiveOptimizer::new(&fits, Layout::SequentialWithOcean, 256)
            .solve(Objective::MinMax)
            .objective;
        let t3 = ExhaustiveOptimizer::new(&fits, Layout::FullySequential, 256)
            .solve(Objective::MinMax)
            .objective;
        assert!(t1 <= t2 + 1e-9, "layout1 {t1} vs layout2 {t2}");
        assert!(t2 <= t3 + 1e-9, "layout2 {t2} vs layout3 {t3}");
    }

    #[test]
    fn maxmin_balances_components() {
        let fits = toy_fits();
        let opt = ExhaustiveOptimizer::new(&fits, Layout::Hybrid, 128);
        let res = opt.solve(Objective::MaxMin);
        // All nodes used on the concurrent dimension.
        assert_eq!(res.allocation.atm + res.allocation.ocn, 128);
        // The objective equals the smallest component time.
        let a = res.allocation;
        let tmin = fits
            .predict(Component::Ice, a.ice)
            .min(fits.predict(Component::Lnd, a.lnd))
            .min(fits.predict(Component::Atm, a.atm))
            .min(fits.predict(Component::Ocn, a.ocn));
        assert!((tmin - res.objective).abs() < 1e-9);
    }

    #[test]
    fn sum_objective_decouples() {
        let fits = toy_fits();
        let opt = ExhaustiveOptimizer::new(&fits, Layout::FullySequential, 128);
        let res = opt.solve(Objective::SumTime);
        // With monotone curves every component takes the max it can.
        assert_eq!(res.allocation.atm, 128);
        assert_eq!(res.allocation.ocn, 128);
    }

    #[test]
    fn strided_inclusive_keeps_both_endpoints() {
        assert_eq!(
            ExhaustiveOptimizer::strided_inclusive(1, 10, 3),
            vec![1, 4, 7, 10]
        );
        // (hi − lo) % step ≠ 0: hi must still be present.
        assert_eq!(
            ExhaustiveOptimizer::strided_inclusive(1, 9, 3),
            vec![1, 4, 7, 9]
        );
        assert_eq!(ExhaustiveOptimizer::strided_inclusive(5, 5, 2), vec![5]);
        assert!(ExhaustiveOptimizer::strided_inclusive(6, 5, 2).is_empty());
    }

    #[test]
    fn coarse_stride_does_not_skip_the_cap() {
        // Regression: above 4096 candidates the ocean range is thinned by
        // step = (n/2048).max(1). At n = 6000 that is step 2 starting at
        // 1 — every candidate odd — so the cap (6000, the optimum on a
        // monotone-decreasing curve) was silently never evaluated and the
        // solver returned ocn = 5999.
        let fits = toy_fits();
        let opt = ExhaustiveOptimizer::new(&fits, Layout::FullySequential, 6000);
        let res = opt.solve(Objective::SumTime);
        assert_eq!(res.allocation.ocn, 6000, "cap excluded from enumeration");
        assert!(res.evaluations > 0);
    }
}
