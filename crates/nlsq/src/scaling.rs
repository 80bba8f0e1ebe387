//! The paper's performance model `T(n) = a/n + b·n^c + d` and its fit.

use hslb_numerics::float::cmp_f64;
use hslb_numerics::stats;
use std::cmp::Ordering;

/// A fitted performance curve `T(n) = a/n + b·n^c + d`.
///
/// * `a/n` — `T^sca`, the perfectly scalable part (Amdahl's parallel term);
/// * `b·n^c` — `T^nln`, the partially-parallel/communication term. On
///   Intrepid the paper observed it *increasing*, with `b, c` near zero;
/// * `d` — `T^ser`, the serial floor.
///
/// All coefficients are non-negative (Table II, line 11). With `c ≥ 1`
/// the curve is convex on `n > 0`, the property §III-E relies on for
/// global optimality of the outer-approximation branch-and-bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingCurve {
    pub a: f64,
    pub b: f64,
    pub c: f64,
    pub d: f64,
}

impl ScalingCurve {
    /// Evaluate `T(n)`.
    pub fn eval(&self, n: f64) -> f64 {
        self.a / n + self.b * n.powf(self.c) + self.d
    }

    /// First derivative `T′(n)`.
    pub fn deriv(&self, n: f64) -> f64 {
        -self.a / (n * n) + self.b * self.c * n.powf(self.c - 1.0)
    }

    /// Is the curve convex on `n > 0`? Requires non-negative coefficients
    /// and an exponent outside the concave band `(0, 1)`.
    pub fn is_convex(&self) -> bool {
        self.a >= 0.0 && self.b >= 0.0 && self.d >= 0.0 && !(self.c > 0.0 && self.c < 1.0)
    }

    /// The integer node count in `[lo, hi]` minimizing `T(n)`.
    ///
    /// Convex curves are unimodal, so ternary search is exact.
    pub fn argmin_nodes(&self, lo: i64, hi: i64) -> i64 {
        hslb_numerics::scalar::integer_ternary_min(|n| self.eval(n as f64), lo.max(1), hi.max(1)).0
    }
}

/// Result of fitting a [`ScalingCurve`] to benchmark data.
#[derive(Debug, Clone)]
pub struct ScalingFit {
    /// The fitted curve.
    pub curve: ScalingCurve,
    /// Coefficient of determination against the fitted data. `NAN` for
    /// synthetic fits (no data backs them).
    pub r_squared: f64,
    /// Root-mean-square error in seconds (`NAN` for synthetic fits).
    pub rmse: f64,
    /// Sum of squared residuals (the objective of Table II line 10).
    pub sse: f64,
    /// Number of data points used (0 for synthetic fits).
    pub points: usize,
    /// Profile evaluations: exponents `c` at which the projected
    /// least-squares problem over `(a, b, d)` was solved (0 for synthetic
    /// fits). The field keeps its historical name, from when the fit ran
    /// Levenberg–Marquardt iterations.
    pub lm_iterations: usize,
    /// Fits run: 1 for a measured fit, 0 for a synthetic one. The fit is
    /// exact and deterministic, so there is nothing to restart.
    pub starts_run: usize,
    /// True when the curve was injected rather than fitted — the
    /// degraded-accuracy path downstream must not mistake it for a
    /// measured fit.
    pub synthetic: bool,
}

impl ScalingFit {
    /// Wrap a hand-written curve as a fit with no backing data. Quality
    /// diagnostics are `NAN`/0 and [`ScalingFit::synthetic`] is set, so
    /// accuracy gates can tell it apart from a real fit.
    pub fn synthetic(curve: ScalingCurve) -> ScalingFit {
        ScalingFit {
            curve,
            r_squared: f64::NAN,
            rmse: f64::NAN,
            sse: f64::NAN,
            points: 0,
            lm_iterations: 0,
            starts_run: 0,
            synthetic: true,
        }
    }
}

/// Options for [`fit_scaling`].
#[derive(Debug, Clone)]
pub struct ScalingFitOptions {
    /// Bounds on the exponent `c`. The default `[1, 3]` keeps every fitted
    /// curve convex (see [`ScalingCurve::is_convex`]); widen the lower
    /// bound below 1 only if the consumer can handle nonconvex curves.
    /// Equal bounds pin the exponent: the fit is then the exact
    /// box-constrained linear least squares over `(a, b, d)` at that `c`.
    pub c_bounds: (f64, f64),
}

impl Default for ScalingFitOptions {
    fn default() -> Self {
        ScalingFitOptions {
            c_bounds: (1.0, 3.0),
        }
    }
}

/// Intervals of the outer search's uniform exponent grid.
const GRID_INTERVALS: usize = 32;

/// The exponents the outer search evaluates before refining: a uniform
/// grid of `GRID_INTERVALS + 1` points over `c_bounds`, ascending (one
/// point when the bounds are equal).
pub fn exponent_grid(c_bounds: (f64, f64)) -> Vec<f64> {
    let (lo, hi) = c_bounds;
    if hi <= lo {
        return vec![lo];
    }
    (0..=GRID_INTERVALS)
        .map(|k| lo + (hi - lo) * k as f64 / GRID_INTERVALS as f64)
        .collect()
}

/// The least-squares problem of Table II line 10 with the exponent
/// projected out: for a fixed `c` the model is linear in
/// `θ = (a, b, d)` over the columns `X = [1/n, n^c, 1]`, so the best `θ`
/// in the box is found exactly.
struct Profile<'a> {
    data: &'a [(f64, f64)],
    /// Upper caps on `(a, b, d)`. `a` is the single-node work, bounded
    /// by `y_max·n_max` (time at the smallest measured node count scaled
    /// up) with a 10× margin; `b` and `d` by the largest time.
    upper: [f64; 3],
    /// The `c`-independent Gram entries `Σ1/n², Σ1/n, m` and moments
    /// `Σy/n, Σy`.
    inv_n_sq: f64,
    inv_n: f64,
    count: f64,
    y_inv_n: f64,
    y_sum: f64,
    /// Scratch column `n_i^c`.
    nc: Vec<f64>,
    /// Profile evaluations so far.
    evaluations: usize,
}

/// One solution of the projected problem: `θ = (a, b, d)` and its SSE.
#[derive(Debug, Clone, Copy)]
struct Projection {
    c: f64,
    theta: [f64; 3],
    sse: f64,
}

impl Projection {
    /// Lower SSE wins; equal SSE goes to the smaller exponent, so a
    /// profile that is flat in `c` (the `b = 0` case) resolves to the
    /// smallest `c` evaluated.
    fn beats(&self, other: &Projection) -> bool {
        match cmp_f64(self.sse, other.sse) {
            Ordering::Less => true,
            Ordering::Equal => self.c < other.c,
            Ordering::Greater => false,
        }
    }
}

impl<'a> Profile<'a> {
    fn new(data: &'a [(f64, f64)]) -> Self {
        let y_max = data.iter().map(|&(_, y)| y).fold(0.0_f64, f64::max);
        let n_max = data.iter().map(|&(n, _)| n).fold(0.0_f64, f64::max);
        let sum = |f: &dyn Fn(f64, f64) -> f64| data.iter().map(|&(n, y)| f(n, y)).sum::<f64>();
        Profile {
            data,
            upper: [y_max * n_max * 10.0, y_max, y_max],
            inv_n_sq: sum(&|n, _| 1.0 / (n * n)),
            inv_n: sum(&|n, _| 1.0 / n),
            count: data.len() as f64,
            y_inv_n: sum(&|n, y| y / n),
            y_sum: sum(&|_, y| y),
            nc: Vec::with_capacity(data.len()),
            evaluations: 0,
        }
    }

    /// Solve `min ‖y − Xθ‖²` over the box at exponent `c`.
    ///
    /// The box-constrained problem is a convex QP, so its optimum puts
    /// each variable at its lower bound, free, or at its upper bound,
    /// with the free ones solving the reduced normal equations. All 27
    /// assignments are enumerated and the feasible one with the least
    /// SSE kept. The normal equations come from one Gram pass over
    /// columns scaled to unit norm, because `n^c` reaches ~1e13 while
    /// `1/n` is below 1.
    fn project(&mut self, c: f64) -> Projection {
        self.evaluations += 1;
        self.nc.clear();
        self.nc.extend(self.data.iter().map(|&(n, _)| n.powf(c)));
        let (mut nc_sq, mut nc_inv_n, mut nc_sum, mut nc_y) = (0.0, 0.0, 0.0, 0.0);
        for (&(n, y), &x) in self.data.iter().zip(&self.nc) {
            nc_sq += x * x;
            nc_inv_n += x / n;
            nc_sum += x;
            nc_y += x * y;
        }
        let raw = [
            [self.inv_n_sq, nc_inv_n, self.inv_n],
            [nc_inv_n, nc_sq, nc_sum],
            [self.inv_n, nc_sum, self.count],
        ];
        let scale = [self.inv_n_sq.sqrt(), nc_sq.sqrt(), self.count.sqrt()];
        let gram: [[f64; 3]; 3] =
            std::array::from_fn(|j| std::array::from_fn(|k| raw[j][k] / (scale[j] * scale[k])));
        let rhs = [
            self.y_inv_n / scale[0],
            nc_y / scale[1],
            self.y_sum / scale[2],
        ];
        let upper: [f64; 3] = std::array::from_fn(|j| self.upper[j] * scale[j]);

        let mut best: Option<Projection> = None;
        for code in 0..27usize {
            let state = [code % 3, code / 3 % 3, code / 9].map(|h| HOLDS[h]);
            let Some(t) = solve_assignment(&gram, &rhs, &upper, state) else {
                continue;
            };
            let theta: [f64; 3] = std::array::from_fn(|j| t[j] / scale[j]);
            let [a, b, d] = theta;
            let sse: f64 = self
                .data
                .iter()
                .zip(&self.nc)
                .map(|(&(n, y), &nc)| {
                    let r = a / n + b * nc + d - y;
                    r * r
                })
                .sum();
            if best.is_none_or(|b| sse < b.sse) {
                best = Some(Projection { c, theta, sse });
            }
        }
        let Some(best) = best else {
            unreachable!("the all-at-lower-bound assignment is always feasible");
        };
        best
    }
}

/// Where a bound assignment holds one of `(a, b, d)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hold {
    /// At its lower bound, 0.
    Lower,
    /// Free: solved from the reduced normal equations.
    Free,
    /// At its upper cap.
    Upper,
}

const HOLDS: [Hold; 3] = [Hold::Lower, Hold::Free, Hold::Upper];

/// The scaled parameters of one bound assignment, with the free ones
/// solving the reduced normal equations by Cholesky. `None` when the
/// reduced matrix is (numerically) singular or a free value leaves the
/// box.
fn solve_assignment(
    gram: &[[f64; 3]; 3],
    rhs: &[f64; 3],
    upper: &[f64; 3],
    state: [Hold; 3],
) -> Option<[f64; 3]> {
    // The scaled Gram has a unit diagonal, so the pivot floor is absolute.
    const PIVOT_FLOOR: f64 = 1e-13;
    let mut t: [f64; 3] = std::array::from_fn(|j| {
        if state[j] == Hold::Upper {
            upper[j]
        } else {
            0.0
        }
    });
    let mut free = [0usize; 3];
    let mut k = 0;
    for (j, &hold) in state.iter().enumerate() {
        if hold == Hold::Free {
            free[k] = j;
            k += 1;
        }
    }
    let free = &free[..k];
    // Forward pass: factor G_FF = L·Lᵀ row by row and solve L·z = b.
    let mut l = [[0.0; 3]; 3];
    let mut z = [0.0; 3];
    for i in 0..k {
        for j in 0..=i {
            let s = gram[free[i]][free[j]] - (0..j).map(|p| l[i][p] * l[j][p]).sum::<f64>();
            if i == j {
                if s <= PIVOT_FLOOR {
                    return None;
                }
                l[i][i] = s.sqrt();
            } else {
                l[i][j] = s / l[j][j];
            }
        }
        let b = rhs[free[i]] - (0..3).map(|q| gram[free[i]][q] * t[q]).sum::<f64>();
        z[i] = (b - (0..i).map(|p| l[i][p] * z[p]).sum::<f64>()) / l[i][i];
    }
    // Back substitution: Lᵀ·θ_F = z.
    for i in (0..k).rev() {
        z[i] = (z[i] - (i + 1..k).map(|p| l[p][i] * z[p]).sum::<f64>()) / l[i][i];
    }
    for (i, &j) in free.iter().enumerate() {
        if !(0.0..=upper[j]).contains(&z[i]) {
            return None;
        }
        t[j] = z[i];
    }
    Some(t)
}

/// Errors from [`fit_scaling`].
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// Fewer than two data points, or non-positive node counts/times.
    BadData(&'static str),
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::BadData(why) => write!(f, "cannot fit scaling curve: {why}"),
        }
    }
}

impl std::error::Error for FitError {}

/// Fit the paper's performance model to `(nodes, seconds)` observations.
///
/// The fit is variable projection (Golub & Pereyra, SIAM J. Numer.
/// Anal. 10(2), 1973): for each exponent `c` the box-constrained linear
/// least squares over `(a, b, d)` is solved exactly, and the projected
/// SSE is minimized over `c ∈ c_bounds` by a uniform grid
/// ([`exponent_grid`]) followed by golden-section refinement in the
/// bracket around the best grid point. The result is deterministic, and
/// its SSE is never above the projected SSE at any grid exponent.
///
/// The paper recommends at least four points spanning the smallest
/// memory-feasible and the largest available node counts (§III-C); with
/// fewer points the four-parameter model is underdetermined and the
/// returned `r_squared` should be treated with suspicion rather than the
/// call rejected — mirroring how the AMPL script behaves.
///
/// # Examples
///
/// ```
/// use hslb_nlsq::{fit_scaling, ScalingFitOptions};
///
/// // Component timings at four node counts (the paper's minimum).
/// let data = [(24.0, 63.8), (80.0, 20.1), (384.0, 5.8), (1664.0, 2.9)];
/// let fit = fit_scaling(&data, &ScalingFitOptions::default()).unwrap();
/// assert!(fit.r_squared > 0.99);
/// // Interpolate a count that was never benchmarked.
/// let t_at_200 = fit.curve.eval(200.0);
/// assert!(t_at_200 > 2.9 && t_at_200 < 63.8);
/// ```
pub fn fit_scaling(data: &[(f64, f64)], opts: &ScalingFitOptions) -> Result<ScalingFit, FitError> {
    if data.len() < 2 {
        return Err(FitError::BadData("need at least two points"));
    }
    if data
        .iter()
        .any(|&(n, y)| n < 1.0 || !y.is_finite() || y <= 0.0)
    {
        return Err(FitError::BadData(
            "node counts must be ≥ 1 and times positive",
        ));
    }
    let mut profile = Profile::new(data);

    let grid = exponent_grid(opts.c_bounds);
    let mut best: Option<(usize, Projection)> = None;
    for (k, &c) in grid.iter().enumerate() {
        let p = profile.project(c);
        if best.is_none_or(|(_, b)| p.beats(&b)) {
            best = Some((k, p));
        }
    }
    let Some((k, mut best)) = best else {
        unreachable!("the exponent grid has at least one point");
    };
    if grid.len() > 1 {
        let lo = grid[k.saturating_sub(1)];
        let hi = grid[(k + 1).min(grid.len() - 1)];
        hslb_numerics::scalar::golden_section(
            |c| {
                let p = profile.project(c);
                if p.beats(&best) {
                    best = p;
                }
                p.sse
            },
            lo,
            hi,
            REFINE_TOL,
            REFINE_MAX_ITER,
        );
    }

    let [a, b, d] = best.theta;
    let curve = ScalingCurve { a, b, c: best.c, d };
    let observed: Vec<f64> = data.iter().map(|&(_, y)| y).collect();
    let predicted: Vec<f64> = data.iter().map(|&(n, _)| curve.eval(n)).collect();
    Ok(ScalingFit {
        curve,
        r_squared: stats::r_squared(&observed, &predicted).unwrap_or(f64::NAN),
        rmse: stats::rmse(&observed, &predicted).unwrap_or(f64::NAN),
        sse: best.sse,
        points: data.len(),
        lm_iterations: profile.evaluations,
        starts_run: 1,
        synthetic: false,
    })
}

/// Absolute tolerance on `c` of the golden-section refinement.
const REFINE_TOL: f64 = 1e-9;
/// Iteration cap of the refinement; the tolerance stops it first (a
/// grid bracket of width 0.125 shrinks below it in ~39 steps).
const REFINE_MAX_ITER: usize = 100;

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(curve: ScalingCurve, ns: &[f64]) -> Vec<(f64, f64)> {
        ns.iter().map(|&n| (n, curve.eval(n))).collect()
    }

    #[test]
    fn recovers_noiseless_curve_predictions() {
        let truth = ScalingCurve {
            a: 50_000.0,
            b: 1e-3,
            c: 1.1,
            d: 12.0,
        };
        let data = synth(truth, &[16.0, 32.0, 64.0, 128.0, 512.0, 2048.0]);
        let fit = fit_scaling(&data, &ScalingFitOptions::default()).unwrap();
        assert!(fit.r_squared > 0.999_99, "r2 = {}", fit.r_squared);
        // Predictions (not parameters — they can trade off) must match.
        for &(n, y) in &data {
            let p = fit.curve.eval(n);
            assert!((p - y).abs() < 0.01 * y, "at n={n}: {p} vs {y}");
        }
        // And interpolation between sampled points must be close.
        let mid = fit.curve.eval(256.0);
        let want = truth.eval(256.0);
        assert!((mid - want).abs() < 0.05 * want, "interp {mid} vs {want}");
    }

    #[test]
    fn fitted_curve_is_convex_by_default() {
        let truth = ScalingCurve {
            a: 1000.0,
            b: 0.0,
            c: 1.0,
            d: 3.0,
        };
        let data = synth(truth, &[4.0, 8.0, 32.0, 100.0]);
        let fit = fit_scaling(&data, &ScalingFitOptions::default()).unwrap();
        assert!(fit.curve.is_convex());
        assert!(fit.curve.c >= 1.0);
    }

    #[test]
    fn pinned_exponent_recovers_the_linear_coefficients() {
        // With c pinned the fit is plain linear least squares over
        // (a, b, d), solved exactly: noiseless data gives them back.
        let truth = ScalingCurve {
            a: 500.0,
            b: 0.02,
            c: 1.4,
            d: 7.0,
        };
        let data = synth(truth, &[2.0, 17.0, 64.0, 333.0, 2048.0]);
        let opts = ScalingFitOptions {
            c_bounds: (1.4, 1.4),
        };
        let fit = fit_scaling(&data, &opts).unwrap();
        assert_eq!(fit.curve.c, 1.4);
        assert_eq!(fit.lm_iterations, 1);
        for (got, want) in [
            (fit.curve.a, 500.0),
            (fit.curve.b, 0.02),
            (fit.curve.d, 7.0),
        ] {
            assert!((got - want).abs() <= 1e-8 * want, "{got} vs {want}");
        }
    }

    #[test]
    fn flat_profile_ties_resolve_to_the_smallest_exponent() {
        // b = 0 fits this data at every c, so the projected SSE is flat
        // in c; the tie goes to the lower bound.
        let truth = ScalingCurve {
            a: 1000.0,
            b: 0.0,
            c: 2.0,
            d: 3.0,
        };
        let data = synth(truth, &[4.0, 8.0, 32.0, 100.0]);
        for c_bounds in [(1.0, 3.0), (1.5, 2.5)] {
            let fit = fit_scaling(&data, &ScalingFitOptions { c_bounds }).unwrap();
            assert_eq!(fit.curve.b, 0.0);
            assert_eq!(fit.curve.c, c_bounds.0);
        }
    }

    #[test]
    fn four_points_suffice_like_the_paper_says() {
        let truth = ScalingCurve {
            a: 39_000.0,
            b: 2e-4,
            c: 1.2,
            d: 40.0,
        };
        let data = synth(truth, &[24.0, 80.0, 384.0, 1664.0]);
        let fit = fit_scaling(&data, &ScalingFitOptions::default()).unwrap();
        assert!(fit.r_squared > 0.999, "r2 = {}", fit.r_squared);
    }

    #[test]
    fn rejects_degenerate_data() {
        assert!(fit_scaling(&[(4.0, 10.0)], &ScalingFitOptions::default()).is_err());
        assert!(fit_scaling(&[(0.5, 10.0), (2.0, 5.0)], &ScalingFitOptions::default()).is_err());
        assert!(fit_scaling(&[(1.0, -1.0), (2.0, 5.0)], &ScalingFitOptions::default()).is_err());
    }

    #[test]
    fn argmin_nodes_finds_sweet_spot() {
        // With a rising b·n term the curve has an interior minimum at
        // n* = sqrt(a/b) for c = 1.
        let curve = ScalingCurve {
            a: 1.0e6,
            b: 0.01,
            c: 1.0,
            d: 0.0,
        };
        let n = curve.argmin_nodes(1, 100_000);
        assert_eq!(n, 10_000);
    }

    #[test]
    fn deriv_matches_finite_difference() {
        let curve = ScalingCurve {
            a: 500.0,
            b: 0.02,
            c: 1.4,
            d: 7.0,
        };
        for n in [2.0, 17.0, 333.0] {
            let h = 1e-5 * n;
            let fd = (curve.eval(n + h) - curve.eval(n - h)) / (2.0 * h);
            assert!((curve.deriv(n) - fd).abs() < 1e-5 * (1.0 + fd.abs()));
        }
    }

    #[test]
    fn noisy_fit_keeps_high_r2() {
        // ±2 % deterministic "noise" must not destroy the fit quality —
        // this is the regime of real CESM timings (§III-C says R² ≈ 1).
        let truth = ScalingCurve {
            a: 44_000.0,
            b: 5e-4,
            c: 1.15,
            d: 25.0,
        };
        let ns = [16.0, 48.0, 128.0, 384.0, 1024.0, 2048.0];
        let data: Vec<(f64, f64)> = ns
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let eps = if i % 2 == 0 { 1.02 } else { 0.98 };
                (n, truth.eval(n) * eps)
            })
            .collect();
        let fit = fit_scaling(&data, &ScalingFitOptions::default()).unwrap();
        assert!(fit.r_squared > 0.99, "r2 = {}", fit.r_squared);
    }
}
