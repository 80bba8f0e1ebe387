//! Warm-started re-solves: a live tableau plus a bounded-variable **dual
//! simplex** loop.
//!
//! The MINLP driver's LPs change in exactly two ways between solves:
//!
//! * a cut round appends one `≤` row (an outer-approximation cut), and
//! * a branch-and-bound descent tightens a variable's bounds.
//!
//! Both edits preserve dual feasibility of the optimal basis (an appended
//! slack has zero cost, so its reduced cost starts at the sign-feasible
//! value 0; a bound change never touches the reduced-cost row) while
//! possibly breaking primal feasibility. That is the textbook entry point
//! for the dual simplex: pick the most-violated basic variable as the
//! leaving row, restore its bound, and let the dual ratio test keep the
//! reduced costs sign-feasible. A handful of pivots replaces a full
//! two-phase cold solve.
//!
//! [`WarmLp`] wraps the final tableau of an optimal solve (artificials
//! stripped) and supports `append_le_row` / `set_var_bounds` / `resolve`.
//! Every consumer keeps the **fallback ladder**: a warm resolve that errors
//! (iteration limit, numerical breakdown, shape drift) is answered by a
//! cold two-phase solve of the freshly rebuilt problem, never by giving up.
//!
//! Long edit chains let the dense tableau drift from the problem it
//! stands for: it has reported "optimal" points violating cut rows by
//! ~1e3 and infeasibility verdicts for feasible problems. So `resolve`
//! checks every answer against the rows and bounds as posed, not against
//! the tableau — an optimum by a primal and a duality-gap certificate, an
//! infeasibility by a Farkas row — and an answer that fails is an error,
//! which sends the caller down the fallback ladder.

use crate::basis::{Basis, ColumnState};
use crate::problem::LpProblem;
use crate::simplex::{extract, iterate, solve_impl, Tableau, VarState};
use crate::{LpError, LpSolution, LpStatus, SimplexOptions};
use std::ops::Range;

/// Cold two-phase solve that also hands back the live tableau for warm
/// re-solves. The second element is `None` when the solve did not end
/// `Optimal`, or when a redundant row left an artificial basic (the
/// stripped tableau would be rank-deficient); callers treat `None` as
/// "cold-only from here".
pub fn solve_keep(
    p: &LpProblem,
    opts: &SimplexOptions,
) -> Result<(LpSolution, Option<WarmLp>), LpError> {
    solve_impl(p, opts, true)
}

/// A solved LP kept live for incremental edits and dual-simplex repair.
///
/// Columns are `[structurals | slacks]` with one slack per row, in row
/// order; appended rows append their slack column on the right, so the
/// slack of row `i` is always column `n + i`. Artificials from the cold
/// solve are stripped at construction. The phase-2 cost row is retained,
/// so `resolve` reports objectives consistent with [`crate::solve`].
#[derive(Debug, Clone)]
pub struct WarmLp {
    tab: Tableau,
    /// Structural variable count.
    n: usize,
    /// Every row as posed, `terms·x + slack = rhs`, in tableau row order;
    /// answers are certified against these, never against the tableau.
    rows: Vec<PosedRow>,
}

/// A constraint row over structurals as it was posed.
#[derive(Debug, Clone)]
struct PosedRow {
    terms: Vec<(usize, f64)>,
    rhs: f64,
}

/// Relative tolerance of the answer certificates: primal residuals
/// against each row's magnitude, the duality gap and a Farkas row's
/// violation against the magnitude of the sums involved.
const CERT_TOL: f64 = 1e-7;

impl WarmLp {
    /// Wrap the final tableau of an optimal phase-2 solve. Returns `None`
    /// when an artificial column is still basic (redundant row): stripping
    /// it would leave a row without a basic column.
    pub(crate) fn from_tableau(tab: Tableau, n: usize, p: &LpProblem) -> Option<WarmLp> {
        let m = tab.basis.len();
        let keep_cols = n + m;
        if tab.basis.iter().any(|&b| b >= keep_cols) {
            return None;
        }
        let mut t = hslb_numerics::Matrix::zeros(m, keep_cols);
        for i in 0..m {
            t.row_mut(i).copy_from_slice(&tab.t.row(i)[..keep_cols]);
        }
        let tab = Tableau {
            t,
            xb: tab.xb,
            basis: tab.basis,
            state: tab.state[..keep_cols].to_vec(),
            lb: tab.lb[..keep_cols].to_vec(),
            ub: tab.ub[..keep_cols].to_vec(),
            d: tab.d[..keep_cols].to_vec(),
            cost: tab.cost[..keep_cols].to_vec(),
            first_artificial: keep_cols,
        };
        let rows = p
            .rows
            .iter()
            .map(|r| PosedRow {
                terms: r.terms.clone(),
                rhs: r.rhs,
            })
            .collect();
        Some(WarmLp { tab, n, rows })
    }

    /// Number of structural variables.
    pub fn num_structurals(&self) -> usize {
        self.n
    }

    /// Number of constraint rows currently in the tableau.
    pub fn num_rows(&self) -> usize {
        self.tab.basis.len()
    }

    /// Current bounds of structural variable `j`.
    pub fn var_bounds(&self, j: usize) -> (f64, f64) {
        (self.tab.lb[j], self.tab.ub[j])
    }

    /// Export the basis snapshot (`basis`/`state` vectors) of the current
    /// tableau. The snapshot is over `[structurals | slacks]` columns and
    /// can be re-installed against an equivalent cold problem with
    /// [`crate::solve_from_basis`].
    pub fn basis(&self) -> Basis {
        Basis {
            basic: self.tab.basis.clone(),
            state: self
                .tab
                .state
                .iter()
                .map(|s| match s {
                    VarState::Basic => ColumnState::Basic,
                    VarState::AtLower => ColumnState::AtLower,
                    VarState::AtUpper => ColumnState::AtUpper,
                    VarState::FreeZero => ColumnState::FreeZero,
                })
                .collect(),
        }
    }

    /// Replace the bounds of structural variable `j`, re-parking a
    /// nonbasic variable on the matching new bound and updating the basic
    /// values for the displacement. A basic variable pushed out of its new
    /// bounds is left for the next `resolve` (dual simplex) to repair.
    pub fn set_var_bounds(&mut self, j: usize, lb: f64, ub: f64) {
        debug_assert!(j < self.n, "only structural bounds change under B&B");
        let tab = &mut self.tab;
        let old_state = tab.state[j];
        if old_state == VarState::Basic {
            tab.lb[j] = lb;
            tab.ub[j] = ub;
            return;
        }
        let v0 = match old_state {
            VarState::AtLower => tab.lb[j],
            VarState::AtUpper => tab.ub[j],
            _ => 0.0,
        };
        tab.lb[j] = lb;
        tab.ub[j] = ub;
        let (v1, st) = match old_state {
            VarState::AtLower if lb.is_finite() => (lb, VarState::AtLower),
            VarState::AtUpper if ub.is_finite() => (ub, VarState::AtUpper),
            VarState::AtLower if ub.is_finite() => (ub, VarState::AtUpper),
            VarState::AtUpper if lb.is_finite() => (lb, VarState::AtLower),
            _ => (0.0, VarState::FreeZero),
        };
        tab.state[j] = st;
        let delta = v1 - v0;
        if delta.abs() > 0.0 {
            for r in 0..tab.basis.len() {
                let w = tab.t[(r, j)];
                if w.abs() > 0.0 {
                    tab.xb[r] -= delta * w;
                }
            }
        }
    }

    /// Append a `≤` constraint row over structural variables. The new
    /// slack enters the basis for the new row; its value is the row's
    /// residual at the current point and may be negative — the next
    /// `resolve` restores feasibility with dual pivots.
    pub fn append_le_row(&mut self, terms: &[(usize, f64)], rhs: f64) -> Result<(), LpError> {
        self.append_le_rows(&[(terms, rhs)])
    }

    /// [`Self::append_le_row`] for a batch: the tableau is widened once
    /// for all the new slack columns (one `memmove` instead of one per
    /// cut), then each row is expressed in the current basis and appended
    /// in order — arithmetic identical to appending the rows one by one.
    pub fn append_le_rows(&mut self, rows: &[(&[(usize, f64)], f64)]) -> Result<(), LpError> {
        if rows.is_empty() {
            return Ok(());
        }
        self.tab.t.grow_cols(rows.len());
        for &(terms, rhs) in rows {
            let m = self.tab.basis.len();
            // The final width; columns of slacks from later batch entries
            // are zero in every row, so they never perturb the arithmetic.
            let ncols = self.tab.t.cols();
            let slack_col = self.tab.lb.len();

            // Raw coefficients over existing columns, then express the row
            // in the current basis: subtract a[basic_r] × (tableau row r).
            // Basic columns are unit vectors across all rows, so one pass
            // in any row order lands on exact zeros at every basic column.
            let mut raw = vec![0.0; ncols];
            let mut activity = 0.0;
            for &(v, c) in terms {
                debug_assert!(v < self.n, "cut rows are over structurals");
                raw[v] += c;
                activity += c * self.tab.value(v);
            }
            for r in 0..m {
                let bcol = self.tab.basis[r];
                let f = raw[bcol];
                if f.abs() > 0.0 {
                    let row = self.tab.t.row(r);
                    for (rv, tv) in raw.iter_mut().zip(row) {
                        *rv -= f * tv;
                    }
                    raw[bcol] = 0.0;
                }
            }

            let tab = &mut self.tab;
            raw[slack_col] = 1.0;
            tab.t
                .push_row(&raw)
                .map_err(|_| LpError::Numerical("cut row append"))?;
            tab.lb.push(0.0);
            tab.ub.push(f64::INFINITY);
            tab.state.push(VarState::Basic);
            tab.basis.push(slack_col);
            tab.xb.push(rhs - activity);
            tab.d.push(0.0);
            tab.cost.push(0.0);
            tab.first_artificial = tab.lb.len();
            self.rows.push(PosedRow {
                terms: terms.to_vec(),
                rhs,
            });
        }
        Ok(())
    }

    /// Re-solve after edits: dual simplex back to primal feasibility, then
    /// a primal pass that reaches optimality (and mops up any reduced-
    /// cost drift from the pivot arithmetic). Only an answer the posed
    /// problem certifies is returned — `Optimal` by
    /// [`Self::certifies_optimal`], `Infeasible` by
    /// [`Self::certifies_infeasible`]; anything else (including
    /// `Unbounded`, which the bounded relaxations here never are) is an
    /// error, and errors mean the caller should fall back to a cold
    /// rebuild.
    pub fn resolve(&mut self, opts: &SimplexOptions) -> Result<LpSolution, LpError> {
        let m = self.tab.basis.len();
        let mut iters = 0usize;
        let st = dual_iterate(&mut self.tab, opts, &mut iters)?;
        if st == LpStatus::Infeasible {
            if !self.certifies_infeasible(opts.tol) {
                return Err(LpError::Numerical("warm infeasibility not certified"));
            }
            return Ok(LpSolution {
                status: LpStatus::Infeasible,
                x: extract(&self.tab, self.n),
                objective: f64::INFINITY,
                iterations: iters,
                row_duals: vec![0.0; m],
            });
        }
        let st = iterate(&mut self.tab, opts, &mut iters)?;
        let sol = self.solution(st, iters);
        if st != LpStatus::Optimal || !self.certifies_optimal(&sol) {
            return Err(LpError::Numerical("warm optimum not certified"));
        }
        Ok(sol)
    }

    /// Is `sol` optimal for the posed problem? Primal: every structural
    /// within its bounds, and every row's slack (`rhs − a·x`) within the
    /// slack's bounds, relative to the row's magnitude `|rhs| + Σ|a·x|`.
    /// Dual: any multipliers `y` bound the optimum from below by
    /// `L(y) = y·b + Σⱼ min over [lⱼ, uⱼ] of rⱼ·zⱼ` with reduced costs
    /// `r = c − A′ᵀy`, so the tableau's duals certify `x` when `c·x − L(y)`
    /// is at rounding level. A reduced cost at rounding level against an
    /// infinite bound is charged at the point's own value. One pass over
    /// the posed rows serves both halves.
    fn certifies_optimal(&self, sol: &LpSolution) -> bool {
        let (n, tab) = (self.n, &self.tab);
        let (x, y) = (&sol.x, &sol.row_duals);
        let within = |j: usize, v: f64, scale: f64| {
            let slack = CERT_TOL * scale;
            v >= tab.lb[j] - slack && v <= tab.ub[j] + slack
        };
        if !(0..n).all(|j| within(j, x[j], 1.0 + x[j].abs())) {
            return false;
        }
        let tiny = CERT_TOL * (1.0 + sol.objective.abs());
        let mut reduced = tab.cost[..n].to_vec();
        let (mut bound, mut size) = (0.0, sol.objective.abs());
        for (i, (row, &yi)) in self.rows.iter().zip(y).enumerate() {
            let (mut activity, mut magnitude) = (0.0, row.rhs.abs());
            for &(v, c) in &row.terms {
                activity += c * x[v];
                magnitude += (c * x[v]).abs();
                reduced[v] -= yi * c;
            }
            // The row's slack: its value, then its reduced cost `−yᵢ`.
            let (j, slack) = (n + i, row.rhs - activity);
            if !within(j, slack, 1.0 + magnitude) {
                return false;
            }
            let Some(term) = box_term(-yi, tab.lb[j]..tab.ub[j], slack, tiny) else {
                return false;
            };
            bound += yi * row.rhs + term;
            size += (yi * row.rhs).abs() + term.abs();
        }
        for (j, (&r, &v)) in reduced.iter().zip(x).enumerate() {
            let Some(term) = box_term(r, tab.lb[j]..tab.ub[j], v, tiny) else {
                return false;
            };
            bound += term;
            size += term.abs();
        }
        sol.objective - bound <= CERT_TOL * (1.0 + size)
    }

    /// Is the posed problem infeasible? Row `r` of `B⁻¹` combines the
    /// posed rows into `g·z = y·b` with `g = yᵀA′`, which every point
    /// satisfying them obeys; when `y·b` lies outside the range of `g·z`
    /// over the column bounds, no such point exists (Farkas). Tried on
    /// every row whose basic value violates its bounds. A coefficient at
    /// rounding level against an infinite bound is taken at the current
    /// point's value.
    fn certifies_infeasible(&self, tol: f64) -> bool {
        let (n, tab) = (self.n, &self.tab);
        let mut point = extract(tab, n);
        for row in &self.rows {
            let activity: f64 = row.terms.iter().map(|&(v, c)| c * point[v]).sum();
            point.push(row.rhs - activity);
        }
        let m = tab.basis.len();
        (0..m).any(|r| {
            let b = tab.basis[r];
            let v = tab.xb[r];
            if v >= tab.lb[b] - tol && v <= tab.ub[b] + tol {
                return false;
            }
            let y: Vec<f64> = (0..m).map(|i| tab.t[(r, n + i)]).collect();
            let mut g = vec![0.0; n];
            let (mut rhs, mut size) = (0.0, 0.0);
            for (row, &yi) in self.rows.iter().zip(&y) {
                rhs += yi * row.rhs;
                size += (yi * row.rhs).abs();
                for &(v, c) in &row.terms {
                    g[v] += yi * c;
                }
            }
            g.extend_from_slice(&y);
            let tiny = CERT_TOL * g.iter().fold(0.0_f64, |a, &c| a.max(c.abs()));
            let (mut lo, mut hi) = (0.0, 0.0);
            for (j, (&c, &v)) in g.iter().zip(&point).enumerate() {
                let low = box_term(c, tab.lb[j]..tab.ub[j], v, tiny);
                let high = box_term(-c, tab.lb[j]..tab.ub[j], v, tiny).map(|t| -t);
                lo += low.unwrap_or(f64::NEG_INFINITY);
                hi += high.unwrap_or(f64::INFINITY);
                size += low.map_or(0.0, f64::abs).max(high.map_or(0.0, f64::abs));
            }
            let slack = CERT_TOL * (1.0 + size);
            rhs < lo - slack || rhs > hi + slack
        })
    }

    /// Assemble an [`LpSolution`] from the current tableau.
    fn solution(&self, status: LpStatus, iterations: usize) -> LpSolution {
        let m = self.tab.basis.len();
        let x = extract(&self.tab, self.n);
        let mut objective = 0.0;
        for (xj, c) in x.iter().zip(&self.tab.cost) {
            objective += c * xj;
        }
        let row_duals: Vec<f64> = (0..m).map(|i| -self.tab.d[self.n + i]).collect();
        LpSolution {
            status,
            x,
            objective,
            iterations,
            row_duals,
        }
    }
}

/// The least value of `coef·z` over `z ∈ bounds`; `None` when it is
/// −∞. A coefficient no larger than `tiny` against an infinite bound is
/// charged at `value` instead.
fn box_term(coef: f64, bounds: Range<f64>, value: f64, tiny: f64) -> Option<f64> {
    let at = if coef > 0.0 {
        bounds.start
    } else if coef < 0.0 {
        bounds.end
    } else {
        return Some(0.0);
    };
    if at.is_finite() {
        Some(coef * at)
    } else if coef.abs() <= tiny {
        Some(coef * value)
    } else {
        None
    }
}

/// Bounded-variable dual simplex. Requires a dual-feasible reduced-cost
/// row; terminates `Optimal` once every basic value is within its bounds
/// and `Infeasible` when a violated row admits no entering column (the row
/// is a certificate of primal infeasibility).
pub(crate) fn dual_iterate(
    tab: &mut Tableau,
    opts: &SimplexOptions,
    total_iters: &mut usize,
) -> Result<LpStatus, LpError> {
    let tol = opts.tol;
    let mut degenerate = 0usize;
    let mut bland = false;

    loop {
        if *total_iters >= opts.max_iters {
            return Err(LpError::IterationLimit {
                iterations: *total_iters,
            });
        }

        // ---- leaving row: largest bound violation among basics ----
        let m = tab.basis.len();
        let mut leave: Option<(usize, f64, bool)> = None; // (row, violation, below)
        for r in 0..m {
            let bcol = tab.basis[r];
            let v = tab.xb[r];
            let cand = if v < tab.lb[bcol] - tol {
                Some((tab.lb[bcol] - v, true))
            } else if v > tab.ub[bcol] + tol {
                Some((v - tab.ub[bcol], false))
            } else {
                None
            };
            let Some((viol, below)) = cand else { continue };
            if bland {
                // Anti-cycling: smallest row index.
                leave = Some((r, viol, below));
                break;
            }
            if leave.is_none_or(|(_, best, _)| viol > best) {
                leave = Some((r, viol, below));
            }
        }
        let Some((r, _, below)) = leave else {
            return Ok(LpStatus::Optimal);
        };
        *total_iters += 1;

        // ---- dual ratio test ----
        // The leaving basic exits at its violated bound. Moving xb[r]
        // toward that bound needs an entering column whose direction of
        // motion is admissible for its own state; among those, the
        // smallest |d|/|α| keeps every reduced cost sign-feasible.
        let mut enter: Option<(usize, f64)> = None; // (col, ratio)
        for j in 0..tab.ncols() {
            let st = tab.state[j];
            if st == VarState::Basic || tab.lb[j] == tab.ub[j] {
                continue;
            }
            let alpha = tab.t[(r, j)];
            if alpha.abs() <= tol {
                continue;
            }
            let ok = match st {
                // below: xb[r] must increase, so an at-lower variable
                // (which can only increase) needs α < 0, and an at-upper
                // variable (which can only decrease) needs α > 0.
                VarState::AtLower => (alpha < 0.0) == below,
                VarState::AtUpper => (alpha > 0.0) == below,
                VarState::FreeZero => true,
                VarState::Basic => continue,
            };
            if !ok {
                continue;
            }
            let ratio = tab.d[j].abs() / alpha.abs();
            // Ties resolve to the smallest column index via scan order.
            if enter.is_none_or(|(_, best)| ratio < best - 1e-12) {
                enter = Some((j, ratio));
            }
        }
        let Some((q, _)) = enter else {
            return Ok(LpStatus::Infeasible);
        };

        // ---- pivot ----
        let bcol = tab.basis[r];
        let target = if below { tab.lb[bcol] } else { tab.ub[bcol] };
        let alpha = tab.t[(r, q)];
        let delta = (tab.xb[r] - target) / alpha;
        if !delta.is_finite() {
            return Err(LpError::Numerical("dual step non-finite"));
        }
        if delta.abs() <= 1e-12 {
            degenerate += 1;
            if degenerate > opts.stall_iters {
                bland = true;
            }
        } else {
            degenerate = 0;
            bland = false;
        }
        for i in 0..m {
            if i == r {
                continue;
            }
            let w = tab.t[(i, q)];
            if w.abs() > 0.0 {
                tab.xb[i] -= delta * w;
            }
        }
        let v_enter = tab.value(q) + delta;
        tab.state[bcol] = if below {
            VarState::AtLower
        } else {
            VarState::AtUpper
        };
        tab.pivot(r, q, v_enter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ConstraintSense;
    use crate::solve;

    fn sample() -> LpProblem {
        // minimize −x − 2y  s.t.  x + y ≤ 10, 0 ≤ x,y ≤ 8
        let mut p = LpProblem::new();
        let x = p.add_var("x", 0.0, 8.0);
        let y = p.add_var("y", 0.0, 8.0);
        p.add_row(&[(x, 1.0), (y, 1.0)], ConstraintSense::Le, 10.0);
        p.set_objective(&[(x, -1.0), (y, -2.0)]);
        p
    }

    #[test]
    fn solve_keep_matches_solve() {
        let p = sample();
        let opts = SimplexOptions::default();
        let cold = solve(&p, &opts).unwrap();
        let (kept, warm) = solve_keep(&p, &opts).unwrap();
        assert_eq!(kept.status, LpStatus::Optimal);
        assert_eq!(kept.x, cold.x);
        assert_eq!(kept.objective, cold.objective);
        assert!(warm.is_some(), "feasible LP should yield a warm handle");
    }

    #[test]
    fn appended_cut_matches_cold_rebuild() {
        let mut p = sample();
        let opts = SimplexOptions::default();
        let (_, warm) = solve_keep(&p, &opts).unwrap();
        let mut warm = warm.unwrap();

        // Cut off the old optimum (2, 8): x + 3y ≤ 20 (new unique optimum
        // at (5, 5) — deliberately not parallel to the objective).
        warm.append_le_row(&[(0, 1.0), (1, 3.0)], 20.0).unwrap();
        let warm_sol = warm.resolve(&opts).unwrap();

        p.add_row(&[(0, 1.0), (1, 3.0)], ConstraintSense::Le, 20.0);
        let cold_sol = solve(&p, &opts).unwrap();

        assert_eq!(warm_sol.status, LpStatus::Optimal);
        assert!((warm_sol.objective - cold_sol.objective).abs() < 1e-9);
        for (a, b) in warm_sol.x.iter().zip(&cold_sol.x) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(warm_sol.row_duals.len(), 2);
    }

    #[test]
    fn tightened_bound_matches_cold_rebuild() {
        let p = sample();
        let opts = SimplexOptions::default();
        let (_, warm) = solve_keep(&p, &opts).unwrap();
        let mut warm = warm.unwrap();

        // Optimum sits at y = 8; force y ≤ 5.
        warm.set_var_bounds(1, 0.0, 5.0);
        let warm_sol = warm.resolve(&opts).unwrap();

        let mut p2 = sample();
        p2.set_bounds(1, 0.0, 5.0);
        let cold_sol = solve(&p2, &opts).unwrap();

        assert_eq!(warm_sol.status, LpStatus::Optimal);
        assert!((warm_sol.objective - cold_sol.objective).abs() < 1e-9);
        for (a, b) in warm_sol.x.iter().zip(&cold_sol.x) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn infeasible_tightening_is_detected() {
        // x + y ≥ 12 with both ≤ 8 is feasible; then cap both at 5.
        let mut p = LpProblem::new();
        let x = p.add_var("x", 0.0, 8.0);
        let y = p.add_var("y", 0.0, 8.0);
        p.add_row(&[(x, 1.0), (y, 1.0)], ConstraintSense::Ge, 12.0);
        p.set_objective(&[(x, 1.0), (y, 1.0)]);
        let opts = SimplexOptions::default();
        let (sol, warm) = solve_keep(&p, &opts).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        let mut warm = warm.unwrap();
        warm.set_var_bounds(0, 0.0, 5.0);
        warm.set_var_bounds(1, 0.0, 5.0);
        let re = warm.resolve(&opts).unwrap();
        assert_eq!(re.status, LpStatus::Infeasible);
    }

    #[test]
    fn certificate_rejects_a_feasible_suboptimal_point() {
        let opts = SimplexOptions::default();
        let (sol, warm) = solve_keep(&sample(), &opts).unwrap();
        let warm = warm.unwrap();
        assert!(warm.certifies_optimal(&sol));
        // (5, 5) satisfies every row and bound but is 3 above the optimum.
        let worse = LpSolution {
            x: vec![5.0, 5.0],
            objective: -15.0,
            ..sol.clone()
        };
        assert!(!warm.certifies_optimal(&worse));
        // A violated row fails the primal half whatever the objective.
        let outside = LpSolution {
            x: vec![4.0, 8.0],
            objective: -20.0,
            ..sol
        };
        assert!(!warm.certifies_optimal(&outside));
    }

    #[test]
    fn drifted_tableau_answers_are_errors_not_answers() {
        let opts = SimplexOptions::default();
        // The appended cut x + 3y ≤ 20 cuts off the optimum (2, 8); a
        // tableau that lost track of the violation would call (2, 8)
        // optimal.
        let (_, warm) = solve_keep(&sample(), &opts).unwrap();
        let mut drifted = warm.unwrap();
        drifted.append_le_row(&[(0, 1.0), (1, 3.0)], 20.0).unwrap();
        let cut = drifted.num_rows() - 1;
        drifted.tab.xb[cut] = 1.0;
        assert!(drifted.resolve(&opts).is_err());

        // A cut row whose tableau entries decayed to zero admits no
        // entering column, so the dual simplex calls the (feasible)
        // problem infeasible.
        let (_, warm) = solve_keep(&sample(), &opts).unwrap();
        let mut drifted = warm.unwrap();
        drifted.append_le_row(&[(0, 1.0), (1, 3.0)], 20.0).unwrap();
        let cut = drifted.num_rows() - 1;
        for j in 0..drifted.tab.ncols() {
            if drifted.tab.basis[cut] != j {
                drifted.tab.t[(cut, j)] = 0.0;
            }
        }
        assert!(drifted.resolve(&opts).is_err());
    }

    #[test]
    fn repeated_cut_appends_stay_consistent() {
        // Kelley-style: cut the optimum repeatedly; each warm resolve must
        // track the cold rebuild of the same row set.
        let mut p = sample();
        let opts = SimplexOptions::default();
        let (_, warm) = solve_keep(&p, &opts).unwrap();
        let mut warm = warm.unwrap();
        let cuts = [
            (vec![(0usize, 1.0), (1usize, 2.0)], 14.0),
            (vec![(0, 2.0), (1, 1.0)], 13.0),
            (vec![(0, 1.0), (1, 1.0)], 8.5),
        ];
        for (terms, rhs) in &cuts {
            warm.append_le_row(terms, *rhs).unwrap();
            let ws = warm.resolve(&opts).unwrap();
            p.add_row(terms, ConstraintSense::Le, *rhs);
            let cs = solve(&p, &opts).unwrap();
            assert_eq!(ws.status, cs.status);
            assert!((ws.objective - cs.objective).abs() < 1e-9);
        }
        assert_eq!(warm.num_rows(), 4);
    }
}
