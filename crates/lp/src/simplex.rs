//! Two-phase bounded-variable primal simplex on a dense tableau.

use crate::problem::{ConstraintSense, LpProblem};
use hslb_numerics::Matrix;

/// Termination status of a simplex solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below over the feasible region.
    Unbounded,
}

/// Hard failures (distinct from infeasible/unbounded, which are answers).
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The iteration limit was exhausted before termination.
    IterationLimit { iterations: usize },
    /// Numerical breakdown (NaN propagated into the tableau).
    Numerical(&'static str),
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::IterationLimit { iterations } => {
                write!(f, "simplex iteration limit reached ({iterations})")
            }
            LpError::Numerical(what) => write!(f, "numerical breakdown: {what}"),
        }
    }
}

impl std::error::Error for LpError {}

/// Options controlling the simplex iteration.
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Absolute iteration limit across both phases.
    pub max_iters: usize,
    /// Feasibility / pivot tolerance.
    pub tol: f64,
    /// Number of non-improving iterations after which pricing switches from
    /// Dantzig to Bland's rule (anti-cycling).
    pub stall_iters: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iters: 50_000,
            tol: 1e-9,
            stall_iters: 200,
        }
    }
}

/// Result of a simplex solve.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Optimal / infeasible / unbounded.
    pub status: LpStatus,
    /// Values of the structural variables (meaningful when `Optimal`; a
    /// feasible point of the phase-1 relaxation otherwise).
    pub x: Vec<f64>,
    /// Objective value `cᵀx` (meaningful when `Optimal`).
    pub objective: f64,
    /// Total simplex iterations across both phases.
    pub iterations: usize,
    /// Dual value (shadow price) per constraint row: the rate of change
    /// of the optimal objective per unit of that row's rhs. Read off the
    /// final reduced-cost row at the slack columns (`y_i = −d_{slack_i}`).
    /// Meaningful when `Optimal`; zero for rows whose constraint is slack.
    pub row_duals: Vec<f64>,
}

/// Where a nonbasic variable currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarState {
    Basic,
    AtLower,
    AtUpper,
    /// Free nonbasic variable parked at zero.
    FreeZero,
}

/// The dense working problem: structurals, then one slack per row, then
/// artificials. All rows are equalities `A·x = b` with bounds on columns.
/// Shared with the dual-simplex warm path (`crate::dual`), which edits it
/// incrementally instead of rebuilding.
#[derive(Debug, Clone)]
pub(crate) struct Tableau {
    /// `B⁻¹·A`, m × ncols.
    pub(crate) t: Matrix,
    /// Values of the basic variables, one per row.
    pub(crate) xb: Vec<f64>,
    /// Basic column per row.
    pub(crate) basis: Vec<usize>,
    /// Per-column state.
    pub(crate) state: Vec<VarState>,
    /// Per-column bounds.
    pub(crate) lb: Vec<f64>,
    pub(crate) ub: Vec<f64>,
    /// Reduced-cost row for the current phase.
    pub(crate) d: Vec<f64>,
    /// Current-phase cost per column.
    pub(crate) cost: Vec<f64>,
    /// First artificial column index (== ncols when none).
    pub(crate) first_artificial: usize,
}

impl Tableau {
    pub(crate) fn ncols(&self) -> usize {
        self.lb.len()
    }

    /// Current value of column `j` given its state.
    pub(crate) fn value(&self, j: usize) -> f64 {
        match self.state[j] {
            VarState::Basic => {
                // Rare path; callers use xb by row where possible. A
                // `Basic` state without a basis row is a broken tableau.
                #[allow(clippy::expect_used)]
                let r = self
                    .basis
                    .iter()
                    .position(|&b| b == j)
                    .expect("basic var in basis");
                self.xb[r]
            }
            VarState::AtLower => self.lb[j],
            VarState::AtUpper => self.ub[j],
            VarState::FreeZero => 0.0,
        }
    }

    /// Recompute the reduced-cost row from scratch for the current costs.
    pub(crate) fn recompute_costs(&mut self) {
        self.d.copy_from_slice(&self.cost);
        for (r, &bcol) in self.basis.iter().enumerate() {
            let cb = self.cost[bcol];
            if cb == 0.0 {
                continue;
            }
            let row = self.t.row(r);
            for (dj, a) in self.d.iter_mut().zip(row) {
                *dj -= cb * a;
            }
        }
        // Reduced costs of basic columns are exactly zero by construction;
        // enforce it to stop drift from excluding them as "eligible".
        for &bcol in &self.basis {
            self.d[bcol] = 0.0;
        }
    }

    /// Objective of the current phase at the current point.
    pub(crate) fn phase_objective(&self) -> f64 {
        let mut z = 0.0;
        for j in 0..self.ncols() {
            let c = self.cost[j];
            if c == 0.0 {
                continue;
            }
            z += c * match self.state[j] {
                VarState::Basic => continue_basic(self, j),
                VarState::AtLower => self.lb[j],
                VarState::AtUpper => self.ub[j],
                VarState::FreeZero => 0.0,
            };
        }
        z
    }
}

/// Helper: value of a basic column (linear scan is fine — only used for
/// objective reporting, not in the pivot loop).
fn continue_basic(tab: &Tableau, j: usize) -> f64 {
    // Callers pass a column the tableau reports as basic.
    #[allow(clippy::expect_used)]
    let r = tab
        .basis
        .iter()
        .position(|&b| b == j)
        .expect("basic var in basis");
    tab.xb[r]
}

/// Solve an LP with the two-phase bounded-variable simplex.
///
/// # Examples
///
/// ```
/// use hslb_lp::{solve, ConstraintSense, LpProblem, LpStatus, SimplexOptions};
///
/// // maximize x + 2y  s.t.  x + y ≤ 10, 0 ≤ x,y ≤ 8  (minimize −x − 2y)
/// let mut p = LpProblem::new();
/// let x = p.add_var("x", 0.0, 8.0);
/// let y = p.add_var("y", 0.0, 8.0);
/// p.add_row(&[(x, 1.0), (y, 1.0)], ConstraintSense::Le, 10.0);
/// p.set_objective(&[(x, -1.0), (y, -2.0)]);
///
/// let s = solve(&p, &SimplexOptions::default()).unwrap();
/// assert_eq!(s.status, LpStatus::Optimal);
/// assert_eq!(s.x, vec![2.0, 8.0]);
/// assert_eq!(s.objective, -18.0);
/// ```
pub fn solve(p: &LpProblem, opts: &SimplexOptions) -> Result<LpSolution, LpError> {
    solve_impl(p, opts, false).map(|(s, _)| s)
}

/// Two-phase solve that can also hand back the live tableau.
///
/// When `keep` is set and the solve terminates `Optimal`, the second tuple
/// element is a [`WarmLp`](crate::dual::WarmLp) wrapping the final tableau
/// (artificial columns stripped) for incremental re-solves: cut-row appends
/// and bound tightenings followed by dual-simplex repair. It is `None` when
/// a redundant row left an artificial basic — callers fall back to cold
/// solves in that (rare) case.
pub(crate) fn solve_impl(
    p: &LpProblem,
    opts: &SimplexOptions,
    keep: bool,
) -> Result<(LpSolution, Option<crate::dual::WarmLp>), LpError> {
    let n = p.num_vars();
    let m = p.num_rows();
    let tol = opts.tol;

    // ----- assemble the equality form -----
    // Columns: [structurals | slacks | artificials...]
    let mut lb = Vec::with_capacity(n + m);
    let mut ub = Vec::with_capacity(n + m);
    for v in &p.vars {
        lb.push(v.lb);
        ub.push(v.ub);
    }
    for row in &p.rows {
        // a·x + s = rhs with slack bounds by sense.
        let (sl, su) = match row.sense {
            ConstraintSense::Le => (0.0, f64::INFINITY),
            ConstraintSense::Ge => (f64::NEG_INFINITY, 0.0),
            ConstraintSense::Eq => (0.0, 0.0),
        };
        lb.push(sl);
        ub.push(su);
    }

    // Dense constraint matrix over structurals + slacks.
    let mut a = Matrix::zeros(m, n + m);
    let mut b = vec![0.0; m];
    for (i, row) in p.rows.iter().enumerate() {
        for &(v, c) in &row.terms {
            a[(i, v)] += c;
        }
        a[(i, n + i)] = 1.0;
        b[i] = row.rhs;
    }

    // Initial nonbasic point: every structural at its finite bound nearest
    // zero (or zero if free). Slacks are candidates for the initial basis.
    let mut state = vec![VarState::AtLower; n + m];
    for j in 0..n {
        state[j] = initial_state(lb[j], ub[j]);
    }
    let x0: Vec<f64> = (0..n)
        .map(|j| match state[j] {
            VarState::AtLower => lb[j],
            VarState::AtUpper => ub[j],
            VarState::FreeZero => 0.0,
            VarState::Basic => unreachable!(),
        })
        .collect();

    // Residual per row at the initial structural point.
    let mut resid = vec![0.0; m];
    for i in 0..m {
        let mut s = b[i];
        for &(v, c) in &p.rows[i].terms {
            s -= c * x0[v];
        }
        resid[i] = s; // the value the slack would need to take
    }

    // Choose basis: slack when its needed value is within bounds, otherwise
    // clamp the slack to its nearest bound and add an artificial.
    let mut basis = vec![0usize; m];
    let mut xb = vec![0.0; m];
    let mut art_cols: Vec<(usize, f64)> = Vec::new(); // (row, sign)
    for i in 0..m {
        let sj = n + i;
        if resid[i] >= lb[sj] - tol && resid[i] <= ub[sj] + tol {
            basis[i] = sj;
            state[sj] = VarState::Basic;
            xb[i] = resid[i].clamp(lb[sj], ub[sj]);
        } else {
            // Park the slack at the bound nearest the needed value.
            let clamped = if resid[i] < lb[sj] { lb[sj] } else { ub[sj] };
            state[sj] = if clamped == lb[sj] {
                VarState::AtLower
            } else {
                VarState::AtUpper
            };
            let r = resid[i] - clamped;
            art_cols.push((i, r.signum()));
            xb[i] = r.abs();
        }
    }

    // Append artificial columns.
    let first_artificial = n + m;
    let ncols = n + m + art_cols.len();
    let mut full = Matrix::zeros(m, ncols);
    for i in 0..m {
        let src = a.row(i);
        full.row_mut(i)[..n + m].copy_from_slice(src);
    }
    for (k, &(row, sign)) in art_cols.iter().enumerate() {
        full[(row, first_artificial + k)] = sign;
        lb.push(0.0);
        ub.push(f64::INFINITY);
        state.push(VarState::Basic);
    }
    for (k, &(row, _)) in art_cols.iter().enumerate() {
        basis[row] = first_artificial + k;
    }

    // B is diagonal with entries 1 (slack basic) or ±1 (artificial basic);
    // normalize rows so the tableau is B⁻¹·A.
    for (row, sign) in &art_cols {
        if *sign < 0.0 {
            let r = full.row_mut(*row);
            for v in r.iter_mut() {
                *v = -*v;
            }
        }
    }

    let mut tab = Tableau {
        t: full,
        xb,
        basis,
        state,
        lb,
        ub,
        d: vec![0.0; ncols],
        cost: vec![0.0; ncols],
        first_artificial,
    };

    let mut total_iters = 0usize;

    // ----- phase 1 -----
    if !art_cols.is_empty() {
        for j in first_artificial..ncols {
            tab.cost[j] = 1.0;
        }
        tab.recompute_costs();
        let st = iterate(&mut tab, opts, &mut total_iters)?;
        if st == LpStatus::Unbounded {
            // Phase-1 objective is bounded below by zero; reaching here
            // means numerical trouble.
            return Err(LpError::Numerical("phase-1 reported unbounded"));
        }
        let infeas = tab.phase_objective();
        if infeas > 1e-7 {
            return Ok((
                LpSolution {
                    status: LpStatus::Infeasible,
                    x: extract(&tab, n),
                    objective: f64::INFINITY,
                    iterations: total_iters,
                    row_duals: vec![0.0; m],
                },
                None,
            ));
        }
        // Fix artificials at zero so they can never re-enter.
        for j in first_artificial..ncols {
            tab.lb[j] = 0.0;
            tab.ub[j] = 0.0;
            if tab.state[j] != VarState::Basic {
                tab.state[j] = VarState::AtLower;
            }
        }
        // Pivot basic artificials out where possible (they sit at zero, so
        // these pivots are degenerate and safe).
        drive_out_artificials(&mut tab, tol);
    }

    // ----- phase 2 -----
    for j in 0..tab.ncols() {
        tab.cost[j] = if j < n { p.objective[j] } else { 0.0 };
    }
    tab.recompute_costs();
    let st = iterate(&mut tab, opts, &mut total_iters)?;

    let x = extract(&tab, n);
    let objective = p.objective_value(&x);
    // Duals: for slack column s_i (unit column e_i, zero cost) the final
    // reduced cost is d = 0 − yᵀe_i, so y_i = −d[slack_i].
    let row_duals: Vec<f64> = (0..m).map(|i| -tab.d[n + i]).collect();
    let warm = if keep && st == LpStatus::Optimal {
        crate::dual::WarmLp::from_tableau(tab, n, p)
    } else {
        None
    };
    Ok((
        LpSolution {
            status: st,
            x,
            objective,
            iterations: total_iters,
            row_duals,
        },
        warm,
    ))
}

pub(crate) fn initial_state(lb: f64, ub: f64) -> VarState {
    match (lb.is_finite(), ub.is_finite()) {
        (true, true) => {
            if lb.abs() <= ub.abs() {
                VarState::AtLower
            } else {
                VarState::AtUpper
            }
        }
        (true, false) => VarState::AtLower,
        (false, true) => VarState::AtUpper,
        (false, false) => VarState::FreeZero,
    }
}

/// Read structural variable values out of the tableau.
pub(crate) fn extract(tab: &Tableau, n: usize) -> Vec<f64> {
    let mut x = vec![0.0; n];
    for (j, xj) in x.iter_mut().enumerate() {
        *xj = match tab.state[j] {
            VarState::Basic => 0.0, // filled below from xb
            VarState::AtLower => tab.lb[j],
            VarState::AtUpper => tab.ub[j],
            VarState::FreeZero => 0.0,
        };
    }
    for (r, &bcol) in tab.basis.iter().enumerate() {
        if bcol < n {
            x[bcol] = tab.xb[r];
        }
    }
    x
}

/// Degenerate pivots to remove artificials from the basis. Rows whose
/// non-artificial entries are all ~zero are redundant; their artificial
/// stays basic at value zero (bounds [0,0] keep it pinned).
fn drive_out_artificials(tab: &mut Tableau, tol: f64) {
    tab.drive_out_artificials_impl(tol);
}

impl Tableau {
    fn drive_out_artificials_impl(&mut self, tol: f64) {
        for r in 0..self.basis.len() {
            let bcol = self.basis[r];
            if bcol < self.first_artificial {
                continue;
            }
            // Find any eligible non-artificial, nonbasic pivot column.
            let mut pivot_col = None;
            for j in 0..self.first_artificial {
                if self.state[j] == VarState::Basic {
                    continue;
                }
                if self.t[(r, j)].abs() > tol {
                    pivot_col = Some(j);
                    break;
                }
            }
            if let Some(q) = pivot_col {
                let vq = self.value(q);
                self.pivot(r, q, vq);
            }
        }
    }

    /// Pivot column `q` into the basis at row `r`; `new_val` is the value
    /// the entering variable takes.
    pub(crate) fn pivot(&mut self, r: usize, q: usize, new_val: f64) {
        let ncols = self.ncols();
        let leaving = self.basis[r];
        let piv = self.t[(r, q)];
        debug_assert!(piv.abs() > 0.0, "zero pivot");
        // Normalize pivot row.
        {
            let row = self.t.row_mut(r);
            for v in row.iter_mut() {
                *v /= piv;
            }
            row[q] = 1.0;
        }
        // Eliminate q from all other rows and the cost row.
        for i in 0..self.basis.len() {
            if i == r {
                continue;
            }
            let f = self.t[(i, q)];
            if f == 0.0 {
                continue;
            }
            // Split-borrow rows i and r.
            let stride = ncols;
            let (ri, rr) = {
                let data = self.t.as_mut_slice();
                if i < r {
                    let (head, tail) = data.split_at_mut(r * stride);
                    (&mut head[i * stride..(i + 1) * stride], &tail[..stride])
                } else {
                    let (head, tail) = data.split_at_mut(i * stride);
                    (&mut tail[..stride], &head[r * stride..(r + 1) * stride])
                }
            };
            for (vi, vr) in ri.iter_mut().zip(rr.iter()) {
                *vi -= f * vr;
            }
            ri[q] = 0.0;
        }
        let dq = self.d[q];
        if dq != 0.0 {
            let row = self.t.row(r);
            for (dj, a) in self.d.iter_mut().zip(row) {
                *dj -= dq * a;
            }
            self.d[q] = 0.0;
        }
        // Status bookkeeping. The leaving variable's new state is set by the
        // caller of the ratio test; here we only know it leaves at a bound,
        // which `iterate` records before calling pivot. For drive-out pivots
        // the leaving artificial sits at zero == both bounds.
        self.basis[r] = q;
        self.state[q] = VarState::Basic;
        if self.state[leaving] == VarState::Basic {
            // Caller did not pre-set it (drive-out path): park at lower.
            self.state[leaving] = VarState::AtLower;
        }
        self.xb[r] = new_val;
    }
}

/// Core simplex loop for the current phase's costs. Returns `Optimal` when
/// no eligible entering column remains, `Unbounded` when a ratio test finds
/// no blocking bound.
pub(crate) fn iterate(
    tab: &mut Tableau,
    opts: &SimplexOptions,
    total_iters: &mut usize,
) -> Result<LpStatus, LpError> {
    let tol = opts.tol;
    let mut stall = 0usize;
    let mut last_obj = f64::INFINITY;
    let mut bland = false;

    loop {
        if *total_iters >= opts.max_iters {
            return Err(LpError::IterationLimit {
                iterations: *total_iters,
            });
        }
        *total_iters += 1;

        // ---- pricing ----
        let mut entering: Option<(usize, f64, f64)> = None; // (col, |d|, dir)
        for j in 0..tab.ncols() {
            let st = tab.state[j];
            // Basic and fixed columns (incl. zeroed artificials) never enter.
            if st == VarState::Basic || tab.lb[j] == tab.ub[j] {
                continue;
            }
            let dj = tab.d[j];
            let dir = match st {
                VarState::AtLower if dj < -tol => 1.0,
                VarState::AtUpper if dj > tol => -1.0,
                VarState::FreeZero if dj.abs() > tol => -dj.signum(),
                _ => continue,
            };
            let score = dj.abs();
            if bland {
                entering = Some((j, score, dir));
                break;
            }
            if entering.is_none_or(|(_, s, _)| score > s) {
                entering = Some((j, score, dir));
            }
        }

        let Some((q, _, dir)) = entering else {
            return Ok(LpStatus::Optimal);
        };

        // ---- ratio test ----
        // Entering moves by t·dir from its current value; basics move by
        // -t·dir·col.
        let mut t_best = f64::INFINITY;
        let mut leave: Option<(usize, VarState)> = None; // (row, leaving state)
        for r in 0..tab.basis.len() {
            let w = dir * tab.t[(r, q)];
            let bcol = tab.basis[r];
            let candidate = if w > tol && tab.lb[bcol].is_finite() {
                // basic decreases toward its lower bound
                Some(((tab.xb[r] - tab.lb[bcol]) / w, VarState::AtLower))
            } else if w < -tol && tab.ub[bcol].is_finite() {
                // basic increases toward its upper bound
                Some(((tab.ub[bcol] - tab.xb[r]) / (-w), VarState::AtUpper))
            } else {
                None
            };
            if let Some((t, st)) = candidate {
                let t = t.max(0.0);
                let better = t < t_best - 1e-12
                    // Bland anti-cycling: among ties, leave by smallest
                    // basis column index.
                    || (bland
                        && t <= t_best + 1e-12
                        && leave.is_none_or(|(lr, _)| bcol < tab.basis[lr]));
                if better {
                    t_best = t.min(t_best);
                    leave = Some((r, st));
                }
            }
        }
        // Bound-flip limit for the entering variable itself.
        let span = tab.ub[q] - tab.lb[q];
        let flip_limit = if tab.state[q] == VarState::FreeZero {
            f64::INFINITY
        } else if span.is_finite() {
            span
        } else {
            f64::INFINITY
        };

        if flip_limit < t_best {
            // ---- bound flip, no basis change ----
            let t = flip_limit;
            for r in 0..tab.basis.len() {
                let w = dir * tab.t[(r, q)];
                tab.xb[r] -= t * w;
            }
            tab.state[q] = match tab.state[q] {
                VarState::AtLower => VarState::AtUpper,
                VarState::AtUpper => VarState::AtLower,
                other => other,
            };
        } else if leave.is_none() {
            return Ok(LpStatus::Unbounded);
        } else {
            // The branch above returned when `leave` was `None`.
            #[allow(clippy::unwrap_used)]
            let (r, leave_state) = leave.unwrap();
            let t = t_best;
            // Update basic values.
            for i in 0..tab.basis.len() {
                let w = dir * tab.t[(i, q)];
                tab.xb[i] -= t * w;
            }
            let v_enter = tab.value(q) + dir * t;
            let leaving = tab.basis[r];
            tab.state[leaving] = leave_state;
            tab.pivot(r, q, v_enter);
        }

        // ---- stall detection → Bland's rule ----
        let obj = tab.phase_objective();
        if obj < last_obj - 1e-12 {
            last_obj = obj;
            stall = 0;
            // Strict improvement means the degenerate plateau is behind
            // us: return to Dantzig pricing. Leaving Bland's rule latched
            // here made the entire rest of the phase crawl through
            // smallest-index pivots after a single early stall.
            bland = false;
        } else {
            stall += 1;
            if stall > opts.stall_iters {
                bland = true;
            }
        }
        if !obj.is_finite() {
            return Err(LpError::Numerical("objective became non-finite"));
        }
    }
}
