//! Box-constrained least squares for performance-curve fitting.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//!
//! Step 2 of the paper's HSLB algorithm fits the performance model
//!
//! ```text
//! T_j(n) = a_j / n + b_j · n^{c_j} + d_j        (Table II, line 1)
//! ```
//!
//! to the benchmark timings of each CESM component by solving
//!
//! ```text
//! min_{a,b,c,d ≥ 0}  Σ_i ( y_ji − a_j/n_ji − b_j·n_ji^{c_j} − d_j )²   (Table II, line 10)
//! ```
//!
//! For a fixed exponent `c` the model is linear in `(a, b, d)`, so
//! [`fit_scaling`] solves that box-constrained linear least squares
//! exactly and minimizes the projected residual over `c` alone — variable
//! projection (Golub & Pereyra, 1973). The fit is deterministic and needs
//! no starting point; the paper's §III-C observation that different
//! starting points reach fits of equal quality has nothing left to
//! explore. [`diagnostics`] adds parameter standard errors and prediction
//! intervals for a fitted curve.

pub mod diagnostics;
pub mod scaling;

pub use diagnostics::{diagnose, FitDiagnostics};
pub use scaling::{exponent_grid, fit_scaling, ScalingCurve, ScalingFit, ScalingFitOptions};
