//! Level 1a: convexity certificates for fitted scaling curves.
//!
//! Outer approximation proves global optimality only when every
//! `T_j(n) = a/n + b·n^c + d` is convex over `n ≥ 1`, i.e. `a, b, d ≥ 0`
//! and `c ∉ (0, 1)`. Fits can drift outside that region — fault-injected
//! gathers, injected synthetic curves, widened exponent bounds — so every
//! solve certifies its curves first and the pipeline degrades to the
//! exhaustive rung on failure instead of mislabeling an incumbent as a
//! proven optimum.

use hslb_cesm::Component;
use hslb_nlsq::ScalingCurve;

/// The explicit tolerance policy for near-zero fitted values.
///
/// Least-squares fits legitimately land *slightly* negative on a
/// coefficient whose true value is zero (a flat land curve, say). The
/// policy is: a coefficient in `[-coeff, 0)` is classified
/// [`CoeffClass::NearZero`] and **treated as exactly zero** — tolerated
/// here and mirrored by the model-side convexity verifier so both levels
/// agree on the sign of every constant. Anything below `-coeff` is a hard
/// violation. The same idea applies to the exponent: `|b| ≤ coeff` frees
/// `c` entirely (the power term is absent), and `c` within `exponent` of
/// the concave interval's endpoints `{0, 1}` is read as the endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonPolicy {
    /// Absolute tolerance on coefficient signs (`a`, `b`, `d`).
    pub coeff: f64,
    /// Absolute tolerance on the exponent's distance to `(0, 1)`.
    pub exponent: f64,
}

impl Default for EpsilonPolicy {
    /// Component times are O(1)–O(1e5) seconds, so 1e-9 sits far below
    /// fit noise while still catching any real sign flip.
    fn default() -> Self {
        EpsilonPolicy {
            coeff: 1e-9,
            exponent: 1e-9,
        }
    }
}

impl EpsilonPolicy {
    /// Classify one coefficient under the policy.
    pub fn classify(&self, value: f64) -> CoeffClass {
        if !value.is_finite() {
            CoeffClass::NonFinite
        } else if value >= 0.0 {
            CoeffClass::Nonnegative
        } else if value >= -self.coeff {
            CoeffClass::NearZero
        } else {
            CoeffClass::Negative
        }
    }

    /// The sign of a constant as the verifier sees it: values within
    /// `coeff` of zero are zero.
    pub fn sign(&self, value: f64) -> std::cmp::Ordering {
        if value.abs() <= self.coeff {
            std::cmp::Ordering::Equal
        } else {
            value.partial_cmp(&0.0).unwrap_or(std::cmp::Ordering::Less)
        }
    }
}

/// How a fitted coefficient relates to the nonnegativity requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoeffClass {
    /// `≥ 0`: exactly what convexity needs.
    Nonnegative,
    /// In `[-ε, 0)`: treated as zero, tolerated, recorded.
    NearZero,
    /// Below `-ε`: breaks convexity — a hard violation.
    Negative,
    /// NaN/∞: the fit itself is broken — a hard violation.
    NonFinite,
}

impl CoeffClass {
    pub fn is_violation(self) -> bool {
        matches!(self, CoeffClass::Negative | CoeffClass::NonFinite)
    }
}

/// One coefficient's audit line.
#[derive(Debug, Clone)]
pub struct CoefficientFinding {
    /// `"a"`, `"b"` or `"d"`.
    pub name: &'static str,
    pub value: f64,
    pub class: CoeffClass,
}

/// The certificate for one component's fitted curve.
#[derive(Debug, Clone)]
pub struct ComponentCertificate {
    pub component: Component,
    pub curve: ScalingCurve,
    /// Sign findings for `a`, `b`, `d` (in that order).
    pub coefficients: Vec<CoefficientFinding>,
    /// True when the exponent check passed (`c ∉ (ε, 1−ε)` whenever the
    /// power term is present).
    pub exponent_ok: bool,
    /// Deterministic violation messages (empty = certified convex).
    pub violations: Vec<String>,
}

impl ComponentCertificate {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The certificate for a whole fit set, ordered by component.
#[derive(Debug, Clone)]
pub struct ConvexityCertificate {
    pub epsilon: EpsilonPolicy,
    pub components: Vec<ComponentCertificate>,
}

impl ConvexityCertificate {
    pub fn passed(&self) -> bool {
        self.components.iter().all(ComponentCertificate::passed)
    }

    pub fn violation_count(&self) -> usize {
        self.components.iter().map(|c| c.violations.len()).sum()
    }
}

impl std::fmt::Display for ConvexityCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for c in &self.components {
            writeln!(
                f,
                "  curve {}: {} (a={:.6e} b={:.6e} c={:.6} d={:.6e})",
                c.component,
                if c.passed() { "convex" } else { "NOT CONVEX" },
                c.curve.a,
                c.curve.b,
                c.curve.c,
                c.curve.d,
            )?;
            for v in &c.violations {
                writeln!(f, "    violation: {v}")?;
            }
            for cf in &c.coefficients {
                if cf.class == CoeffClass::NearZero {
                    writeln!(
                        f,
                        "    note: {} = {:.3e} within ε = {:.1e} of zero; treated as 0",
                        cf.name, cf.value, self.epsilon.coeff
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// Certify one curve under the policy.
pub fn certify_component(
    component: Component,
    curve: &ScalingCurve,
    eps: EpsilonPolicy,
) -> ComponentCertificate {
    let mut violations = Vec::new();
    let coefficients: Vec<CoefficientFinding> = [("a", curve.a), ("b", curve.b), ("d", curve.d)]
        .into_iter()
        .map(|(name, value)| {
            let class = eps.classify(value);
            match class {
                CoeffClass::Negative => violations.push(format!(
                    "coefficient {name} = {value:.6e} < -ε (ε = {:.1e}): term is concave",
                    eps.coeff
                )),
                CoeffClass::NonFinite => {
                    violations.push(format!("coefficient {name} = {value} is not finite"))
                }
                _ => {}
            }
            CoefficientFinding { name, value, class }
        })
        .collect();

    // Exponent: only constrains when the power term is actually present.
    let b_present = curve.b.is_finite() && curve.b.abs() > eps.coeff;
    let mut exponent_ok = true;
    if !curve.c.is_finite() {
        exponent_ok = false;
        violations.push(format!("exponent c = {} is not finite", curve.c));
    } else if b_present && curve.c > eps.exponent && curve.c < 1.0 - eps.exponent {
        exponent_ok = false;
        violations.push(format!(
            "exponent c = {:.6} lies in the concave interval (0, 1) with b = {:.6e} ≠ 0",
            curve.c, curve.b
        ));
    }

    ComponentCertificate {
        component,
        curve: *curve,
        coefficients,
        exponent_ok,
        violations,
    }
}

/// Certify a set of fitted curves (sorted by component for deterministic
/// output).
pub fn certify(curves: &[(Component, ScalingCurve)], eps: EpsilonPolicy) -> ConvexityCertificate {
    let mut pairs: Vec<&(Component, ScalingCurve)> = curves.iter().collect();
    pairs.sort_by_key(|(c, _)| *c);
    ConvexityCertificate {
        epsilon: eps,
        components: pairs
            .into_iter()
            .map(|(c, curve)| certify_component(*c, curve, eps))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(a: f64, b: f64, c: f64, d: f64) -> ScalingCurve {
        ScalingCurve { a, b, c, d }
    }

    #[test]
    fn convex_curve_passes() {
        let cert = certify_component(
            Component::Atm,
            &curve(100.0, 0.5, 1.2, 3.0),
            EpsilonPolicy::default(),
        );
        assert!(cert.passed());
        assert!(cert.exponent_ok);
        // Matches the solver's own notion.
        assert!(cert.curve.is_convex());
    }

    #[test]
    fn negative_b_fails_with_deterministic_message() {
        let cert = certify_component(
            Component::Ice,
            &curve(10.0, -2.0, 1.5, 0.0),
            EpsilonPolicy::default(),
        );
        assert!(!cert.passed());
        assert!(cert.violations[0].contains("coefficient b"));
        // Same message every run.
        let again = certify_component(
            Component::Ice,
            &curve(10.0, -2.0, 1.5, 0.0),
            EpsilonPolicy::default(),
        );
        assert_eq!(cert.violations, again.violations);
    }

    #[test]
    fn concave_exponent_fails_only_when_b_present() {
        let eps = EpsilonPolicy::default();
        let bad = certify_component(Component::Ocn, &curve(10.0, 1.0, 0.5, 0.0), eps);
        assert!(!bad.passed() && !bad.exponent_ok);
        // b ≈ 0 frees the exponent: the power term is absent.
        let free = certify_component(Component::Ocn, &curve(10.0, 0.0, 0.5, 0.0), eps);
        assert!(free.passed());
        // Negative exponents are convex over n ≥ 1 (decreasing power).
        let neg = certify_component(Component::Ocn, &curve(10.0, 1.0, -0.5, 0.0), eps);
        assert!(neg.passed());
    }

    #[test]
    fn near_zero_negative_is_tolerated_and_recorded() {
        let eps = EpsilonPolicy::default();
        let cert = certify_component(Component::Lnd, &curve(5.0, -1e-12, 1.0, 0.0), eps);
        assert!(cert.passed(), "{:?}", cert.violations);
        assert_eq!(cert.coefficients[1].class, CoeffClass::NearZero);
        // is_convex() is stricter (exact zero); the ε-policy is the
        // documented divergence.
        assert!(!cert.curve.is_convex());
    }

    #[test]
    fn non_finite_fit_is_a_hard_violation() {
        let cert = certify_component(
            Component::Atm,
            &curve(f64::NAN, 1.0, 1.0, 0.0),
            EpsilonPolicy::default(),
        );
        assert!(!cert.passed());
        assert_eq!(cert.coefficients[0].class, CoeffClass::NonFinite);
    }

    #[test]
    fn certify_sorts_by_component() {
        let eps = EpsilonPolicy::default();
        let cs = certify(
            &[
                (Component::Ocn, curve(1.0, 0.0, 1.0, 0.0)),
                (Component::Lnd, curve(1.0, 0.0, 1.0, 0.0)),
            ],
            eps,
        );
        let order: Vec<Component> = cs.components.iter().map(|c| c.component).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
    }
}
