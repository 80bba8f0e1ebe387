//! Pseudo-cost branching statistics.
//!
//! For each integer variable we record the observed per-unit-fraction
//! objective degradation of its down/up branches; future branching
//! decisions prefer variables whose history promises the largest bound
//! movement (product rule). The tree search owns one table per solve and
//! updates it after each node.

/// Branch direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BranchDir {
    /// `x ≤ floor(x̂)`
    Down,
    /// `x ≥ ceil(x̂)`
    Up,
}

#[derive(Debug, Clone, Copy, Default)]
struct VarStat {
    down_sum: f64,
    down_cnt: u32,
    up_sum: f64,
    up_cnt: u32,
}

/// Pseudo-cost table over the integer variables of one instance.
#[derive(Debug)]
pub(crate) struct PseudoCostTable {
    stats: Vec<VarStat>,
}

impl PseudoCostTable {
    /// Fresh table for `nvars` variables.
    pub(crate) fn new(nvars: usize) -> Self {
        PseudoCostTable {
            stats: vec![VarStat::default(); nvars],
        }
    }

    /// Record the bound degradation `delta ≥ 0` observed after branching
    /// `var` in `dir` at fractional part `frac` (per-unit normalization).
    pub(crate) fn update(&mut self, var: usize, dir: BranchDir, frac: f64, delta: f64) {
        if !(delta.is_finite() && frac > 1e-12) {
            return;
        }
        let per_unit = (delta / frac).max(0.0);
        let s = &mut self.stats[var];
        match dir {
            BranchDir::Down => {
                s.down_sum += per_unit;
                s.down_cnt += 1;
            }
            BranchDir::Up => {
                s.up_sum += per_unit;
                s.up_cnt += 1;
            }
        }
    }

    /// Product-rule score of branching `var` at fractionality `frac`
    /// (distance below/above to the nearest integers is `f` and `1−f`).
    /// Unobserved directions fall back to the global average (or 1.0).
    pub(crate) fn score(&self, var: usize, frac_part: f64) -> f64 {
        let global = {
            let (mut sum, mut cnt) = (0.0, 0u32);
            for s in &self.stats {
                sum += s.down_sum + s.up_sum;
                cnt += s.down_cnt + s.up_cnt;
            }
            if cnt > 0 {
                sum / cnt as f64
            } else {
                1.0
            }
        };
        let s = &self.stats[var];
        let down = if s.down_cnt > 0 {
            s.down_sum / s.down_cnt as f64
        } else {
            global
        };
        let up = if s.up_cnt > 0 {
            s.up_sum / s.up_cnt as f64
        } else {
            global
        };
        let f = frac_part;
        (down * f).max(1e-12) * (up * (1.0 - f)).max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Observations of `var` (min over directions).
    fn reliability(t: &PseudoCostTable, var: usize) -> u32 {
        t.stats[var].down_cnt.min(t.stats[var].up_cnt)
    }

    #[test]
    fn updates_accumulate_per_unit() {
        let mut t = PseudoCostTable::new(2);
        t.update(0, BranchDir::Down, 0.5, 2.0); // 4.0 per unit
        t.update(0, BranchDir::Up, 0.25, 1.0); // 4.0 per unit
        assert_eq!(reliability(&t, 0), 1);
        assert_eq!(reliability(&t, 1), 0);
        // Score at f = 0.5: (4·0.5)·(4·0.5) = 4.
        assert!((t.score(0, 0.5) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn unobserved_variables_use_global_average() {
        let mut t = PseudoCostTable::new(2);
        t.update(0, BranchDir::Down, 1.0, 6.0);
        t.update(0, BranchDir::Up, 1.0, 2.0);
        // Global average is 4; var 1 scores with it in both directions.
        assert!((t.score(1, 0.5) - (4.0 * 0.5) * (4.0 * 0.5)).abs() < 1e-9);
    }

    #[test]
    fn ignores_degenerate_updates() {
        let mut t = PseudoCostTable::new(1);
        t.update(0, BranchDir::Down, 0.0, 5.0); // zero fraction: skipped
        t.update(0, BranchDir::Up, 0.5, f64::INFINITY); // non-finite: skipped
        assert_eq!(reliability(&t, 0), 0);
    }

    #[test]
    fn empty_table_scores_fallback() {
        let t = PseudoCostTable::new(1);
        assert!(t.score(0, 0.5) > 0.0);
    }
}
