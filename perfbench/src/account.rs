//! Operation accounting: every attempted operation ends either ok or
//! failed, and a failure keeps its key and first error line.

/// One failed operation.
#[derive(Debug, Clone)]
pub struct Failure {
    pub key: String,
    pub error: String,
    /// A correctness mismatch (wrong answer) rather than an error.
    pub mismatch: bool,
}

/// Tally of one run's operations. Operations are counted once when
/// started and once more by outcome, so the two counts check each other.
#[derive(Debug, Default)]
pub struct Ledger {
    started: u64,
    ok: u64,
    failures: Vec<Failure>,
}

impl Ledger {
    /// Count an operation as it starts, before its outcome is known.
    pub fn start(&mut self) {
        self.started += 1;
    }

    pub fn ok(&mut self) {
        self.ok += 1;
    }

    /// Record a failed operation (typed error, refusal or timeout).
    pub fn fail(&mut self, key: &str, error: &str) {
        self.failures.push(Failure {
            key: key.to_string(),
            error: first_line(error),
            mismatch: false,
        });
    }

    /// Reclassify one ok operation as failed because its answer did not
    /// match the reference. The operation stays attempted exactly once.
    pub fn mismatch(&mut self, key: &str, detail: &str) {
        self.ok = self.ok.saturating_sub(1);
        self.failures.push(Failure {
            key: key.to_string(),
            error: first_line(detail),
            mismatch: true,
        });
    }

    pub fn absorb(&mut self, other: Ledger) {
        self.started += other.started;
        self.ok += other.ok;
        self.failures.extend(other.failures);
    }

    pub fn ok_count(&self) -> u64 {
        self.ok
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Operations started.
    pub fn attempted(&self) -> u64 {
        self.started
    }

    pub fn mismatches(&self) -> usize {
        self.failures.iter().filter(|f| f.mismatch).count()
    }

    pub fn failures(&self) -> &[Failure] {
        &self.failures
    }

    /// The conservation identity: ok + failed == attempted, with every
    /// failure carrying a key and an error line.
    pub fn conserved(&self) -> bool {
        self.ok + self.failed() == self.started
            && self
                .failures
                .iter()
                .all(|f| !f.key.is_empty() && !f.error.is_empty())
    }
}

fn first_line(text: &str) -> String {
    let line = text.lines().next().unwrap_or("").trim();
    if line.is_empty() {
        "(empty error)".to_string()
    } else {
        line.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_plus_failed_is_attempted() {
        let mut l = Ledger::default();
        for _ in 0..6 {
            l.start();
        }
        for _ in 0..5 {
            l.ok();
        }
        l.fail("k1", "boom\nstack");
        l.mismatch("k2", "fingerprint differs");
        assert_eq!(l.ok_count(), 4);
        assert_eq!(l.failed(), 2);
        assert_eq!(l.attempted(), 6);
        assert!(l.conserved());
        assert_eq!(l.failures()[0].error, "boom");
        assert_eq!(l.mismatches(), 1);
        // An operation started without an outcome breaks the identity.
        l.start();
        assert!(!l.conserved());
    }

    #[test]
    fn absorb_preserves_the_identity() {
        let mut a = Ledger::default();
        a.start();
        a.start();
        a.ok();
        a.fail("x", "");
        let mut b = Ledger::default();
        b.start();
        b.ok();
        // An outcome without a started operation breaks it too.
        b.ok();
        assert!(!b.conserved());
        b.start();
        a.absorb(b);
        assert_eq!(a.attempted(), 4);
        assert!(a.conserved());
        assert_eq!(a.failures()[0].error, "(empty error)");
    }
}
