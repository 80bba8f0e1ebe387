//! The host's pace: how fast this host's CPU runs right now, against a
//! fixed reference.
//!
//! The benchmark shares a host whose CPU speed moves by a third within
//! seconds and minutes while the hypervisor's steal stays under 1%: the
//! same 30 s `tune_cold` loop ran 152–177 tunes/s in six consecutive
//! runs. A fixed compute kernel owned by the benchmark, run beside every
//! measured operation, slows with the host in step: over those six runs
//! its time and the loop's throughput correlated at 0.99, and throughput
//! times kernel time spread 1.4% where throughput alone spread 9.3%.
//!
//! A workload runs [`Pace::step`] between its operations (outside their
//! timed span) and stores the kernel's time per repetition with each
//! operation, and one step after each set-up ([`setup_secs`]). The speed
//! figures and set-up times are then scaled to the host running at
//! [`REFERENCE_US_PER_REP`]: a latency or CPU time is multiplied, and a
//! rate divided, by reference / measured. The kernel touches no program
//! code, so a change to the program moves the scaled figures exactly as
//! it moves the raw ones.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time per repetition, in microseconds, that the scaled figures
/// refer to: about the kernel's time on a 2.1 GHz Intel Xeon core of a
/// 2-core KVM guest in its faster stretches (its runs measured 1.8–2.3).
pub const REFERENCE_US_PER_REP: f64 = 2.0;

/// One repetition of the reference kernel: curve evaluations with
/// `exp`, `ln` and `powf` (what least-squares fitting spends its time
/// on) and a 6×6 Gaussian elimination. Returns a value the caller must
/// consume so nothing is optimised away.
fn rep(r: usize) -> f64 {
    let mut acc = 0.0f64;
    for i in 0..64 {
        let x = 1.0 + i as f64 * 0.37 + r as f64 * 1e-6;
        acc += 3.1 * (-0.02 * x).exp() + 0.7 * x.ln() + 1.0 / (x + 0.5) + x.powf(0.83);
    }
    let mut m = [[0.0f64; 6]; 6];
    for (i, row) in m.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = ((i * 7 + j * 3 + r) % 11) as f64 + if i == j { 20.0 } else { 0.0 };
        }
    }
    for k in 0..6 {
        let (top, rest) = m.split_at_mut(k + 1);
        let pivot = &top[k];
        for row in rest {
            let f = row[k] / pivot[k];
            for (v, p) in row[k..].iter_mut().zip(&pivot[k..]) {
                *v -= f * p;
            }
        }
    }
    acc + m[5][5]
}

/// The kernel, run a fixed number of repetitions per step.
pub struct Pace {
    reps: usize,
    sink: f64,
}

/// What one [`Pace::step`] measured.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Wall time of the step, in milliseconds.
    pub ms: f64,
    /// Kernel time per repetition, in microseconds.
    pub us_per_rep: f64,
}

impl Pace {
    pub fn new(reps: usize) -> Pace {
        Pace {
            reps: reps.max(1),
            sink: 0.0,
        }
    }

    /// Run the kernel once and time it.
    pub fn step(&mut self) -> Step {
        let t = Instant::now();
        for r in 0..self.reps {
            self.sink += rep(black_box(r));
        }
        black_box(self.sink);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        Step {
            ms,
            us_per_rep: ms * 1e3 / self.reps as f64,
        }
    }
}

/// Kernel repetitions run after each set-up to scale its time: about
/// 2 ms.
const SETUP_REPS: usize = 1000;

/// Seconds since set-up started at `t`, scaled to the reference host by
/// a kernel step run right after.
pub fn setup_secs(t: Instant) -> f64 {
    let secs = t.elapsed().as_secs_f64();
    secs * to_reference(Pace::new(SETUP_REPS).step().us_per_rep)
}

/// Reference / measured for a measured kernel time per repetition: the
/// factor that brings a time taken at that pace to the reference host
/// (1 when nothing was measured).
pub fn to_reference(us_per_rep: f64) -> f64 {
    if us_per_rep.is_finite() && us_per_rep > 0.0 {
        REFERENCE_US_PER_REP / us_per_rep
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_are_timed_and_scale_sensibly() {
        let mut pace = Pace::new(20);
        let s = pace.step();
        assert!(s.ms > 0.0 && s.us_per_rep > 0.0);
        assert_eq!(to_reference(REFERENCE_US_PER_REP), 1.0);
        assert_eq!(to_reference(2.0 * REFERENCE_US_PER_REP), 0.5);
        assert_eq!(to_reference(f64::NAN), 1.0);
        assert_eq!(to_reference(0.0), 1.0);
    }
}
