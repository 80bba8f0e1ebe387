//! The benchmark's own seeded request generator.
//!
//! Every workload draws its tune requests from here, and from nowhere
//! else: the service crate's load mixes and load client may change
//! without moving the yardstick. The generator walks the full request
//! space — resolution × layout × objective × ocean constraint — in
//! balanced, seeded rounds, and drops the excluded classes
//! ([`excluded`]) with a per-class count so every run reports what it
//! skipped.
//!
//! Node budgets are log-spaced within each resolution's band and drawn
//! by a per-class golden-ratio sequence from a seeded offset, so even a
//! small pool covers the band evenly and pool-level quality figures do
//! not swing with the seed.

use hslb::Objective;
use hslb_cesm::{Layout, Resolution};
use hslb_service::request::{layout_token, resolution_token};
use hslb_service::TuneRequest;
use std::collections::BTreeMap;

/// splitmix64: a small, fast, fully specified PRNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One cell of the request space: everything but the budget and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Class {
    pub resolution: Resolution,
    pub layout: Layout,
    pub objective: Objective,
    pub ocean: bool,
}

impl Class {
    pub fn name(&self) -> String {
        format!(
            "{}|{}|{}|ocean{}",
            resolution_token(self.resolution),
            layout_token(self.layout),
            self.objective,
            self.ocean
        )
    }
}

/// Resolutions in request-space order.
pub const RESOLUTIONS: [Resolution; 2] = [Resolution::OneDegree, Resolution::EighthDegree];
/// Objectives in request-space order.
pub const OBJECTIVES: [Objective; 3] = [Objective::MinMax, Objective::MaxMin, Objective::SumTime];

/// The full request space: 2 resolutions × 3 layouts × 3 objectives ×
/// ocean constraint on/off.
pub fn all_classes() -> Vec<Class> {
    let mut out = Vec::new();
    for resolution in RESOLUTIONS {
        for layout in Layout::ALL {
            for objective in OBJECTIVES {
                for ocean in [true, false] {
                    out.push(Class {
                        resolution,
                        layout,
                        objective,
                        ocean,
                    });
                }
            }
        }
    }
    out
}

/// The excluded classes: those where one request ran away in time or
/// memory in a probe, or where requests fail (`perfbench/README.md`
/// cites one per cell). Every operation of every workload succeeds.
///
/// * ocean-constrained min-sum, any layout: branch-and-bound (B&B) to
///   its 2,000,000-node limit, 17 s and past a 3 GB cap at 1/8°;
/// * ocean-constrained min-max with the fully sequential or seq-ocean
///   layout: the same blow-up (19.9 s and 1.9 GB; 2.5 GB);
/// * without the ocean constraint, 1° min-sum with any layout and 1°
///   fully sequential min-max: 31 s and 1 GB (hybrid), 7.6 GB (fully
///   sequential), 3 GB (seq-ocean); 3.8 s and 1.9 GB;
/// * ocean-constrained max-min, any layout: requests fail, because the
///   chosen layout puts the atmosphere below its memory floor and
///   execution rejects it — about one in twelve at 1/8° ("atm on 887
///   nodes does not fit in memory (needs ≥ 1024)"), one in 800 at 1°
///   ("atm on 7 nodes does not fit in memory (needs ≥ 8)").
pub fn excluded(class: &Class) -> bool {
    let one_degree = class.resolution == Resolution::OneDegree;
    match (class.ocean, class.objective, class.layout) {
        (true, Objective::SumTime, _) => true,
        (true, Objective::MaxMin, _) => true,
        (true, Objective::MinMax, layout) => layout != Layout::Hybrid,
        (false, Objective::MinMax, Layout::FullySequential) => one_degree,
        (false, Objective::SumTime, _) => one_degree,
        _ => false,
    }
}

/// The node-budget band of a resolution: 1° 32–1024, 1/8° 2048–32768.
pub fn node_band(resolution: Resolution) -> (i64, i64) {
    match resolution {
        Resolution::OneDegree => (32, 1024),
        Resolution::EighthDegree => (2048, 32_768),
    }
}

/// `lo · (hi/lo)^u`, rounded — a log-spaced budget at quantile `u`.
pub fn budget_at(resolution: Resolution, u: f64) -> i64 {
    let (lo, hi) = node_band(resolution);
    let n = (lo as f64) * ((hi as f64) / (lo as f64)).powf(u.clamp(0.0, 1.0));
    (n.round() as i64).clamp(lo, hi)
}

/// Fractional part of the golden ratio: the additive-recurrence step
/// of the per-class budget sequence.
const GOLDEN: f64 = 0.618_033_988_749_894_9;

/// Seeded, deterministic request generator over the full space.
#[derive(Debug, Clone)]
pub struct Generator {
    rng: Rng,
    classes: Vec<Class>,
    /// Balanced round: a seeded permutation of every class, consumed in
    /// order and reshuffled when exhausted.
    round: Vec<usize>,
    /// Per-class budget sequence state: (offset, draws so far).
    budget_state: Vec<(f64, u64)>,
    skipped: BTreeMap<String, u64>,
}

impl Generator {
    pub fn new(seed: u64) -> Generator {
        let classes = all_classes();
        let mut rng = Rng::new(seed);
        let budget_state = classes.iter().map(|_| (rng.unit(), 0)).collect();
        Generator {
            rng,
            classes,
            round: Vec::new(),
            budget_state,
            skipped: BTreeMap::new(),
        }
    }

    /// The next admissible class; excluded draws are counted, not
    /// returned.
    pub fn next_class(&mut self) -> (usize, Class) {
        loop {
            if self.round.is_empty() {
                self.round = (0..self.classes.len()).collect();
                self.rng.shuffle(&mut self.round);
            }
            let idx = self.round.pop().unwrap_or(0);
            let class = self.classes[idx];
            if excluded(&class) {
                *self.skipped.entry(class.name()).or_insert(0) += 1;
                continue;
            }
            return (idx, class);
        }
    }

    /// The next budget for class `idx`.
    fn next_budget(&mut self, idx: usize, resolution: Resolution) -> i64 {
        let (offset, k) = &mut self.budget_state[idx];
        let u = (*offset + (*k as f64) * GOLDEN).fract();
        *k += 1;
        budget_at(resolution, u)
    }

    /// The next request, with the simulator seed supplied by the caller
    /// (workloads decide whether seeds are fresh or drawn from a set).
    pub fn next_request(&mut self, id: u64, sim_seed: u64) -> TuneRequest {
        let (idx, class) = self.next_class();
        let nodes = self.next_budget(idx, class.resolution);
        TuneRequest {
            id,
            resolution: class.resolution,
            layout: class.layout,
            objective: class.objective,
            target_nodes: nodes,
            ocean_constrained: class.ocean,
            seed: sim_seed,
            priority: 4,
            deadline_ms: None,
        }
    }

    /// Raw randomness for the workload (seed choices, pool picks).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Excluded draws so far, per class name.
    pub fn skipped(&self) -> &BTreeMap<String, u64> {
        &self.skipped
    }
}

/// A fresh simulator seed for request `i` of a run: distinct for every
/// `i` below 2^31 and exactly representable on the JSON wire.
pub fn fresh_seed(workload_seed: u64, i: u64) -> u64 {
    let base = Rng::new(workload_seed).next_u64() & 0x7FFF_FFFF;
    ((base + i) & 0x7FFF_FFFF) + 1
}

/// A pool of `size` distinct requests (by exact key) whose simulator
/// seeds come from `sim_seeds`, ids `0..size`.
pub fn request_pool(gen: &mut Generator, size: usize, sim_seeds: &[u64]) -> Vec<TuneRequest> {
    let mut seen = std::collections::BTreeSet::new();
    let mut pool = Vec::with_capacity(size);
    let mut guard = 0usize;
    while pool.len() < size && guard < size * 64 {
        guard += 1;
        let seed = sim_seeds[gen.rng().below(sim_seeds.len())];
        let req = gen.next_request(pool.len() as u64, seed);
        if seen.insert(req.exact_key()) {
            pool.push(req);
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut g = Generator::new(seed);
            (0..200)
                .map(|i| g.next_request(i, fresh_seed(seed, i)).exact_key())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn exclusion_is_applied_and_counted() {
        let mut g = Generator::new(3);
        let rounds = 10;
        let admissible = all_classes().iter().filter(|c| !excluded(c)).count();
        for i in 0..(rounds * admissible) as u64 {
            let req = g.next_request(i, 1);
            let class = Class {
                resolution: req.resolution,
                layout: req.layout,
                objective: req.objective,
                ocean: req.ocean_constrained,
            };
            assert!(!excluded(&class), "excluded class drawn: {}", class.name());
        }
        // Balanced rounds: each excluded class is skipped once per round.
        let excluded_classes: Vec<String> = all_classes()
            .iter()
            .filter(|c| excluded(c))
            .map(Class::name)
            .collect();
        assert_eq!(excluded_classes.len(), 20);
        assert_eq!(g.skipped().len(), excluded_classes.len());
        let total: u64 = g.skipped().values().sum();
        assert!(total >= ((rounds - 1) * excluded_classes.len()) as u64);
    }

    #[test]
    fn budgets_stay_in_band_and_cover_it() {
        let mut g = Generator::new(11);
        let mut one_deg = Vec::new();
        for i in 0..2000 {
            let req = g.next_request(i, 1);
            let (lo, hi) = node_band(req.resolution);
            assert!((lo..=hi).contains(&req.target_nodes));
            if req.resolution == Resolution::OneDegree {
                one_deg.push(req.target_nodes);
            }
        }
        one_deg.sort_unstable();
        assert!(one_deg[0] < 40 && *one_deg.last().unwrap() > 900);
    }

    #[test]
    fn fresh_seeds_are_distinct_and_wire_safe() {
        let seeds: std::collections::BTreeSet<u64> =
            (0..10_000).map(|i| fresh_seed(5, i)).collect();
        assert_eq!(seeds.len(), 10_000);
        assert!(seeds.iter().all(|&s| s > 0 && s < (1 << 53)));
    }

    #[test]
    fn pool_keys_are_distinct() {
        let mut g = Generator::new(1);
        let pool = request_pool(&mut g, 64, &[10, 20]);
        assert_eq!(pool.len(), 64);
        let keys: std::collections::BTreeSet<String> = pool.iter().map(|r| r.exact_key()).collect();
        assert_eq!(keys.len(), 64);
    }
}
