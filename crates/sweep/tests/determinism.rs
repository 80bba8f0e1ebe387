//! The sweep subsystem's determinism bar.
//!
//! 1. **Portfolio vs one-shot bit-identity**: every non-pruned entry of
//!    a sweep portfolio must carry the exact fingerprint of a standalone
//!    one-shot pipeline run for that configuration — at every worker
//!    count, with caches on or off — and the portfolio itself (entries,
//!    pruning decisions, frontier) must be identical across those runs.
//! 2. **Pinned pruning regression**: on the five shipped scenarios the
//!    predictor may never prune the true winner (the best exact makespan
//!    per budget group, established by a prune-off sweep).
//! 3. **Fail-open**: a seeded bad predictor (the calibration-noise chaos
//!    hook) must disable pruning entirely, never silently misprune.
//! 4. **Pareto-frontier order independence** (proptest below).
//! 5. **Fit signatures**: the signature leaves out layout and objective,
//!    so the gathered timings and fitted curves must not depend on them.

use hslb::{Hslb, HslbOptions, Objective};
use hslb_service::request::TuneRequest;
use hslb_service::sweep_driver::run_sweep;
use hslb_service::{reference_response, CachePolicy, ServiceOptions, TuningService};
use hslb_sweep::portfolio::pareto_frontier;
use hslb_sweep::spec::CalibrationNoise;
use hslb_sweep::{Portfolio, SweepConfig, SweepSpec};
use hslb_telemetry::Telemetry;
use proptest::prelude::*;

fn request_for(cfg: &SweepConfig) -> TuneRequest {
    TuneRequest {
        id: 0,
        resolution: cfg.resolution,
        layout: cfg.layout,
        objective: cfg.objective,
        target_nodes: cfg.target_nodes,
        ocean_constrained: cfg.ocean_constrained,
        seed: cfg.seed,
        priority: 4,
        deadline_ms: None,
    }
}

fn sweep_with(spec: &SweepSpec, workers: usize, caches: bool) -> Portfolio {
    let service = TuningService::start(ServiceOptions {
        workers,
        cache: CachePolicy {
            exact: caches,
            fit: caches,
        },
        ..ServiceOptions::default()
    });
    let telemetry = Telemetry::disabled();
    let portfolio = run_sweep(&service, spec, &telemetry, |_| {}).expect("sweep run");
    service.shutdown();
    portfolio
}

/// Non-pruned entries must be bit-identical to standalone one-shot runs,
/// and the portfolio must not depend on worker count or cache policy.
#[test]
fn portfolio_matches_one_shot_reference_at_any_concurrency() {
    let spec = SweepSpec {
        one_degree_budgets: vec![64, 96, 128, 192],
        ..SweepSpec::default()
    };
    let configs = spec.configs();
    assert_eq!(configs.len(), 12);

    let runs = [(1usize, true), (1, false), (4, true), (4, false)];
    let mut portfolios = Vec::new();
    for (workers, caches) in runs {
        portfolios.push((workers, caches, sweep_with(&spec, workers, caches)));
    }

    // Every run yields the same entries, decisions, and frontier
    // (stats legitimately differ: cache hit counts, wall-clock).
    let (_, _, first) = &portfolios[0];
    for (workers, caches, p) in &portfolios[1..] {
        assert_eq!(
            p.entries, first.entries,
            "entries diverged at workers={workers} caches={caches}"
        );
        assert_eq!(
            p.decisions, first.decisions,
            "pruning decisions diverged at workers={workers} caches={caches}"
        );
        assert_eq!(
            p.frontier, first.frontier,
            "frontier diverged at workers={workers} caches={caches}"
        );
    }

    // Every non-pruned entry matches the one-shot reference pipeline
    // bit for bit.
    let mut checked = 0;
    for entry in &first.entries {
        if entry.pruned {
            continue;
        }
        let cfg = configs
            .iter()
            .find(|c| c.key() == entry.key)
            .expect("entry key in spec grid");
        let reference = reference_response(&request_for(cfg)).expect("reference pipeline");
        assert_eq!(
            entry.fingerprint.as_deref(),
            Some(reference.fingerprint().as_str()),
            "fingerprint mismatch for {}",
            entry.key
        );
        assert_eq!(entry.makespan.to_bits(), reference.actual_total.to_bits());
        checked += 1;
    }
    assert!(checked >= 1, "no non-pruned entries to check");
    assert_eq!(first.stats.planned, first.stats.solved + first.stats.pruned);
}

/// Pinned regression: on each shipped scenario's budget neighborhood the
/// pruned sweep must keep (exactly solve) every budget group's true
/// winner, established by a prune-off sweep of the same grid.
#[test]
fn predictor_never_prunes_the_true_winner_on_shipped_scenarios() {
    // (name, 1° budgets, 1/8° budgets): the scenario's budget plus its
    // halved/doubled neighbors, clamped to budgets where every layout's
    // ocean count is feasible (sequential at 1/8° 32768 is not).
    let scenarios: [(&str, Vec<i64>, Vec<i64>); 5] = [
        ("1deg_n64", vec![32, 64, 128], vec![]),
        ("1deg_n128", vec![64, 128, 256], vec![]),
        ("1deg_n256", vec![128, 256, 512], vec![]),
        ("eighth_n8192", vec![], vec![4096, 8192, 16384]),
        ("eighth_n16384", vec![], vec![8192, 16384]),
    ];
    for (name, one_deg, eighth) in scenarios {
        let base = SweepSpec {
            one_degree_budgets: one_deg,
            eighth_degree_budgets: eighth,
            ..SweepSpec::default()
        };
        let exact = sweep_with(
            &SweepSpec {
                prune: false,
                ..base.clone()
            },
            4,
            true,
        );
        let pruned = sweep_with(&base, 4, true);
        assert_eq!(exact.stats.pruned, 0, "{name}: prune-off run pruned");

        // True winner per budget group from the exhaustive run.
        let configs = base.configs();
        let group_of = |key: &str| {
            configs
                .iter()
                .find(|c| c.key() == key)
                .expect("key in grid")
                .budget_group()
        };
        let mut winners: std::collections::BTreeMap<String, (&str, f64)> = Default::default();
        for e in &exact.entries {
            let g = group_of(&e.key);
            let slot = winners.entry(g).or_insert((e.key.as_str(), e.makespan));
            if e.makespan < slot.1 {
                *slot = (e.key.as_str(), e.makespan);
            }
        }
        for (group, (winner_key, _)) in &winners {
            let entry = pruned
                .entries
                .iter()
                .find(|e| e.key == *winner_key)
                .expect("winner present in pruned portfolio");
            assert!(
                !entry.pruned,
                "{name}: pruned the true winner {winner_key} of group {group}"
            );
            // And the kept winner is still the exact one-shot answer.
            let exact_entry = exact.entries.iter().find(|e| e.key == *winner_key).unwrap();
            assert_eq!(
                entry.fingerprint, exact_entry.fingerprint,
                "{name}: winner {winner_key} fingerprint drifted under pruning"
            );
        }
        assert_eq!(
            pruned.stats.planned,
            pruned.stats.solved + pruned.stats.pruned,
            "{name}: accounting broken"
        );
    }
}

#[test]
fn gathered_timings_do_not_depend_on_layout_or_objective() {
    // The service gathers over the whole machine, so a configuration's
    // gather and fit read only its resolution, ocean constraint and seed
    // (the fit signature), never its layout, objective or budget.
    for (sim, budget) in [
        (hslb_cesm::Simulator::one_degree(42), 128),
        (hslb_cesm::Simulator::eighth_degree(7), 8192),
    ] {
        let mut reference: Option<Vec<(f64, f64)>> = None;
        for layout in hslb_cesm::Layout::ALL {
            for objective in [Objective::MinMax, Objective::SumTime, Objective::MaxMin] {
                let mut opts = HslbOptions::new(budget);
                opts.layout = layout;
                opts.objective = objective;
                opts.gather = hslb_service::request::service_gather_plan();
                let h = Hslb::new(&sim, opts);
                let data = h.gather_resilient().0;
                let fits = h.fit(&data).unwrap();
                let mut bits = Vec::new();
                for c in hslb_cesm::Component::OPTIMIZED {
                    bits.extend_from_slice(data.of(c));
                    let k = fits.optimized_curve(c);
                    bits.extend_from_slice(&[(k.a, k.b), (k.c, k.d)]);
                }
                match &reference {
                    None => reference = Some(bits),
                    Some(r) => {
                        let to_bits = |v: &[(f64, f64)]| {
                            v.iter()
                                .map(|p| (p.0.to_bits(), p.1.to_bits()))
                                .collect::<Vec<_>>()
                        };
                        assert_eq!(
                            to_bits(r),
                            to_bits(&bits),
                            "{layout:?}/{objective:?} gathered or fitted differently"
                        );
                    }
                }
            }
        }
    }
}

/// A predictor fed garbage calibration data must refuse to calibrate
/// (accuracy rung) and the sweep must fail open: zero pruned, every
/// configuration exactly solved, the failure reason logged.
#[test]
fn bad_predictor_fails_open_to_exact_solves() {
    let spec = SweepSpec {
        one_degree_budgets: vec![48, 64, 96, 128],
        calibration_noise: Some(CalibrationNoise {
            seed: 9,
            amplitude: 2.0,
        }),
        ..SweepSpec::default()
    };
    let portfolio = sweep_with(&spec, 4, true);
    assert_eq!(portfolio.stats.pruned, 0, "bad predictor still pruned");
    assert_eq!(portfolio.stats.planned, portfolio.stats.solved);
    assert!(
        portfolio.stats.predictor_failed.is_some(),
        "predictor failure not surfaced"
    );
    assert!(!portfolio.decisions.is_empty());
    for d in &portfolio.decisions {
        assert!(!d.pruned);
        assert!(
            d.reason.starts_with("fail-open"),
            "decision not fail-open: {}",
            d.reason
        );
    }
    // Every entry is exact: solved with a fingerprint.
    for e in &portfolio.entries {
        assert!(!e.pruned);
        assert!(e.fingerprint.is_some());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pareto-frontier extraction is a pure dominance filter: the same
    /// point set in any order yields the same frontier.
    #[test]
    fn pareto_frontier_is_order_independent(
        points in prop::collection::vec((0u32..40, 1u32..60, 1i64..60), 1..24),
        seed in 0u64..1_000,
    ) {
        let canonical: Vec<(String, f64, i64)> = points
            .iter()
            .enumerate()
            .map(|(i, (k, m, n))| (format!("k{k}-{i}"), *m as f64, *n))
            .collect();
        // Deterministic shuffle from the seed (splitmix-driven swaps).
        let mut shuffled = canonical.clone();
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in (1..shuffled.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        prop_assert_eq!(pareto_frontier(&canonical), pareto_frontier(&shuffled));

        // Frontier members are mutually non-dominated.
        let frontier = pareto_frontier(&canonical);
        for a in &frontier {
            let (_, ma, na) = canonical.iter().find(|(k, _, _)| k == a).unwrap();
            for b in &frontier {
                if a == b {
                    continue;
                }
                let (_, mb, nb) = canonical.iter().find(|(k, _, _)| k == b).unwrap();
                prop_assert!(
                    !(mb <= ma && nb <= na && (mb < ma || nb < na)),
                    "{} dominates {}", b, a
                );
            }
        }
    }
}
