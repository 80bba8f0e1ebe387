//! The exact fit is never worse than the multistart fit it replaced.
//!
//! `fixtures/multistart_sse.txt` pins, per component, the SSE the
//! 24-start Levenberg–Marquardt multistart reached on the Table III
//! calibration observations, the bench-suite scenarios and a seeded
//! corpus of whole-machine gathers. Each line also carries a hash of the
//! data it was fitted to, so a change in the simulator shows up as a data
//! mismatch rather than as a fit regression. The variable-projection fit
//! must reach an SSE no higher than the pinned one on every line.

use hslb::{BenchmarkData, GatherPlan, Hslb, HslbOptions};
use hslb_cesm::{calib, Component, Machine, NoiseSpec, Resolution, ResolutionConfig, Simulator};
use hslb_nlsq::{fit_scaling, ScalingFitOptions};
use std::collections::BTreeMap;

const FIXTURE: &str = include_str!("fixtures/multistart_sse.txt");

fn simulator(res: Resolution, ocean: bool, seed: u64) -> Simulator {
    let config = match res {
        Resolution::OneDegree => ResolutionConfig::one_degree(),
        Resolution::EighthDegree => ResolutionConfig::eighth_degree(),
    };
    let config = if ocean {
        config
    } else {
        config.without_ocean_constraint()
    };
    Simulator::new(Machine::intrepid(), config, NoiseSpec::default(), seed)
}

fn resolution(token: &str) -> Resolution {
    match token {
        "1deg" => Resolution::OneDegree,
        "eighth" => Resolution::EighthDegree,
        other => panic!("unknown resolution {other:?}"),
    }
}

/// FNV-1a over the little-endian bits of every `(nodes, seconds)` pair.
fn data_hash(data: &[(f64, f64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(n, y) in data {
        for b in n.to_le_bytes().iter().chain(y.to_le_bytes().iter()) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The data a fixture scenario was fitted to, per component.
fn scenario_data(scenario: &str) -> BTreeMap<Component, Vec<(f64, f64)>> {
    let parts: Vec<&str> = scenario.split('|').collect();
    let gathered = |sim: &Simulator, opts: HslbOptions| -> BenchmarkData {
        Hslb::new(sim, opts).gather_resilient().0
    };
    let data = match parts.as_slice() {
        ["table3", res] => {
            return Component::OPTIMIZED
                .iter()
                .map(|&c| (c, calib::observations(resolution(res), c).to_vec()))
                .collect()
        }
        ["bench", res, n] => {
            let n: i64 = n.trim_start_matches('n').parse().unwrap();
            gathered(&simulator(resolution(res), true, 42), HslbOptions::new(n))
        }
        ["corpus", res, ocean, seed] => {
            let ocean = ocean.trim_start_matches("ocean") == "true";
            let seed: u64 = seed.trim_start_matches("seed").parse().unwrap();
            let mut opts = HslbOptions::new(1024);
            opts.gather = GatherPlan::LogSpaced {
                min_nodes: 8,
                max_nodes: Machine::intrepid().nodes,
                points: 8,
            };
            gathered(&simulator(resolution(res), ocean, seed), opts)
        }
        _ => panic!("unknown fixture scenario {scenario:?}"),
    };
    Component::OPTIMIZED
        .iter()
        .map(|&c| (c, data.of(c).to_vec()))
        .collect()
}

#[test]
fn exact_fit_sse_is_no_worse_than_the_pinned_multistart() {
    let mut cache: BTreeMap<String, BTreeMap<Component, Vec<(f64, f64)>>> = BTreeMap::new();
    let mut checked = 0;
    let mut strictly_better = 0;
    for line in FIXTURE.lines().filter(|l| !l.starts_with('#')) {
        let cols: Vec<&str> = line.split_whitespace().collect();
        let [scenario, label, sse_bits, hash] = cols.as_slice() else {
            panic!("malformed fixture line {line:?}");
        };
        let component = Component::ALL
            .iter()
            .copied()
            .find(|c| c.label() == *label)
            .unwrap();
        let pinned = f64::from_bits(u64::from_str_radix(sse_bits, 16).unwrap());
        let data = &cache
            .entry(scenario.to_string())
            .or_insert_with(|| scenario_data(scenario))[&component];
        assert_eq!(
            format!("{:016x}", data_hash(data)),
            *hash,
            "{scenario}/{label}: the gathered data no longer matches the fixture"
        );
        let fit = fit_scaling(data, &ScalingFitOptions::default()).unwrap();
        assert!(
            fit.sse <= pinned * (1.0 + 1e-12),
            "{scenario}/{label}: SSE {} above the multistart's {pinned}",
            fit.sse
        );
        checked += 1;
        if fit.sse < pinned {
            strictly_better += 1;
        }
    }
    assert_eq!(checked, 544, "every pinned fit is checked");
    assert!(strictly_better > 0);
}
