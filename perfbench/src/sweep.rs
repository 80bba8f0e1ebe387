//! `sweep_grid`: repeated `hslb_service::sweep_driver::run_sweep` calls
//! on an in-process `TuningService`, each with a fresh simulator seed,
//! over every admissible layout × both resolutions × a budget grid of
//! [`CONFIGS`] configurations.

use crate::account::Ledger;
use crate::gen::{budget_at, excluded, fresh_seed, Class, Generator, RESOLUTIONS};
use crate::pace::{self, Pace};
use crate::stats::{median, ratio};
use crate::{host, ms_since, Ctx, Op, Report, Window};
use hslb_cesm::{Layout, Resolution};
use hslb_service::request::{parse_layout, parse_objective, parse_resolution};
use hslb_service::sweep_driver::run_sweep;
use hslb_service::{reference_response, ServiceOptions, ServiceStats, TuneRequest, TuningService};
use hslb_sweep::{Portfolio, SweepPlan, SweepSpec};
use hslb_telemetry::Telemetry;
use std::time::{Duration, Instant};

/// Configurations per sweep: layouts × 2 resolutions × budgets.
pub const CONFIGS: usize = 36;
/// Solved portfolio entries re-derived with `reference_response`.
const SWEEP_CHECKS: usize = 24;
/// Pace kernel repetitions after every sweep: about 1 ms, against a
/// sweep's 40 ms.
const PACE_REPS: usize = 500;

/// The next sweep: an (objective, ocean) cell from the generator, every
/// layout the exclusion admits with it at both resolutions, and a
/// stratified log-spaced budget grid per resolution. A cell excluded at
/// either resolution is drawn again: a sweep always spans both.
fn next_spec(gen: &mut Generator, seed: u64) -> SweepSpec {
    let (class, layouts) = loop {
        let (_, class) = gen.next_class();
        let layouts: Vec<Layout> = Layout::ALL
            .into_iter()
            .filter(|&layout| {
                RESOLUTIONS.iter().all(|&resolution| {
                    !excluded(&Class {
                        resolution,
                        layout,
                        ..class
                    })
                })
            })
            .collect();
        if !layouts.is_empty() {
            break (class, layouts);
        }
    };
    let per_resolution = CONFIGS / (2 * layouts.len());
    let mut budgets = |resolution: Resolution| -> Vec<i64> {
        (0..per_resolution)
            .map(|j| {
                let u = (j as f64 + gen.rng().unit()) / per_resolution as f64;
                budget_at(resolution, u)
            })
            .collect()
    };
    let one_degree_budgets = budgets(RESOLUTIONS[0]);
    let eighth_degree_budgets = budgets(RESOLUTIONS[1]);
    SweepSpec {
        layouts,
        one_degree_budgets,
        eighth_degree_budgets,
        objective: class.objective,
        ocean_constrained: class.ocean,
        seed,
        ..SweepSpec::default()
    }
}

fn spec_key(spec: &SweepSpec) -> String {
    format!(
        "sweep|{}|ocean{}|seed{}",
        spec.objective, spec.ocean_constrained, spec.seed
    )
}

/// The tune request behind a solved portfolio entry.
fn entry_request(spec: &SweepSpec, p: &Portfolio, i: usize) -> Option<(TuneRequest, String)> {
    let e = p.entries.iter().filter(|e| !e.pruned).nth(i)?;
    let req = TuneRequest {
        id: 0,
        resolution: parse_resolution(&e.resolution).ok()?,
        layout: parse_layout(&e.layout).ok()?,
        objective: parse_objective(&e.objective).ok()?,
        target_nodes: e.target_nodes,
        ocean_constrained: spec.ocean_constrained,
        seed: spec.seed,
        priority: 4,
        deadline_ms: None,
    };
    Some((req, e.fingerprint.clone()?))
}

fn start_service(ctx: &Ctx) -> Result<TuningService, String> {
    let service = TuningService::start(ServiceOptions {
        workers: ctx.workers,
        ..ServiceOptions::default()
    });
    // Warm-up: one full-size sweep, budgets at the stratum midpoints.
    let per_resolution = CONFIGS / 4;
    let budgets = |resolution| {
        (0..per_resolution)
            .map(|j| budget_at(resolution, (j as f64 + 0.5) / per_resolution as f64))
            .collect()
    };
    let warm = SweepSpec {
        layouts: vec![Layout::Hybrid, Layout::SequentialWithOcean],
        one_degree_budgets: budgets(Resolution::OneDegree),
        eighth_degree_budgets: budgets(Resolution::EighthDegree),
        ocean_constrained: false,
        seed: fresh_seed(ctx.seed, u64::from(u32::MAX)),
        ..SweepSpec::default()
    };
    run_sweep(&service, &warm, &Telemetry::disabled(), |_| {})
        .map_err(|e| format!("warm-up sweep failed: {e}"))?;
    Ok(service)
}

/// Per-sweep figures of the traced half.
#[derive(Default)]
struct Traced {
    lat_ms: Vec<f64>,
    plan_ms: Vec<f64>,
    fit_groups: Vec<f64>,
    dedup_saved: Vec<f64>,
    calibration_share: Vec<f64>,
    planned: f64,
    pruned: f64,
    gaps_ms: Vec<f64>,
    fit_hits: f64,
    fit_misses: f64,
}

fn service_ratios(before: &ServiceStats, after: &ServiceStats, report: &mut Report) {
    let d = |f: fn(&ServiceStats) -> u64| (f(after) - f(before)) as f64;
    let tiers = d(|s| s.tier_exact) + d(|s| s.tier_fit) + d(|s| s.tier_miss);
    let submitted = d(|s| s.submitted);
    report.layer("service.exact_hit_ratio", ratio(d(|s| s.tier_exact), tiers));
    report.layer("service.fit_hit_ratio", ratio(d(|s| s.tier_fit), tiers));
    report.layer(
        "service.coalesced_ratio",
        ratio(d(|s| s.coalesced), submitted),
    );
    report.layer(
        "service.rejected_ratio",
        ratio(d(|s| s.rejected), submitted),
    );
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut service = None;
    for _ in 0..ctx.setups {
        if let Some(old) = service.take() {
            TuningService::shutdown(&old);
        }
        let t = Instant::now();
        service = Some(start_service(ctx)?);
        setup_s.push(pace::setup_secs(t));
    }
    let service = service.ok_or("no setup ran")?;

    let mut gen = Generator::new(ctx.seed);
    let mut ledger = Ledger::default();
    let (mut makespans, mut errors) = (Vec::new(), Vec::new());
    let mut candidates: Vec<(TuneRequest, String)> = Vec::new();
    let mut i = 0u64;
    let mut record = |spec: &SweepSpec, p: &Portfolio, i: u64| {
        for e in p.entries.iter().filter(|e| !e.pruned) {
            makespans.push(e.makespan);
            if let Some(pred) = e.predicted {
                errors.push(100.0 * (pred - e.makespan).abs() / e.makespan);
            }
        }
        let solved = p.entries.iter().filter(|e| !e.pruned).count().max(1);
        if let Some(c) = entry_request(spec, p, (i as usize * 7) % solved) {
            candidates.push(c);
        }
    };

    let untraced_s = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut pace = Pace::new(PACE_REPS);
    let sampler = host::Sampler::start(None, host::SAMPLE_EVERY);
    let mut ops = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(untraced_s);
    while Instant::now() < deadline {
        let spec = next_spec(&mut gen, fresh_seed(ctx.seed, i));
        ledger.start();
        let t = Instant::now();
        let res = run_sweep(&service, &spec, &Telemetry::disabled(), |_| {});
        let ended = Instant::now();
        let units = match res {
            Ok(p) => {
                ledger.ok();
                record(&spec, &p, i);
                p.entries.len() as f64
            }
            Err(e) => {
                ledger.fail(&spec_key(&spec), &e);
                0.0
            }
        };
        ops.push(Op::new(t, ended, units).paced(pace.step(), true));
        i += 1;
    }
    let window = Window {
        ops,
        ticks: sampler.finish(None),
        peak_rss_mib: host::hwm_mib(None).unwrap_or(f64::NAN),
    };

    let mut tr = Traced::default();
    let before = service.stats();
    if ctx.trace {
        let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds - untraced_s);
        while Instant::now() < deadline {
            let spec = next_spec(&mut gen, fresh_seed(ctx.seed, i));
            ledger.start();
            let t = Instant::now();
            let plan = SweepPlan::new(&spec);
            tr.plan_ms.push(ms_since(t));
            if let Ok(plan) = &plan {
                tr.fit_groups.push(plan.groups.len() as f64);
                tr.dedup_saved.push(plan.dedup_saved() as f64);
                tr.calibration_share.push(ratio(
                    plan.calibration.len() as f64,
                    plan.configs.len() as f64,
                ));
            }
            let mut last = Instant::now();
            let gaps = &mut tr.gaps_ms;
            let res = run_sweep(&service, &spec, &Telemetry::disabled(), |_| {
                gaps.push(ms_since(last));
                last = Instant::now();
            });
            let ms = ms_since(t);
            match res {
                Ok(p) => {
                    ledger.ok();
                    tr.lat_ms.push(ms);
                    tr.planned += p.stats.planned as f64;
                    tr.pruned += p.stats.pruned as f64;
                    tr.fit_hits += p.stats.fit_hits as f64;
                    tr.fit_misses += p.stats.fit_misses as f64;
                    record(&spec, &p, i);
                }
                Err(e) => ledger.fail(&spec_key(&spec), &e),
            }
            pace.step();
            i += 1;
        }
    }
    let after = service.stats();
    service.shutdown();

    // Bit-identity: sampled portfolio entries against the one-shot
    // pipeline.
    let step = (candidates.len() / SWEEP_CHECKS).max(1);
    let mut checked = 0usize;
    for (req, fingerprint) in candidates.iter().step_by(step) {
        checked += 1;
        match reference_response(req) {
            Ok(p) if p.fingerprint() == *fingerprint => {}
            Ok(_) => ledger.mismatch(
                &req.exact_key(),
                "sweep entry differs from reference_response",
            ),
            Err(e) => ledger.mismatch(&req.exact_key(), &format!("reference_response failed: {e}")),
        }
    }

    let mut report = Report::new(ledger, gen.skipped().clone());
    report.e2e(&setup_s, &window, &makespans, &errors);
    report.sample("reference_checks", checked);
    if ctx.trace {
        let m = |xs: &[f64]| median(xs).unwrap_or(f64::NAN);
        report.layer("sweep.plan_ms", m(&tr.plan_ms));
        report.layer("sweep.fit_groups", m(&tr.fit_groups));
        report.layer("sweep.dedup_saved", m(&tr.dedup_saved));
        report.layer("sweep.calibration_share", m(&tr.calibration_share));
        report.layer("sweep.pruned_ratio", ratio(tr.pruned, tr.planned));
        report.layer("sweep.config_gap_ms", m(&tr.gaps_ms));
        report.layer(
            "sweep.fit_hit_ratio",
            ratio(tr.fit_hits, tr.fit_hits + tr.fit_misses),
        );
        service_ratios(&before, &after, &mut report);
        report.overhead(&window.latencies(), &tr.lat_ms);
        report.sample("traced_sweeps", tr.lat_ms.len());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_have_the_fixed_size_and_respect_the_exclusion() {
        let mut gen = Generator::new(9);
        for i in 0..50 {
            let spec = next_spec(&mut gen, i + 1);
            let configs = spec.configs();
            assert!(
                configs.len() <= CONFIGS && configs.len() >= CONFIGS - 4,
                "{}",
                configs.len()
            );
            for c in configs {
                let class = Class {
                    resolution: c.resolution,
                    layout: c.layout,
                    objective: c.objective,
                    ocean: c.ocean_constrained,
                };
                assert!(!excluded(&class), "{}", class.name());
            }
        }
    }
}
