//! `tune_cold`: one caller, a closed loop of one-shot pipelines, every
//! request on its own simulator seed so nothing can be shared.
//!
//! Untraced, each operation is one `hslb_service::reference_response`.
//! Traced, the same request also runs as the four public pipeline
//! steps (`gather_resilient`, `fit`, `solve`, `execute`), each timed,
//! and the step-by-step answer must match the one-shot answer bit for
//! bit.

use crate::account::Ledger;
use crate::gen::{all_classes, budget_at, excluded, fresh_seed, Generator};
use crate::pace::{self, Pace};
use crate::stats::{median, ratio};
use crate::{host, ms_since, Ctx, Op, Report, Window};
use hslb::exhaustive::ExhaustiveResult;
use hslb::layout_model::NodeFloors;
use hslb::{ExhaustiveOptimizer, FitSet, Hslb, HslbOptions, Objective, SolverRung};
use hslb_cesm::{Machine, NoiseSpec, Resolution, ResolutionConfig, Simulator};
use hslb_service::request::service_gather_plan;
use hslb_service::{reference_response, TunePayload, TuneRequest};
use std::time::{Duration, Instant};

/// The simulator a request describes: Intrepid, default noise, the
/// request's resolution, ocean constraint and seed — the same machine
/// `reference_response` builds.
pub fn simulator_for(req: &TuneRequest) -> Simulator {
    let config = match req.resolution {
        Resolution::OneDegree => ResolutionConfig::one_degree(),
        Resolution::EighthDegree => ResolutionConfig::eighth_degree(),
    };
    let config = if req.ocean_constrained {
        config
    } else {
        config.without_ocean_constraint()
    };
    Simulator::new(Machine::intrepid(), config, NoiseSpec::default(), req.seed)
}

/// The pipeline options `reference_response` runs a request with.
pub fn options_for(req: &TuneRequest) -> HslbOptions {
    let mut opts = HslbOptions::new(req.target_nodes);
    opts.layout = req.layout;
    opts.objective = req.objective;
    opts.gather = service_gather_plan();
    opts
}

/// Enumerate the request's allocation space over `fits`, under the
/// simulator's allowed sets and memory floors.
pub fn enumerate(sim: &Simulator, fits: &FitSet, req: &TuneRequest) -> Option<ExhaustiveResult> {
    let mut opt = ExhaustiveOptimizer::new(fits, req.layout, req.target_nodes);
    opt.ocean_allowed = sim.config.ocean_allowed.clone();
    opt.atm_allowed = sim.config.atm_allowed.clone();
    opt.floors = NodeFloors::from_config(&sim.config);
    opt.try_solve(req.objective)
}

/// Relative tolerance between branch-and-bound and enumeration at 1°
/// (the one `tests/solver_validation.rs` holds the solver to).
const EXHAUSTIVE_REL_TOL: f64 = 1e-4;
/// 1° min-max tunes cross-checked against enumeration per run.
const EXHAUSTIVE_SAMPLES: usize = 12;
/// Pace kernel repetitions after every tune: about 0.3 ms, against a
/// tune's 5 ms.
const PACE_REPS: usize = 150;

/// Quality figures of one answered tune.
pub fn quality(p: &TunePayload, makespans: &mut Vec<f64>, errors: &mut Vec<f64>) {
    makespans.push(p.actual_total);
    if let Some(pred) = p.predicted_total {
        errors.push(100.0 * (pred - p.actual_total).abs() / p.actual_total);
    }
}

/// A run-time check every answer must pass: a MINLP-rung answer
/// carries a passing instance audit.
fn audit_problem(p: &TunePayload) -> Option<String> {
    (p.rung == SolverRung::Minlp.to_string() && p.audit_passed != Some(true)).then(|| {
        format!(
            "MINLP-rung answer without a passing audit ({:?})",
            p.audit_passed
        )
    })
}

/// Compare a 1° min-max answer with enumeration over the same fitted
/// curves.
fn exhaustive_problem(req: &TuneRequest, p: &TunePayload) -> Option<String> {
    let sim = simulator_for(req);
    let h = Hslb::new(&sim, options_for(req));
    let fits = match h.fit(&h.gather_resilient().0) {
        Ok(f) => f,
        Err(e) => return Some(format!("refit for the enumeration check failed: {e}")),
    };
    let Some(truth) = enumerate(&sim, &fits, req) else {
        return Some("enumeration found no allocation".to_string());
    };
    let got = p.predicted_total.unwrap_or(f64::NAN);
    ((got - truth.objective).abs() > EXHAUSTIVE_REL_TOL * truth.objective).then(|| {
        format!(
            "solver objective {got} vs enumeration {} (tolerance {EXHAUSTIVE_REL_TOL})",
            truth.objective
        )
    })
}

/// Setup: a fresh generator plus one warm-up pipeline per admissible
/// class, at the middle of its budget band.
fn setup(ctx: &Ctx) -> Generator {
    let gen = Generator::new(ctx.seed);
    for class in all_classes().iter().filter(|c| !excluded(c)) {
        let warm = TuneRequest {
            layout: class.layout,
            objective: class.objective,
            ocean_constrained: class.ocean,
            seed: fresh_seed(ctx.seed, u64::from(u32::MAX)),
            ..TuneRequest::new(0, class.resolution, budget_at(class.resolution, 0.5))
        };
        let _ = reference_response(&warm);
    }
    gen
}

/// Per-phase samples of the traced half.
#[derive(Default)]
struct Phases {
    gather_ms: Vec<f64>,
    gather_runs: Vec<f64>,
    fit_ms: Vec<f64>,
    lm_iterations: Vec<f64>,
    starts_run: Vec<f64>,
    sse: Vec<f64>,
    solve_ms: Vec<f64>,
    bb_nodes: Vec<f64>,
    cuts: Vec<f64>,
    lp_solves: Vec<f64>,
    simplex_iters: Vec<f64>,
    warm_resolves: f64,
    warm_fallbacks: f64,
    exhaustive: f64,
    execute_ms: Vec<f64>,
    self_ms: Vec<f64>,
    op_ms: Vec<f64>,
}

/// One traced tune: the four public steps, each timed, then the
/// one-shot pipeline for the bit-identity check and the pipeline's own
/// (non-step) time.
fn traced_tune(req: &TuneRequest, ph: &mut Phases) -> Result<TunePayload, (String, bool)> {
    let start = Instant::now();
    let sim = simulator_for(req);
    let h = Hslb::new(&sim, options_for(req));
    let t = Instant::now();
    let (data, report) = h.gather_resilient();
    let gather_ms = ms_since(t);
    let t = Instant::now();
    let fits = h.fit(&data).map_err(|e| (e.to_string(), false))?;
    let fit_ms = ms_since(t);
    let t = Instant::now();
    let (allocation, predicted_total, solver_stats) = match h.solve(&fits) {
        Ok(o) => (o.allocation, o.predicted_total, o.solver_stats),
        // The strict API refuses what the ladder hands to enumeration.
        Err(_) => match enumerate(&sim, &fits, req) {
            Some(r) => (
                r.allocation,
                fits.predicted_total(req.layout, &r.allocation),
                None,
            ),
            None => return Err(("no allocation on any rung".to_string(), false)),
        },
    };
    let solve_ms = ms_since(t);
    let t = Instant::now();
    let run = h.execute(&allocation).map_err(|e| (e.to_string(), false))?;
    let execute_ms = ms_since(t);
    let op_ms = ms_since(start);

    let t = Instant::now();
    let reference = reference_response(req).map_err(|e| (e, false))?;
    let pipeline_ms = ms_since(t);
    if reference.allocation != allocation
        || reference.actual_total.to_bits() != run.total.to_bits()
        || reference.predicted_total.map(f64::to_bits) != Some(predicted_total.to_bits())
    {
        return Err((
            format!(
                "step-by-step answer {allocation:?} / {} differs from the one-shot {:?} / {}",
                run.total, reference.allocation, reference.actual_total
            ),
            true,
        ));
    }

    ph.gather_ms.push(gather_ms);
    ph.gather_runs.push(report.attempts as f64);
    ph.fit_ms.push(fit_ms);
    let (mut lm, mut starts, mut sse) = (0.0, 0.0, 0.0);
    for (_, f) in fits.iter() {
        lm += f.lm_iterations as f64;
        starts += f.starts_run as f64;
        sse += f.sse;
    }
    ph.lm_iterations.push(lm);
    ph.starts_run.push(starts);
    ph.sse.push(sse);
    ph.solve_ms.push(solve_ms);
    match solver_stats {
        Some(s) => {
            ph.bb_nodes.push(s.nodes as f64);
            ph.cuts.push(s.cuts as f64);
            ph.lp_solves.push(s.lp_solves as f64);
            ph.simplex_iters.push(s.simplex_iters as f64);
            ph.warm_resolves += s.warm_resolves as f64;
            ph.warm_fallbacks += s.warm_fallbacks as f64;
        }
        None => ph.exhaustive += 1.0,
    }
    ph.execute_ms.push(execute_ms);
    ph.self_ms
        .push(pipeline_ms - (gather_ms + fit_ms + solve_ms + execute_ms));
    ph.op_ms.push(op_ms);
    Ok(reference)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut gen = None;
    for _ in 0..ctx.setups {
        let t = Instant::now();
        gen = Some(setup(ctx));
        setup_s.push(pace::setup_secs(t));
    }
    let mut gen = gen.ok_or("no setup ran")?;

    let mut ledger = Ledger::default();
    let mut makespans = Vec::new();
    let mut errors = Vec::new();
    let mut checks: Vec<(TuneRequest, TunePayload)> = Vec::new();
    let mut one_deg_minmax = 0usize;
    let mut ph = Phases::default();

    let untraced_s = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut pace = Pace::new(PACE_REPS);
    let sampler = host::Sampler::start(None, host::SAMPLE_EVERY);
    let mut ops = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(untraced_s);
    let mut i = 0u64;
    while Instant::now() < deadline {
        let req = gen.next_request(i, fresh_seed(ctx.seed, i));
        i += 1;
        ledger.start();
        let t = Instant::now();
        let res = reference_response(&req);
        let ended = Instant::now();
        let units = match res {
            Ok(p) => {
                ledger.ok();
                quality(&p, &mut makespans, &mut errors);
                if let Some(problem) = audit_problem(&p) {
                    ledger.mismatch(&req.exact_key(), &problem);
                }
                if req.resolution == Resolution::OneDegree && req.objective == Objective::MinMax {
                    if one_deg_minmax.is_multiple_of(4) && checks.len() < EXHAUSTIVE_SAMPLES {
                        checks.push((req, p));
                    }
                    one_deg_minmax += 1;
                }
                1.0
            }
            Err(e) => {
                ledger.fail(&req.exact_key(), &e);
                0.0
            }
        };
        ops.push(Op::new(t, ended, units).paced(pace.step(), true));
    }
    let window = Window {
        ops,
        ticks: sampler.finish(None),
        peak_rss_mib: host::hwm_mib(None).unwrap_or(f64::NAN),
    };

    if ctx.trace {
        let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds - untraced_s);
        while Instant::now() < deadline {
            let req = gen.next_request(i, fresh_seed(ctx.seed, i));
            i += 1;
            ledger.start();
            match traced_tune(&req, &mut ph) {
                Ok(p) => {
                    ledger.ok();
                    if let Some(problem) = audit_problem(&p) {
                        ledger.mismatch(&req.exact_key(), &problem);
                    }
                }
                Err((e, true)) => {
                    ledger.ok();
                    ledger.mismatch(&req.exact_key(), &e);
                }
                Err((e, false)) => ledger.fail(&req.exact_key(), &e),
            }
            // As in the untraced half, so the two halves compare.
            pace.step();
        }
    }

    for (req, p) in &checks {
        if let Some(problem) = exhaustive_problem(req, p) {
            ledger.mismatch(&req.exact_key(), &problem);
        }
    }

    let mut report = Report::new(ledger, gen.skipped().clone());
    report.e2e(&setup_s, &window, &makespans, &errors);
    report.sample("exhaustive_checks", checks.len());
    if ctx.trace {
        let solves = ph.lp_solves.iter().sum::<f64>();
        let minlp_solves = ph.bb_nodes.len() as f64;
        let traced = ph.op_ms.len();
        let m = |xs: &[f64]| median(xs).unwrap_or(0.0);
        report.layer("nlsq.fit_ms", m(&ph.fit_ms));
        report.layer("nlsq.lm_iterations", m(&ph.lm_iterations));
        report.layer("nlsq.starts_run", m(&ph.starts_run));
        report.layer(
            "nlsq.lm_iters_per_start",
            ratio(ph.lm_iterations.iter().sum(), ph.starts_run.iter().sum()),
        );
        report.layer("nlsq.sse", m(&ph.sse));
        report.layer("minlp.solve_ms", m(&ph.solve_ms));
        report.layer("minlp.bb_nodes", m(&ph.bb_nodes));
        report.layer("minlp.cuts", m(&ph.cuts));
        report.layer("lp.solves", m(&ph.lp_solves));
        report.layer("lp.simplex_iters", m(&ph.simplex_iters));
        report.layer(
            "lp.pivots_per_solve",
            ratio(ph.simplex_iters.iter().sum(), solves),
        );
        report.layer("lp.warm_resolve_ratio", ratio(ph.warm_resolves, solves));
        report.layer("lp.warm_fallbacks", ratio(ph.warm_fallbacks, minlp_solves));
        report.layer("hslb.exhaustive_share", ratio(ph.exhaustive, traced as f64));
        report.layer("cesm.gather_ms", m(&ph.gather_ms));
        report.layer("cesm.gather_runs", m(&ph.gather_runs));
        report.layer("cesm.execute_ms", m(&ph.execute_ms));
        report.layer("hslb.pipeline_self_ms", m(&ph.self_ms));
        report.overhead(&window.latencies(), &ph.op_ms);
        report.sample("traced_ops", traced);
        report.sample("minlp_solves", minlp_solves as usize);
    }
    Ok(report)
}
