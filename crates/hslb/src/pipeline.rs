//! The four-step HSLB pipeline (§III-F), hardened against benchmark
//! faults: the gather step retries failed/hung/garbage runs with
//! exponential backoff and substitutes replacement node counts for
//! irrecoverable points, and the solve step walks a degradation ladder
//! (MINLP → exhaustive enumeration → simulated expert) instead of dying
//! with the first rung.

use crate::data::BenchmarkData;
use crate::error::HslbError;
use crate::exhaustive::ExhaustiveOptimizer;
use crate::fit::{fit_all, FitSet};
use crate::layout_model::{build_layout_model, LayoutModelOptions};
use crate::manual::SimulatedExpert;
use crate::objective::Objective;
use crate::report::{ArmReport, ExperimentReport};
use crate::resilience::{GatherReport, ResilienceReport, RetryPolicy, SolverRung};
use hslb_cesm::{Allocation, BenchFault, Component, Layout, RunResult, Simulator};
use hslb_minlp::{MinlpOptions, MinlpStatus};
use hslb_nlsq::ScalingFitOptions;

/// How to choose the benchmark node counts for the gather step.
#[derive(Debug, Clone)]
pub enum GatherPlan {
    /// §III-C's recipe: the smallest memory-feasible count, the largest
    /// available count, and `extra` log-spaced counts in between (the
    /// paper found 4 points per component sufficient).
    LogSpaced {
        min_nodes: i64,
        max_nodes: i64,
        points: usize,
    },
    /// Use exactly these counts per component.
    Explicit(Vec<i64>),
    /// Reuse previously gathered data, skipping the gather step entirely
    /// ("the data gathering step can be avoided altogether if reliable
    /// benchmarks are already available").
    Reuse(BenchmarkData),
}

impl GatherPlan {
    /// The default plan for a target machine size.
    pub fn default_for(total_nodes: i64) -> Self {
        GatherPlan::LogSpaced {
            min_nodes: (total_nodes / 128).max(8),
            max_nodes: total_nodes,
            points: 5,
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct HslbOptions {
    pub layout: Layout,
    pub objective: Objective,
    /// Target total nodes N for the allocation.
    pub target_nodes: i64,
    pub gather: GatherPlan,
    pub fit: ScalingFitOptions,
    pub solver: MinlpOptions,
    /// Ice–land synchronization tolerance (Table I line 9), optional.
    pub tsync: Option<f64>,
    /// Retry/backoff policy for benchmark and coupled runs.
    pub retry: RetryPolicy,
    /// When set, the solve step uses these curves instead of fitting the
    /// gathered data — the injection hook for flowing a synthetic fit set
    /// (a seeded non-convex instance, say) through the full audit and
    /// degradation ladder. `None` (the default) fits normally.
    pub curve_override: Option<FitSet>,
    /// Telemetry sink for pipeline events. Disabled by default;
    /// instrumentation is strictly passive — the allocation produced is
    /// bit-identical with or without a sink attached. The same handle is
    /// injected into the MINLP solver for the solve step.
    pub telemetry: hslb_telemetry::Telemetry,
}

impl HslbOptions {
    /// Defaults matching the paper's main experiments: layout 1, min-max,
    /// no T_sync.
    pub fn new(target_nodes: i64) -> Self {
        HslbOptions {
            layout: Layout::Hybrid,
            objective: Objective::MinMax,
            target_nodes,
            gather: GatherPlan::default_for(target_nodes),
            fit: ScalingFitOptions::default(),
            solver: MinlpOptions::default(),
            tsync: None,
            retry: RetryPolicy::default(),
            curve_override: None,
            telemetry: hslb_telemetry::Telemetry::disabled(),
        }
    }
}

/// The reusable intermediates of one pipeline run (see
/// [`Hslb::run_with_artifacts`]): the gathered benchmark data and the
/// fitted curves. A request with the same machine, resolution, gather
/// plan and fit options produces bit-identical artifacts, so a service
/// can cache them and replay only the solve/execute steps.
#[derive(Debug, Clone)]
pub struct PipelineArtifacts {
    pub data: BenchmarkData,
    /// `None` when every fit rung failed and the run degraded to the
    /// fit-free simulated expert.
    pub fits: Option<FitSet>,
}

/// Result of the solve step.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    pub allocation: Allocation,
    /// Predicted per-component times from the fitted curves.
    pub predicted: hslb_cesm::layout::ComponentTimes,
    /// Predicted total (the MINLP objective / enumeration score).
    pub predicted_total: f64,
    /// Solver statistics (absent when the enumeration path ran).
    pub solver_stats: Option<hslb_minlp::SolveStats>,
    /// The pre-solve instance audit. `Some(passing)` on the MINLP rung;
    /// `Some(failing)` when a rejected audit routed the solve to the
    /// exhaustive rung; `None` when no MINLP was attempted (non-convex
    /// objectives, fit-free rungs).
    pub audit: Option<hslb_audit::InstanceAudit>,
}

/// The HSLB pipeline bound to a simulator (the "CESM instance").
pub struct Hslb<'a> {
    pub sim: &'a Simulator,
    pub opts: HslbOptions,
}

impl<'a> Hslb<'a> {
    /// Create a pipeline.
    pub fn new(sim: &'a Simulator, opts: HslbOptions) -> Self {
        Hslb { sim, opts }
    }

    /// Project a desired benchmark count onto a component's allowed set
    /// (ocean counts are hard-coded in the CESM build; a benchmark run
    /// cannot use a count the model will not start with).
    fn project_count(&self, c: Component, n: i64) -> i64 {
        // §III-C: the smallest usable benchmark count is the memory floor.
        let floor = self.sim.config.memory_floor(c);
        let n = n.max(floor);
        let allowed = match c {
            Component::Ocn => self.sim.config.ocean_allowed.as_ref(),
            Component::Atm => self.sim.config.atm_allowed.as_ref(),
            _ => None,
        };
        match allowed {
            Some(list) => list
                .iter()
                .copied()
                .filter(|&v| v >= floor)
                .min_by_key(|&v| (v - n).abs())
                .unwrap_or(n),
            None => n.max(1),
        }
    }

    /// Step 1: gather benchmark data per the plan, discarding the fault
    /// accounting (see [`Self::gather_resilient`]).
    pub fn gather(&self) -> BenchmarkData {
        self.gather_resilient().0
    }

    /// Step 1, with the campaign's fault accounting: every benchmark run
    /// goes through the [`RetryPolicy`] — bounded retries with
    /// exponential backoff for failed/hung runs, a plausibility window
    /// that rejects corrupt timings, and replacement node counts for
    /// points that stay dead after every retry. On a fault-free
    /// simulator this produces bit-identical data to the historical
    /// gather.
    pub fn gather_resilient(&self) -> (BenchmarkData, GatherReport) {
        let _span = self.opts.telemetry.span("gather");
        let (data, report) = match &self.opts.gather {
            GatherPlan::Reuse(data) => {
                let mut report = GatherReport::default();
                for c in Component::OPTIMIZED {
                    report.points.insert(c, data.count(c));
                }
                (data.clone(), report)
            }
            GatherPlan::Explicit(counts) => self.gather_at(counts),
            GatherPlan::LogSpaced {
                min_nodes,
                max_nodes,
                points,
            } => {
                let (lo, hi) = (*min_nodes.min(max_nodes), *max_nodes.max(min_nodes));
                let k = (*points).max(2);
                let counts: Vec<i64> = (0..k)
                    .map(|i| {
                        let f = i as f64 / (k - 1) as f64;
                        ((lo as f64).ln() + f * ((hi as f64).ln() - (lo as f64).ln())).exp() as i64
                    })
                    .collect();
                self.gather_at(&counts)
            }
        };
        self.emit_gather_telemetry(&report);
        (data, report)
    }

    /// Campaign-level gather accounting for the telemetry sink.
    fn emit_gather_telemetry(&self, report: &GatherReport) {
        let tel = &self.opts.telemetry;
        if !tel.is_enabled() {
            return;
        }
        tel.counter_add("gather.attempts", report.attempts as u64);
        tel.counter_add("gather.succeeded", report.succeeded as u64);
        tel.counter_add("gather.failed_runs", report.failed_runs as u64);
        tel.counter_add("gather.hung_runs", report.hung_runs as u64);
        tel.counter_add("gather.garbage_discarded", report.garbage_discarded as u64);
        tel.counter_add("gather.retried_points", report.retried_points as u64);
        tel.counter_add(
            "gather.substituted_points",
            report.substituted_points as u64,
        );
        tel.counter_add("gather.abandoned_points", report.abandoned_points as u64);
        tel.point(
            "gather.done",
            &[
                ("backoff_s", report.backoff_seconds),
                ("wasted_s", report.wasted_seconds),
                ("min_points", report.min_component_points() as f64),
            ],
            &[],
        );
    }

    fn gather_at(&self, counts: &[i64]) -> (BenchmarkData, GatherReport) {
        let mut data = BenchmarkData::new();
        let mut report = GatherReport::default();
        for &c in &Component::OPTIMIZED {
            let mut used = std::collections::BTreeSet::new();
            let mut kept = 0usize;
            for (i, &n) in counts.iter().enumerate() {
                let m = self.project_count(c, n);
                if !used.insert(m) {
                    continue; // projection collapsed two counts
                }
                if let Some(secs) = self.measure_with_retry(c, m, i as u64, &mut report) {
                    data.push(c, m as f64, secs);
                    kept += 1;
                    continue;
                }
                // The planned count is irrecoverable (a bad node set, a
                // poisoned queue slot): the curve shape matters more than
                // the exact abscissa, so try nearby replacement counts.
                let mut rescued = false;
                for (k, cand) in self
                    .substitute_candidates(c, m, &used)
                    .into_iter()
                    .enumerate()
                {
                    let base = i as u64 + ((k as u64 + 1) << 12);
                    if let Some(secs) = self.measure_with_retry(c, cand, base, &mut report) {
                        used.insert(cand);
                        data.push(c, cand as f64, secs);
                        report.substituted_points += 1;
                        kept += 1;
                        rescued = true;
                        break;
                    }
                }
                if !rescued {
                    report.abandoned_points += 1;
                }
            }
            report.points.insert(c, kept);
        }
        (data, report)
    }

    /// One benchmark point under the retry policy. Attempt 0 reuses the
    /// historical run id so a fault-free campaign reproduces the exact
    /// noise stream of the pre-fault-injection gather.
    fn measure_with_retry(
        &self,
        c: Component,
        nodes: i64,
        base_run: u64,
        report: &mut GatherReport,
    ) -> Option<f64> {
        let policy = &self.opts.retry;
        let tel = &self.opts.telemetry;
        let component = c.to_string();
        let mut retried = false;
        for attempt in 0..policy.max_attempts.max(1) {
            if attempt > 0 {
                let wait = policy.backoff_before(attempt);
                report.backoff_seconds += wait;
                tel.record("gather.backoff_s", wait);
                if !retried {
                    report.retried_points += 1;
                    retried = true;
                }
            }
            report.attempts += 1;
            let run_id = base_run + (attempt as u64) * 1000;
            let t0 = std::time::Instant::now();
            let res = self
                .sim
                .try_component_time(c, nodes, run_id, policy.run_budget_seconds);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let emit = |status: &str, secs: f64| {
                tel.point(
                    "gather.run",
                    &[
                        ("nodes", nodes as f64),
                        ("secs", secs),
                        ("attempt", attempt as f64),
                        ("wall_ms", wall_ms),
                    ],
                    &[("component", &component), ("status", status)],
                );
            };
            match res {
                Ok(secs) if policy.plausible(secs) => {
                    report.succeeded += 1;
                    emit("ok", secs);
                    return Some(secs);
                }
                Ok(secs) => {
                    report.garbage_discarded += 1;
                    emit("garbage", secs);
                }
                Err(BenchFault::Failed { .. }) => {
                    report.failed_runs += 1;
                    emit("failed", f64::NAN);
                }
                Err(BenchFault::Hung {
                    elapsed_seconds, ..
                }) => {
                    report.hung_runs += 1;
                    report.wasted_seconds += elapsed_seconds;
                    emit("hung", elapsed_seconds);
                }
            }
        }
        None
    }

    /// Nearby replacement counts for an irrecoverable benchmark point,
    /// projected onto the component's allowed set and deduplicated
    /// against counts already measured.
    fn substitute_candidates(
        &self,
        c: Component,
        m: i64,
        used: &std::collections::BTreeSet<i64>,
    ) -> Vec<i64> {
        let step = (m / 8).max(1);
        let mut out = Vec::new();
        for delta in [step, -step, 2 * step, -2 * step] {
            let cand = self.project_count(c, (m + delta).max(1));
            if cand >= 1 && !used.contains(&cand) && !out.contains(&cand) {
                out.push(cand);
            }
        }
        out
    }

    /// Step 2: fit the four performance curves.
    pub fn fit(&self, data: &BenchmarkData) -> Result<FitSet, HslbError> {
        let _span = self.opts.telemetry.span("fit");
        let fits = fit_all(data, &self.opts.fit)?;
        if self.opts.telemetry.is_enabled() {
            for (c, f) in fits.iter() {
                self.opts.telemetry.point(
                    "fit.component",
                    &[
                        ("r2", f.r_squared),
                        ("points", f.points as f64),
                        ("profile_evals", f.lm_iterations as f64),
                        ("sse", f.sse),
                    ],
                    &[("component", &c.to_string())],
                );
            }
        }
        Ok(fits)
    }

    /// Step 3: solve for the optimal allocation given fitted curves.
    ///
    /// Convex objectives go through the MINLP branch-and-bound; `max-min`
    /// is routed to the enumeration optimizer (see [`Objective`]). This
    /// is the strict, single-rung API: solver limits and deadlines
    /// without an incumbent are errors. [`Self::run`] instead walks the
    /// degradation ladder.
    pub fn solve(&self, fits: &FitSet) -> Result<SolveOutcome, HslbError> {
        if self.opts.objective.is_convex_minlp() {
            self.solve_minlp(fits).map(|(outcome, _)| outcome)
        } else {
            self.solve_exhaustive(fits)
                .map(|res| self.outcome(fits, res.allocation, None))
                .ok_or_else(|| HslbError::Infeasible {
                    detail: format!(
                        "no candidate {} allocation of {} nodes",
                        self.opts.layout, self.opts.target_nodes
                    ),
                })
        }
    }

    /// The enumeration rung, with its candidate accounting forwarded to
    /// the telemetry sink.
    fn solve_exhaustive(&self, fits: &FitSet) -> Option<crate::exhaustive::ExhaustiveResult> {
        let res = self.exhaustive(fits).try_solve(self.opts.objective);
        if let Some(r) = &res {
            self.opts
                .telemetry
                .counter_add("exhaustive.evaluated", r.evaluations as u64);
            self.opts
                .telemetry
                .counter_add("exhaustive.pruned", r.pruned as u64);
        }
        res
    }

    fn exhaustive<'f>(&self, fits: &'f FitSet) -> ExhaustiveOptimizer<'f> {
        let mut opt = ExhaustiveOptimizer::new(fits, self.opts.layout, self.opts.target_nodes);
        opt.ocean_allowed = self.sim.config.ocean_allowed.clone();
        opt.atm_allowed = self.sim.config.atm_allowed.clone();
        opt.floors = crate::layout_model::NodeFloors::from_config(&self.sim.config);
        opt
    }

    /// The MINLP rung. `Ok((outcome, with_gap))` carries whether the
    /// solver stopped at a limit with an unproven gap (best incumbent
    /// accepted, accuracy degraded); errors describe why the rung
    /// produced nothing.
    fn solve_minlp(&self, fits: &FitSet) -> Result<(SolveOutcome, bool), HslbError> {
        let lm = build_layout_model(
            fits,
            &LayoutModelOptions {
                layout: self.opts.layout,
                objective: self.opts.objective,
                total_nodes: self.opts.target_nodes,
                floors: crate::layout_model::NodeFloors::from_config(&self.sim.config),
                ocean_allowed: self.sim.config.ocean_allowed.clone(),
                atm_allowed: self.sim.config.atm_allowed.clone(),
                tsync: self.opts.tsync,
            },
        )?;

        // Level 1 instance audit: branch-and-bound may only claim a
        // global optimum on an instance whose curves certify convex and
        // whose model matches the declared layout's Table I structure. A
        // failed audit is an error here — the ladder catches it and
        // degrades to the exhaustive rung with the audit attached.
        let audit = self.audit_instance(fits, &lm.model);
        self.emit_audit_telemetry(&audit);
        if !audit.passed() {
            return Err(HslbError::AuditRejected {
                audit: Box::new(audit),
            });
        }

        let ir = hslb_minlp::compile(&lm.model)?;
        // Hand the pipeline's sink to the solver unless the caller
        // already wired a dedicated one into the solver options.
        let mut solver = self.opts.solver.clone();
        if !solver.telemetry.is_enabled() {
            solver.telemetry = self.opts.telemetry.clone();
        }
        let mut sol = if solver.threads > 1 {
            hslb_minlp::solve_parallel(&ir, &solver)
        } else {
            hslb_minlp::solve(&ir, &solver)
        };
        sol.stats.audit = Some(hslb_minlp::AuditStamp {
            passed: audit.passed(),
            components: audit.certificate.components.len(),
            violations: audit.violation_count(),
            summary: audit.summary(),
        });
        match sol.status {
            MinlpStatus::Optimal => {
                let allocation = lm.allocation(&sol.x);
                let mut outcome = self.outcome(fits, allocation, Some(sol.stats));
                outcome.audit = Some(audit);
                Ok((outcome, false))
            }
            MinlpStatus::NodeLimitWithIncumbent | MinlpStatus::TimeLimitWithIncumbent => {
                // Best incumbent with an unproven gap — usable, degraded.
                let allocation = lm.allocation(&sol.x);
                let mut outcome = self.outcome(fits, allocation, Some(sol.stats));
                outcome.audit = Some(audit);
                Ok((outcome, true))
            }
            MinlpStatus::Infeasible => Err(HslbError::Infeasible {
                detail: format!(
                    "no feasible {} allocation of {} nodes",
                    self.opts.layout, self.opts.target_nodes
                ),
            }),
            MinlpStatus::NodeLimitNoIncumbent => Err(HslbError::SolverIncomplete {
                detail: format!(
                    "node limit {} reached without an incumbent",
                    self.opts.solver.node_limit
                ),
            }),
            MinlpStatus::TimeLimitNoIncumbent => Err(HslbError::SolverIncomplete {
                detail: format!(
                    "wall-clock deadline {:?} expired without an incumbent",
                    self.opts.solver.time_limit
                ),
            }),
        }
    }

    /// Run the Level 1 instance audit for a generated layout model: the
    /// fitted curves' convexity certificate plus the model
    /// well-formedness checks, against expectations derived from the
    /// pipeline's own configuration.
    fn audit_instance(
        &self,
        fits: &FitSet,
        model: &hslb_model::Model,
    ) -> hslb_audit::InstanceAudit {
        let curves: Vec<(Component, hslb_nlsq::ScalingCurve)> =
            fits.iter().map(|(c, f)| (c, f.curve)).collect();
        let expect = hslb_audit::ModelExpectations {
            layout: self.opts.layout,
            shape: match self.opts.objective {
                Objective::SumTime => hslb_audit::ObjectiveShape::SumTime,
                _ => hslb_audit::ObjectiveShape::MinMax,
            },
            total_nodes: self.opts.target_nodes,
            tsync: self.opts.tsync.is_some(),
            ocean_set: self.sim.config.ocean_allowed.is_some(),
            atm_set: self.sim.config.atm_allowed.is_some(),
        };
        hslb_audit::audit_instance(&curves, model, &expect)
    }

    /// Per-solve audit accounting for the telemetry sink.
    fn emit_audit_telemetry(&self, audit: &hslb_audit::InstanceAudit) {
        let tel = &self.opts.telemetry;
        if !tel.is_enabled() {
            return;
        }
        for c in &audit.certificate.components {
            tel.point(
                "audit.component",
                &[
                    ("passed", f64::from(u8::from(c.passed()))),
                    ("violations", c.violations.len() as f64),
                ],
                &[("component", &c.component.to_string())],
            );
        }
        tel.point(
            "audit.done",
            &[
                ("passed", f64::from(u8::from(audit.passed()))),
                ("violations", audit.violation_count() as f64),
                ("convex_verified", audit.model.convex_verified as f64),
                ("sos_sets", audit.model.sos_sets_checked as f64),
            ],
            &[],
        );
    }

    /// Rungs 1–2 of the degradation ladder (both need fitted curves).
    /// `None` means rung 3 (the fit-free simulated expert) is next;
    /// every fallback taken is appended to `fallbacks`.
    fn solve_ladder(
        &self,
        fits: &FitSet,
        fallbacks: &mut Vec<String>,
        degraded: &mut bool,
    ) -> Option<(SolveOutcome, SolverRung)> {
        let mut rejected_audit = None;
        if self.opts.objective.is_convex_minlp() {
            match self.solve_minlp(fits) {
                Ok((outcome, with_gap)) => {
                    *degraded |= with_gap;
                    return Some((outcome, SolverRung::Minlp));
                }
                Err(e) => {
                    self.opts.telemetry.point(
                        "ladder.fallback",
                        &[],
                        &[("from", "minlp"), ("cause", &e.to_string())],
                    );
                    fallbacks.push(format!("MINLP rung: {e}"));
                    *degraded = true;
                    // A rejected audit rides along to the report: the
                    // exhaustive answer is honest about *why* it is not a
                    // certified global optimum.
                    if let HslbError::AuditRejected { audit } = e {
                        rejected_audit = Some(*audit);
                    }
                }
            }
        }
        match self.solve_exhaustive(fits) {
            Some(res) => {
                let mut outcome = self.outcome(fits, res.allocation, None);
                outcome.audit = rejected_audit;
                Some((outcome, SolverRung::Exhaustive))
            }
            None => {
                self.opts.telemetry.point(
                    "ladder.fallback",
                    &[],
                    &[
                        ("from", "exhaustive"),
                        ("cause", "no feasible candidate allocation"),
                    ],
                );
                fallbacks.push("exhaustive rung: no feasible candidate allocation".into());
                None
            }
        }
    }

    fn outcome(
        &self,
        fits: &FitSet,
        allocation: Allocation,
        solver_stats: Option<hslb_minlp::SolveStats>,
    ) -> SolveOutcome {
        let predicted = hslb_cesm::layout::ComponentTimes {
            lnd: fits.predict(Component::Lnd, allocation.lnd),
            ice: fits.predict(Component::Ice, allocation.ice),
            atm: fits.predict(Component::Atm, allocation.atm),
            ocn: fits.predict(Component::Ocn, allocation.ocn),
        };
        SolveOutcome {
            predicted_total: self.opts.layout.total_time(&predicted),
            allocation,
            predicted,
            solver_stats,
            audit: None,
        }
    }

    /// Step 4: execute the allocation on the simulator (one attempt; the
    /// full pipeline retries, see [`Self::run`]).
    pub fn execute(&self, allocation: &Allocation) -> Result<RunResult, HslbError> {
        self.sim
            .run_case(allocation, self.opts.layout, 0xE0)
            .map_err(|detail| HslbError::Execute { detail })
    }

    /// Execute a coupled run with bounded retries (a valid allocation
    /// can still lose its run to the cluster). Attempt 0 reuses the
    /// historical run id so fault-free behavior is unchanged.
    fn execute_with_retry(
        &self,
        allocation: &Allocation,
        base_run: u64,
    ) -> Result<(RunResult, usize), String> {
        // Coupled runs are the expensive last-mile step: grant a little
        // headroom beyond the benchmark retry budget.
        let attempts = self.opts.retry.max_attempts.max(1) + 2;
        let mut last = String::new();
        for attempt in 0..attempts {
            let run_id = base_run + (attempt as u64) * 0x100;
            match self.sim.run_case(allocation, self.opts.layout, run_id) {
                Ok(run) => return Ok((run, attempt + 1)),
                Err(detail) => last = detail,
            }
        }
        Err(format!("{last} (after {attempts} attempts)"))
    }

    /// The whole pipeline: gather → fit → solve → execute, with an
    /// optional manual-baseline arm for comparison.
    ///
    /// This is the fault-tolerant entry point. Benchmark runs are
    /// retried per the [`RetryPolicy`]; the solve step walks the
    /// degradation ladder — MINLP branch-and-bound, then exhaustive
    /// enumeration over the fitted curves, then (when no curves could be
    /// fitted at all) the simulated-expert heuristic — and the report's
    /// [`ResilienceReport`] records the rung that won, every fallback
    /// reason, and whether accuracy is degraded. A manual arm whose
    /// coupled runs all fail is dropped with a note rather than failing
    /// the experiment. The only errors left are the truly fatal ones:
    /// every ladder rung exhausted, or the final allocation's coupled
    /// run failing every retry.
    pub fn run(&self, manual: Option<Allocation>) -> Result<ExperimentReport, HslbError> {
        self.run_with_artifacts(manual).map(|(report, _)| report)
    }

    /// [`Self::run`], additionally handing back the gathered benchmark
    /// data and the fitted curves it used. The report is bit-identical to
    /// `run`'s — this only exposes the intermediates so a caller (the
    /// tuning service's fit-level cache) can replay the solve step for a
    /// *compatible* request via [`GatherPlan::Reuse`] +
    /// [`HslbOptions::curve_override`] without re-gathering or re-fitting.
    pub fn run_with_artifacts(
        &self,
        manual: Option<Allocation>,
    ) -> Result<(ExperimentReport, PipelineArtifacts), HslbError> {
        let _pipeline = self.opts.telemetry.span("pipeline");
        let (data, gather) = self.gather_resilient();
        let mut fallbacks: Vec<String> = Vec::new();
        let mut degraded = gather.degraded(self.opts.retry.min_points);

        // Fit when possible; a failed fit drops to the fit-free rung. An
        // injected curve set bypasses the fit entirely (see
        // [`HslbOptions::curve_override`]).
        let fits = match &self.opts.curve_override {
            Some(synthetic) => Some(synthetic.clone()),
            None => match self.fit(&data) {
                Ok(f) => Some(f),
                Err(e) => {
                    self.opts.telemetry.point(
                        "ladder.fallback",
                        &[],
                        &[("from", "fit"), ("cause", &e.to_string())],
                    );
                    fallbacks.push(format!("fit rung: {e}"));
                    None
                }
            },
        };

        let solve_span = self.opts.telemetry.span("solve");
        let solved = fits
            .as_ref()
            .and_then(|f| self.solve_ladder(f, &mut fallbacks, &mut degraded));

        let (allocation, solved, rung) = match solved {
            Some((outcome, rung)) => (outcome.allocation, Some(outcome), rung),
            None => {
                // Rung 3: no usable curves — fall back to the simulated
                // expert, which only needs the simulator itself.
                degraded = true;
                let expert = SimulatedExpert {
                    iterations: self.opts.retry.max_attempts.max(1) * 4,
                };
                match expert.try_tune(self.sim, self.opts.target_nodes) {
                    Some((alloc, runs)) => {
                        fallbacks.push(format!(
                            "expert rung: tuned an allocation in {runs} coupled runs"
                        ));
                        (alloc, None, SolverRung::SimulatedExpert)
                    }
                    None => {
                        fallbacks.push("expert rung: every coupled run failed".into());
                        return Err(HslbError::DegradationExhausted { fallbacks });
                    }
                }
            }
        };
        self.opts.telemetry.point(
            "ladder.rung",
            &[("degraded", f64::from(u8::from(degraded)))],
            &[("rung", &rung.to_string())],
        );
        drop(solve_span);

        let execute_span = self.opts.telemetry.span("execute");
        let (actual, execute_attempts) = self
            .execute_with_retry(&allocation, 0xE0)
            .map_err(|detail| HslbError::Execute { detail })?;
        drop(execute_span);

        let manual_arm = match manual {
            Some(alloc) => match self.execute_with_retry(&alloc, 0xA0) {
                Ok((run, _)) => Some(ArmReport {
                    allocation: alloc,
                    predicted: None,
                    predicted_total: None,
                    actual: run.times,
                    actual_total: run.total,
                }),
                Err(detail) => {
                    fallbacks.push(format!("manual arm dropped: {detail}"));
                    None
                }
            },
            None => None,
        };

        let artifacts = PipelineArtifacts {
            data,
            fits: fits.clone(),
        };
        let report = ExperimentReport {
            resolution: self.sim.resolution(),
            layout: self.opts.layout,
            objective: self.opts.objective,
            target_nodes: self.opts.target_nodes,
            fits: fits
                .as_ref()
                .map(|fits| {
                    fits.iter()
                        .map(|(c, f)| (c, f.curve, f.r_squared))
                        .collect()
                })
                .unwrap_or_default(),
            manual: manual_arm,
            hslb: ArmReport {
                allocation,
                predicted: solved.as_ref().map(|s| s.predicted),
                predicted_total: solved.as_ref().map(|s| s.predicted_total),
                actual: actual.times,
                actual_total: actual.total,
            },
            audit: solved.as_ref().and_then(|s| s.audit.clone()),
            solver_stats: solved.and_then(|s| s.solver_stats),
            resilience: Some(ResilienceReport {
                gather,
                rung,
                fallbacks,
                degraded_accuracy: degraded,
                execute_attempts,
            }),
        };
        Ok((report, artifacts))
    }
}

/// Drift-rebalance entry point: re-fit `data` — typically previously
/// gathered benchmarks merged with freshly streamed timing samples —
/// then re-solve and re-execute under the caller's options. The fit is
/// exact, so the re-fit needs nothing from the stale curves. Any
/// `curve_override` in `opts` is cleared: a rebalance exists precisely
/// to replace stale curves with a fresh fit of the drifted data.
pub fn rebalance(
    sim: &Simulator,
    mut opts: HslbOptions,
    data: BenchmarkData,
) -> Result<(ExperimentReport, PipelineArtifacts), HslbError> {
    let total_points: usize = data.components().iter().map(|&c| data.count(c)).sum();
    opts.telemetry
        .point("drift.rebalance", &[("points", total_points as f64)], &[]);
    opts.gather = GatherPlan::Reuse(data);
    opts.curve_override = None;
    Hslb::new(sim, opts).run_with_artifacts(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_respects_allowed_sets() {
        let sim = Simulator::one_degree(20);
        let h = Hslb::new(&sim, HslbOptions::new(128));
        let data = h.gather();
        assert!(data.covers_optimized(3));
        // Every ocean observation must be an allowed (even/768) count.
        for &(n, _) in data.of(Component::Ocn) {
            let n = n as i64;
            assert!(
                (n % 2 == 0 && n <= 480) || n == 768,
                "ocean benchmarked at disallowed count {n}"
            );
        }
    }

    #[test]
    fn resilient_gather_survives_flaky_runs() {
        use hslb_cesm::FaultSpec;
        let sim = Simulator::one_degree(20).with_faults(FaultSpec::flaky(77, 0.2));
        let h = Hslb::new(&sim, HslbOptions::new(128));
        let (data, report) = h.gather_resilient();
        assert!(!report.is_clean(), "20% fail + 20% hang must leave marks");
        assert!(report.failed_runs + report.hung_runs > 0);
        assert!(
            data.covers_optimized(3),
            "retries must keep the campaign viable: {report}"
        );
        // Deterministic: the same seed reproduces the same campaign.
        let (_, again) = h.gather_resilient();
        assert_eq!(report.attempts, again.attempts);
        assert_eq!(report.failed_runs, again.failed_runs);
    }

    #[test]
    fn clean_gather_report_is_clean_and_counts_points() {
        let sim = Simulator::one_degree(20);
        let h = Hslb::new(&sim, HslbOptions::new(128));
        let (data, report) = h.gather_resilient();
        assert!(report.is_clean());
        assert_eq!(report.failed_runs, 0);
        for c in Component::OPTIMIZED {
            assert_eq!(report.points[&c], data.count(c));
        }
        // The resilient path reproduces the historical gather exactly.
        assert_eq!(data.of(Component::Atm), h.gather().of(Component::Atm));
    }

    #[test]
    fn zero_deadline_falls_back_to_exhaustive_rung() {
        let sim = Simulator::one_degree(22);
        let mut opts = HslbOptions::new(128);
        opts.solver.time_limit = Some(std::time::Duration::ZERO);
        let h = Hslb::new(&sim, opts);
        let report = h.run(None).expect("ladder must rescue the run");
        let res = report.resilience.as_ref().expect("run() always reports");
        assert_eq!(res.rung, crate::resilience::SolverRung::Exhaustive);
        assert!(res.degraded_accuracy);
        assert!(
            res.fallbacks.iter().any(|r| r.contains("deadline")),
            "fallback reasons: {:?}",
            res.fallbacks
        );
        assert!(report.hslb.actual_total.is_finite());
    }

    #[test]
    fn strict_solve_errors_on_zero_deadline() {
        let sim = Simulator::one_degree(22);
        let mut opts = HslbOptions::new(128);
        opts.solver.time_limit = Some(std::time::Duration::ZERO);
        let h = Hslb::new(&sim, opts);
        let data = h.gather();
        let fits = h.fit(&data).unwrap();
        assert!(matches!(
            h.solve(&fits),
            Err(crate::error::HslbError::SolverIncomplete { .. })
        ));
    }

    #[test]
    fn explicit_plan_deduplicates_after_projection() {
        let sim = Simulator::one_degree(21);
        let mut opts = HslbOptions::new(128);
        opts.gather = GatherPlan::Explicit(vec![23, 24, 25, 128]); // ocn projects 23→24? (24 even)
        let h = Hslb::new(&sim, opts);
        let data = h.gather();
        // lnd keeps all 4 distinct counts; ocn collapses 23/24/25 → {24} (23→24? 25→24/26).
        assert_eq!(data.count(Component::Lnd), 4);
        assert!(data.count(Component::Ocn) < 4);
    }
}
