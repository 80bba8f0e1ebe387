//! `serve_solve`: one closed-loop client connection to an `hslb-serve`
//! child process with nproc workers, over loopback TCP.
//!
//! Set-up warms one tune per fit key (2 resolutions × ocean on/off ×
//! [`SIM_SEEDS`] simulator seeds); the window then draws from a pool of
//! [`SOLVE_POOL`] exact keys, far more than the exact tier keeps, so
//! nearly every tune is a fit-tier hit that only solves. One connection
//! keeps at most one request in flight: with one connection per core,
//! both cores of a 2-core host were busy and foreign load on the host
//! moved throughput by up to 62% between runs of the same seed.

use crate::account::Ledger;
use crate::client::{parse_tune_reply, stat, tune_line, Conn, ReplyError, Server};
use crate::cold::{enumerate, options_for, quality, simulator_for};
use crate::gen::{fresh_seed, request_pool, Generator, Rng, RESOLUTIONS};
use crate::pace::{self, Pace};
use crate::stats::{median, ratio};
use crate::{host, ms_since, Ctx, Op, Report, Window};
use hslb::{FitSet, Hslb};
use hslb_cesm::{Resolution, Simulator};
use hslb_service::{
    reference_response, wire, ServiceOptions, TunePayload, TuneRequest, TuneResponse, TuningService,
};
use hslb_telemetry::json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Exact keys `serve_solve` draws from (the exact tier keeps 256).
pub const SOLVE_POOL: usize = 8192;
/// Simulator seeds per `serve_solve` run: every (resolution, ocean)
/// machine gets this many fit keys, so no one seed's curves dominate a
/// run, and all of them (48) fit in the fit tier (64 entries).
const SIM_SEEDS: u64 = 12;
/// Client think time: the pause from one reply to the next request.
/// The reactor parks for up to 1 ms once idle, so a request sent at
/// once races the park and gets answered either fast or after the
/// park, and the median swung between the two (0.8–1.5 ms) from run to
/// run. With a pause longer than the reactor's pass, every request
/// finds it parked. The client spends it on the pace kernel
/// ([`PACE_REPS`]) and spins out the rest.
const THINK: Duration = Duration::from_micros(250);
/// Pace kernel repetitions in each think time: about 0.2 ms.
const PACE_REPS: usize = 100;
/// Served keys re-derived with `reference_response` per run.
const SOLVE_CHECKS: usize = 24;
/// Requests in the in-process `submit().wait()` probe.
const SUBMIT_PROBE: usize = 200;
/// Requests in the in-process solve replay.
const SOLVE_REPLAY: usize = 100;
/// Replies whose codec cost is timed.
const CODEC_SAMPLE: usize = 2000;

/// What the client threads saw in one driving window.
#[derive(Default)]
struct Drive {
    ledger: Ledger,
    e2e_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    service_ms: Vec<f64>,
    /// First answer per exact key: the request and its fingerprint and
    /// payload.
    served: BTreeMap<String, (TuneRequest, String, TunePayload)>,
    /// (request line, response) pairs for the codec timing.
    captured: Vec<(String, TuneResponse)>,
    /// Every attempted tune, for the untraced window.
    ops: Vec<Op>,
}

impl Drive {
    fn absorb(&mut self, other: Drive) {
        self.ledger.absorb(other.ledger);
        self.e2e_ms.extend(other.e2e_ms);
        self.queue_ms.extend(other.queue_ms);
        self.service_ms.extend(other.service_ms);
        self.ops.extend(other.ops);
        for (key, entry) in other.served {
            match self.served.get(&key) {
                Some(seen) if seen.1 != entry.1 => self.ledger.mismatch(
                    &key,
                    "two replies for the same exact key carry different fingerprints",
                ),
                Some(_) => {}
                None => {
                    self.served.insert(key, entry);
                }
            }
        }
        let room = CODEC_SAMPLE.saturating_sub(self.captured.len());
        self.captured.extend(other.captured.into_iter().take(room));
    }
}

/// The client connection's closed loop for `seconds`; `salt` makes the
/// draws of the traced half differ from the untraced half's.
fn drive(
    ctx: &Ctx,
    addr: &str,
    pool: &[TuneRequest],
    salt: u64,
    seconds: f64,
    capture: bool,
) -> Drive {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let seed = (ctx.seed.wrapping_mul(31).wrapping_add(salt * 16)) & 0xFFFF;
    let mut d = Drive::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            d.ledger.start();
            d.ledger.fail("connect", &e);
            return d;
        }
    };
    let mut rng = Rng::new(seed);
    let mut pace = Pace::new(PACE_REPS);
    let mut n = 0u64;
    let mut next_send = Instant::now();
    while Instant::now() < deadline {
        // Spin rather than sleep: a timed sleep overshoots by more than
        // the pause when the host is busy.
        while Instant::now() < next_send {
            std::hint::spin_loop();
        }
        let mut req = pool[rng.below(pool.len())].clone();
        req.id = (seed << 32) | n;
        n += 1;
        d.ledger.start();
        let line = tune_line(&req);
        let t = Instant::now();
        let reply = conn.call(&line).map(str::to_string);
        let ended = Instant::now();
        next_send = ended + THINK;
        let step = pace.step();
        let ms = ended.duration_since(t).as_secs_f64() * 1e3;
        let key = req.exact_key();
        // A broken connection cannot carry the next request; a typed
        // error reply leaves it usable.
        if reply.is_err() {
            if let Ok(c) = Conn::connect(addr) {
                conn = c;
            }
        }
        match reply
            .map_err(ReplyError::Failed)
            .and_then(|r| parse_tune_reply(&r, req.id))
        {
            Ok((resp, fingerprint)) => {
                d.ledger.ok();
                d.e2e_ms.push(ms);
                d.queue_ms.push(resp.queue_wait_ms);
                d.service_ms.push(resp.service_ms);
                match d.served.get(&key) {
                    Some(seen) if seen.1 != fingerprint => d.ledger.mismatch(
                        &key,
                        "two replies for the same exact key carry different fingerprints",
                    ),
                    Some(_) => {}
                    None => {
                        d.served
                            .insert(key, (req.clone(), fingerprint, resp.payload.clone()));
                    }
                }
                if capture && d.captured.len() < CODEC_SAMPLE {
                    d.captured.push((line, resp));
                }
                d.ops.push(Op::new(t, ended, 1.0).paced(step, false));
            }
            Err(ReplyError::Failed(e)) => {
                d.ledger.fail(&key, &e);
                d.ops.push(Op::new(t, ended, 0.0).paced(step, false));
            }
            Err(ReplyError::Mismatch(e)) => {
                d.ledger.ok();
                d.ledger.mismatch(&key, &e);
                d.ops.push(Op::new(t, ended, 0.0).paced(step, false));
            }
        }
    }
    d
}

/// Send every warm-up request once; all must succeed.
fn warm_up(conn: &mut Conn, warm: &[TuneRequest]) -> Result<(), String> {
    for req in warm {
        let reply = conn.call(&tune_line(req))?.to_string();
        if let Err(ReplyError::Failed(e) | ReplyError::Mismatch(e)) =
            parse_tune_reply(&reply, req.id)
        {
            return Err(format!("warm-up {}: {e}", req.exact_key()));
        }
    }
    Ok(())
}

/// One tune per fit key: what `serve_solve` warms.
fn fit_key_requests(sim_seeds: &[u64]) -> Vec<TuneRequest> {
    let mut out = Vec::new();
    for resolution in RESOLUTIONS {
        let nodes = match resolution {
            Resolution::OneDegree => 256,
            Resolution::EighthDegree => 8192,
        };
        for ocean in [true, false] {
            for &seed in sim_seeds {
                out.push(TuneRequest {
                    id: out.len() as u64,
                    ocean_constrained: ocean,
                    seed,
                    ..TuneRequest::new(0, resolution, nodes)
                });
            }
        }
    }
    out
}

/// `service.submit_wait_ms`: the same warm-up and mix through an
/// in-process `TuningService`, `submit().wait()` per request.
fn submit_probe(
    ctx: &Ctx,
    warm: &[TuneRequest],
    pool: &[TuneRequest],
    ledger: &mut Ledger,
) -> Vec<f64> {
    let service = TuningService::start(ServiceOptions {
        workers: ctx.workers,
        ..ServiceOptions::default()
    });
    for req in warm {
        ledger.start();
        match service.submit(req.clone()).and_then(|t| t.wait()) {
            Ok(_) => ledger.ok(),
            Err(e) => ledger.fail(&req.exact_key(), &format!("in-process warm-up: {e}")),
        }
    }
    let mut rng = Rng::new(ctx.seed ^ 0x5B);
    let mut out = Vec::with_capacity(SUBMIT_PROBE);
    for _ in 0..SUBMIT_PROBE {
        let req = &pool[rng.below(pool.len())];
        ledger.start();
        let t = Instant::now();
        match service.submit(req.clone()).and_then(|t| t.wait()) {
            Ok(_) => {
                ledger.ok();
                out.push(ms_since(t));
            }
            Err(e) => ledger.fail(&req.exact_key(), &e.to_string()),
        }
    }
    service.shutdown();
    out
}

/// The solve work behind a fit-tier hit, replayed in process on the
/// same mix: `Hslb::solve` and `Hslb::execute` over the fit key's
/// curves.
fn solve_replay(ctx: &Ctx, pool: &[TuneRequest], report: &mut Report) {
    let mut fitted: BTreeMap<String, (Simulator, Option<FitSet>)> = BTreeMap::new();
    let mut rng = Rng::new(ctx.seed ^ 0x50);
    let (mut solve_ms, mut nodes, mut cuts, mut lp, mut iters, mut exec_ms) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let (mut warm, mut fallbacks, mut exhaustive) = (0.0, 0.0, 0.0);
    for _ in 0..SOLVE_REPLAY {
        let req = &pool[rng.below(pool.len())];
        report.ledger.start();
        let (sim, fits) = fitted.entry(req.fit_key()).or_insert_with(|| {
            let sim = simulator_for(req);
            let h = Hslb::new(&sim, options_for(req));
            let fits = h.fit(&h.gather_resilient().0).ok();
            (sim, fits)
        });
        let Some(fits) = fits.as_ref() else {
            report
                .ledger
                .fail(&req.fit_key(), "fit failed in the solve replay");
            continue;
        };
        let h = Hslb::new(sim, options_for(req));
        let t = Instant::now();
        let allocation = match h.solve(fits) {
            Ok(o) => {
                if let Some(s) = o.solver_stats {
                    nodes.push(s.nodes as f64);
                    cuts.push(s.cuts as f64);
                    lp.push(s.lp_solves as f64);
                    iters.push(s.simplex_iters as f64);
                    warm += s.warm_resolves as f64;
                    fallbacks += s.warm_fallbacks as f64;
                } else {
                    exhaustive += 1.0;
                }
                Some(o.allocation)
            }
            Err(_) => {
                exhaustive += 1.0;
                enumerate(sim, fits, req).map(|r| r.allocation)
            }
        };
        solve_ms.push(ms_since(t));
        let Some(allocation) = allocation else {
            report
                .ledger
                .fail(&req.exact_key(), "no allocation in the solve replay");
            continue;
        };
        let t = Instant::now();
        match h.execute(&allocation) {
            Ok(_) => {
                exec_ms.push(ms_since(t));
                report.ledger.ok();
            }
            Err(e) => report.ledger.fail(&req.exact_key(), &e.to_string()),
        }
    }
    let m = |xs: &[f64]| median(xs).unwrap_or(f64::NAN);
    let lp_total: f64 = lp.iter().sum();
    report.layer("minlp.solve_ms", m(&solve_ms));
    report.layer("minlp.bb_nodes", m(&nodes));
    report.layer("minlp.cuts", m(&cuts));
    report.layer("lp.solves", m(&lp));
    report.layer("lp.simplex_iters", m(&iters));
    report.layer("lp.pivots_per_solve", ratio(iters.iter().sum(), lp_total));
    report.layer("lp.warm_resolve_ratio", ratio(warm, lp_total));
    report.layer("lp.warm_fallbacks", ratio(fallbacks, nodes.len() as f64));
    report.layer(
        "hslb.exhaustive_share",
        ratio(exhaustive, solve_ms.len() as f64),
    );
    report.layer("cesm.execute_ms", m(&exec_ms));
    report.sample("solve_replay", solve_ms.len());
}

/// Codec cost per call on the run's own payloads: decoding the request
/// lines the server parsed and encoding the replies it wrote.
fn codec_us(captured: &[(String, TuneResponse)]) -> (f64, f64) {
    if captured.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let n = captured.len() as f64;
    let t = Instant::now();
    let mut bytes = 0usize;
    for (_, resp) in captured {
        bytes += std::hint::black_box(wire::tune_reply(resp)).len();
    }
    let encode = t.elapsed().as_secs_f64() * 1e6 / n;
    let t = Instant::now();
    let mut parsed = 0usize;
    for (line, _) in captured {
        parsed += usize::from(std::hint::black_box(wire::parse_command(line)).is_ok());
    }
    let decode = t.elapsed().as_secs_f64() * 1e6 / n;
    std::hint::black_box((bytes, parsed));
    (encode, decode)
}

/// Tier, coalescing and rejection ratios between two stats replies.
fn service_ratios(before: &Value, after: &Value, report: &mut Report) {
    let d = |k: &[&str]| stat(after, k) - stat(before, k);
    let tiers =
        d(&["stats", "tier_exact"]) + d(&["stats", "tier_fit"]) + d(&["stats", "tier_miss"]);
    let submitted = d(&["stats", "submitted"]);
    report.layer(
        "service.exact_hit_ratio",
        ratio(d(&["stats", "tier_exact"]), tiers),
    );
    report.layer(
        "service.fit_hit_ratio",
        ratio(d(&["stats", "tier_fit"]), tiers),
    );
    report.layer(
        "service.coalesced_ratio",
        ratio(d(&["stats", "coalesced"]), submitted),
    );
    report.layer(
        "service.rejected_ratio",
        ratio(d(&["stats", "rejected"]), submitted),
    );
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut gen = Generator::new(ctx.seed);
    let sim_seeds: Vec<u64> = (0..SIM_SEEDS).map(|i| fresh_seed(ctx.seed, i)).collect();
    let pool = request_pool(&mut gen, SOLVE_POOL, &sim_seeds);
    let warm = fit_key_requests(&sim_seeds);

    let mut setup_s = Vec::new();
    let mut server = None;
    for i in 0..ctx.setups {
        if let Some(old) = server.take() {
            Server::shutdown(old)?;
        }
        let t = Instant::now();
        let s = Server::start(&ctx.serve_bin, ctx.workers, &ctx.run_dir, &ctx.workload)?;
        warm_up(&mut Conn::connect(&s.addr)?, &warm).map_err(|e| format!("setup {i}: {e}"))?;
        setup_s.push(pace::setup_secs(t));
        server = Some(s);
    }
    let server = server.ok_or("no setup ran")?;
    let pid = server.pid();
    let mut ctl = Conn::connect(&server.addr)?;

    let untraced_s = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let sampler = host::Sampler::start(Some(pid), host::SAMPLE_EVERY);
    let mut run = drive(ctx, &server.addr, &pool, 0, untraced_s, false);
    let window = Window {
        ops: std::mem::take(&mut run.ops),
        ticks: sampler.finish(Some(pid)),
        peak_rss_mib: host::hwm_mib(Some(pid)).unwrap_or(f64::NAN),
    };

    let mut traced = None;
    if ctx.trace {
        let before = ctl.stats()?;
        let d = drive(ctx, &server.addr, &pool, 1, ctx.seconds - untraced_s, true);
        let after = ctl.stats()?;
        traced = Some((d, before, after));
    }
    drop(ctl);
    server.shutdown()?;

    let mut layers = Report::new(Ledger::default(), BTreeMap::new());
    if let Some((d, before, after)) = traced {
        let reactor: Vec<f64> = d
            .e2e_ms
            .iter()
            .zip(d.queue_ms.iter().zip(&d.service_ms))
            .map(|(e, (q, s))| e - q - s)
            .collect();
        layers.layer(
            "service.queue_wait_ms",
            median(&d.queue_ms).unwrap_or(f64::NAN),
        );
        layers.layer(
            "service.service_ms",
            median(&d.service_ms).unwrap_or(f64::NAN),
        );
        layers.layer("reactor.overhead_ms", median(&reactor).unwrap_or(f64::NAN));
        layers.layer(
            "reactor.reply_queue_p99",
            stat(&after, &["serving", "reply_queue_depth", "p99"]),
        );
        service_ratios(&before, &after, &mut layers);
        let (encode, decode) = codec_us(&d.captured);
        layers.layer("wire.encode_us", encode);
        layers.layer("wire.decode_us", decode);
        layers.overhead(&window.latencies(), &d.e2e_ms);
        layers.sample("codec_calls", d.captured.len());
        let submit = submit_probe(ctx, &warm, &pool, &mut layers.ledger);
        layers.layer(
            "service.submit_wait_ms",
            median(&submit).unwrap_or(f64::NAN),
        );
        layers.sample("submit_probe", submit.len());
        solve_replay(ctx, &pool, &mut layers);
        run.absorb(d);
    }

    // Bit-identity: served answers against the one-shot pipeline.
    let step = (run.served.len() / SOLVE_CHECKS).max(1);
    let mut checked = 0usize;
    let mut problems = Vec::new();
    for (key, (req, fingerprint, _)) in run.served.iter().step_by(step) {
        checked += 1;
        match reference_response(req) {
            Ok(p) if p.fingerprint() == *fingerprint => {}
            Ok(_) => problems.push((
                key.clone(),
                "served answer differs from reference_response".to_string(),
            )),
            Err(e) => problems.push((key.clone(), format!("reference_response failed: {e}"))),
        }
    }
    let mut ledger = std::mem::take(&mut run.ledger);
    for (key, problem) in problems {
        ledger.mismatch(&key, &problem);
    }

    // Quality over the distinct keys answered.
    let (mut makespans, mut errors) = (Vec::new(), Vec::new());
    for (_, _, payload) in run.served.values() {
        quality(payload, &mut makespans, &mut errors);
    }
    let mut report = Report::new(ledger, gen.skipped().clone());
    report.e2e(&setup_s, &window, &makespans, &errors);
    report.sample("reference_checks", checked);
    report.sample("pool", pool.len());
    report.absorb(layers);
    Ok(report)
}
