//! The tuning service: sharded workers driving the HSLB pipeline behind
//! the admission queue, coalescer and cache tiers, supervised so one
//! poisoned request can never take a shard down.
//!
//! Determinism contract: [`reference_response`] is the serial one-shot
//! baseline — fresh simulator, fresh options, no caches. Every response
//! the service produces must carry a payload bit-identical to that
//! baseline for the same request, at any worker/shard count, with any
//! [`CachePolicy`], and under any [`ServiceFaultSpec`] — faults may turn a response into an explicit
//! typed error, never into different bytes. The pieces keep that bar
//! individually:
//!
//! * scheduling (priority/deadline/backpressure) changes only *when* a
//!   request is computed, never *what* is computed;
//! * the exact tier replays a payload computed by the same deterministic
//!   pipeline — and every cached payload is stored with its fingerprint
//!   as a seal, re-verified on every read, so a corrupted (poisoned)
//!   entry is detected and recomputed instead of served;
//! * coalescing hands followers the leader's payload — the same bytes a
//!   separate run would have produced;
//! * simulators are stateless (noise is a pure function of seed and
//!   inputs), so the shared simulator cache is exact;
//! * supervision (DESIGN.md §13) only ever *re-runs* the deterministic
//!   computation: a panicked or hung attempt is requeued up to
//!   [`SupervisePolicy::max_requeues`] times, then routed to the bypass
//!   rung — one fault-injection-free, cache-bypass reference run — and
//!   only after that fails does the requester see a typed error.

use crate::cache::{AdmitOutcome, FrontDesk, LruCache};
use crate::drift::{DriftDecision, DriftDetector, DriftOptions, DriftStats, RebalanceOutcome};
use crate::fault::ServiceFaultSpec;
use crate::queue::{AdmissionQueue, Backpressure, PushError, Rank};
use crate::ranked::{rank, RankedCondvar, RankedMutex};
use crate::request::{resolution_token, CacheTier, TunePayload, TuneRequest, TuneResponse};
use crate::snapshot::{self, RecoveryRecord, SnapshotPolicy, SnapshotStats};
use hslb::{BenchmarkData, FitSet, GatherPlan, Hslb, HslbOptions};
use hslb_cesm::layout::ComponentTimes;
use hslb_cesm::{
    Allocation, Component, Machine, NoiseSpec, Resolution, ResolutionConfig, Simulator,
};
use hslb_telemetry::json::Value;
use hslb_telemetry::Telemetry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which cache layers are active.
#[derive(Debug, Clone, Copy)]
pub struct CachePolicy {
    /// Exact-key payload cache.
    pub exact: bool,
    /// Fit-level artifact cache (gathered data + fitted curves).
    pub fit: bool,
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy {
            exact: true,
            fit: true,
        }
    }
}

impl CachePolicy {
    /// Everything off — every request runs the full pipeline.
    pub fn disabled() -> CachePolicy {
        CachePolicy {
            exact: false,
            fit: false,
        }
    }
}

/// Worker supervision policy (DESIGN.md §13).
#[derive(Debug, Clone, Copy)]
pub struct SupervisePolicy {
    /// Requeues after a panicked/hung attempt before the bypass rung.
    pub max_requeues: u32,
    /// Watchdog budget for requests without a deadline.
    pub watchdog_default_ms: u64,
    /// Watchdog floor: a tiny client deadline must not starve a healthy
    /// attempt of its compute time (deadlines are logical tie-breakers
    /// first, watchdog keys second).
    pub watchdog_floor_ms: u64,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy {
            max_requeues: 2,
            watchdog_default_ms: 10_000,
            watchdog_floor_ms: 250,
        }
    }
}

/// Service construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Worker threads (each pinned to one queue shard).
    pub workers: usize,
    /// Queue shards; admissions to different shards never contend.
    pub shards: usize,
    /// Per-shard admission capacity (beyond it: backpressure).
    pub queue_capacity: usize,
    /// Batch identical in-flight requests instead of enqueueing each.
    pub coalesce: bool,
    pub cache: CachePolicy,
    /// Exact-tier entries kept (LRU beyond this).
    pub exact_capacity: usize,
    /// Fit-tier entries kept (LRU beyond this).
    pub fit_capacity: usize,
    pub supervise: SupervisePolicy,
    /// Deterministic service-fault injection (chaos testing; defaults to
    /// no faults).
    pub faults: ServiceFaultSpec,
    /// Crash-safe cache snapshot policy (`None` = no persistence).
    pub snapshot: Option<SnapshotPolicy>,
    pub drift: DriftOptions,
    pub telemetry: Telemetry,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            workers: 4,
            shards: 2,
            queue_capacity: 64,
            coalesce: true,
            cache: CachePolicy::default(),
            exact_capacity: 256,
            fit_capacity: 64,
            supervise: SupervisePolicy::default(),
            faults: ServiceFaultSpec::none(),
            snapshot: None,
            drift: DriftOptions::default(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Why a submission (or a wait) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The target shard is at capacity; retry after the hint.
    Backpressure(Backpressure),
    /// The service is draining and accepts nothing new.
    ShuttingDown,
    /// The request was admitted but still queued when a graceful drain
    /// began; it was **rejected, not dropped** — clients can distinguish
    /// a drain (typed error, retry elsewhere after the hint) from a
    /// crash (connection death, no reply at all).
    Draining { retry_after_ms: u64 },
    /// The pipeline itself failed for this request.
    Pipeline(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backpressure(bp) => write!(
                f,
                "backpressure: shard depth {}, retry after {} ms",
                bp.depth, bp.retry_after_ms
            ),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::Draining { retry_after_ms } => write!(
                f,
                "service is draining; request rejected, retry after {retry_after_ms} ms"
            ),
            SubmitError::Pipeline(e) => write!(f, "pipeline error: {e}"),
        }
    }
}

/// The terminal state of one submitted request.
pub type TicketResult = Result<TuneResponse, SubmitError>;

type ResolveCallback = Box<dyn FnOnce(TicketResult) + Send + 'static>;

/// The resolution slot behind a [`Ticket`]. `Callback` is the
/// reactor-serving mode: instead of a thread parked in [`Ticket::wait`],
/// the resolving worker invokes the callback inline (after releasing the
/// slot lock), which hands the serialized reply to the readiness loop's
/// completion bus — no per-reply thread anywhere.
enum Slot {
    Pending,
    Ready(TicketResult),
    Callback(ResolveCallback),
    /// Result already consumed (waited on, or delivered to a callback).
    Done,
}

struct TicketInner {
    slot: RankedMutex<Slot, { rank::TICKET_SLOT }>,
    ready: RankedCondvar<{ rank::TICKET_SLOT }>,
}

impl std::fmt::Debug for TicketInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TicketInner").finish_non_exhaustive()
    }
}

impl TicketInner {
    fn new() -> Arc<TicketInner> {
        Arc::new(TicketInner {
            slot: RankedMutex::new(Slot::Pending),
            ready: RankedCondvar::new(),
        })
    }

    fn resolve(&self, result: TicketResult) {
        let mut slot = self.slot.lock();
        match std::mem::replace(&mut *slot, Slot::Done) {
            Slot::Pending => {
                *slot = Slot::Ready(result);
                drop(slot);
                self.ready.notify_all();
            }
            Slot::Callback(cb) => {
                // Invoke outside the lock: the callback may itself take
                // other locks (the reactor's completion bus).
                drop(slot);
                cb(result);
            }
            // Double resolution cannot happen (each job resolves its
            // ticket exactly once); keep the first result if it ever did.
            prior => *slot = prior,
        }
    }
}

/// A handle to one submitted request; blocks until the response is
/// computed (or the request failed).
#[derive(Debug)]
pub struct Ticket {
    inner: Arc<TicketInner>,
}

impl Ticket {
    /// Block until resolved.
    pub fn wait(self) -> TicketResult {
        let mut slot = self.inner.slot.lock();
        loop {
            if matches!(&*slot, Slot::Ready(_)) {
                match std::mem::replace(&mut *slot, Slot::Done) {
                    Slot::Ready(result) => return result,
                    // `matches!` above guarantees Ready; restore anything
                    // else and keep waiting rather than panic.
                    prior => *slot = prior,
                }
            }
            slot = self.inner.ready.wait(slot);
        }
    }

    /// Register `cb` to be invoked exactly once with the result, from
    /// whichever thread resolves the ticket (a worker, the drain path,
    /// or — when the result is already in — this one, inline before the
    /// call returns). This is the non-blocking alternative to [`wait`]:
    /// the readiness loop uses it to enqueue the serialized reply on the
    /// owning connection's outbound queue without parking any thread.
    ///
    /// [`wait`]: Ticket::wait
    pub fn on_resolve(self, cb: impl FnOnce(TicketResult) + Send + 'static) {
        let mut slot = self.inner.slot.lock();
        match std::mem::replace(&mut *slot, Slot::Done) {
            Slot::Pending => *slot = Slot::Callback(Box::new(cb)),
            Slot::Ready(result) => {
                drop(slot);
                cb(result);
            }
            prior => *slot = prior,
        }
    }
}

/// A follower attached to an in-flight leader: its ticket plus its
/// submission instant (for its own queue-wait accounting).
struct Follower {
    ticket: Arc<TicketInner>,
    submitted: Instant,
    /// The follower's own correlation id — replies must echo it, not
    /// the leader's, or a client can't match coalesced responses.
    id: u64,
}

/// An exact-tier entry: the payload plus its fingerprint taken at
/// publish time. Every read re-verifies; a mismatch (a poisoned or
/// corrupted entry) invalidates and recomputes — the cache can only
/// ever *delay* a response, never change its bytes.
#[derive(Debug, Clone)]
struct SealedPayload {
    payload: TunePayload,
    seal: String,
}

impl SealedPayload {
    fn new(payload: TunePayload) -> SealedPayload {
        let seal = payload.fingerprint();
        SealedPayload { payload, seal }
    }

    fn verified(&self) -> bool {
        self.payload.fingerprint() == self.seal
    }
}

struct Job {
    request: TuneRequest,
    ticket: Arc<TicketInner>,
    enqueued: Instant,
    /// Supervision attempt counter (0 on first admission).
    attempts: u32,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    coalesced: AtomicU64,
    errors: AtomicU64,
    tier_exact: AtomicU64,
    tier_fit: AtomicU64,
    tier_miss: AtomicU64,
    panics: AtomicU64,
    hangs: AtomicU64,
    requeues: AtomicU64,
    bypasses: AtomicU64,
    poison_detected: AtomicU64,
    snapshot_saves: AtomicU64,
    snapshot_errors: AtomicU64,
    drained: AtomicU64,
    rebalances: AtomicU64,
    rebalances_accepted: AtomicU64,
    /// Simulator-memo (gather-level) accounting: a hit means the machine
    /// configuration's simulator was cloned out instead of rebuilt.
    sim_hits: AtomicU64,
    sim_misses: AtomicU64,
}

struct Shared {
    workers: usize,
    shards: usize,
    queue: AdmissionQueue<Job>,
    front: FrontDesk<SealedPayload, Follower>,
    fits: RankedMutex<LruCache<(BenchmarkData, FitSet)>, { rank::FIT_CACHE }>,
    /// Simulators are stateless and deterministic; one per machine
    /// configuration, cloned out per attempt (clones are exact).
    sims: RankedMutex<HashMap<(&'static str, bool, u64), Simulator>, { rank::SIM_CACHE }>,
    policy: CachePolicy,
    coalesce: bool,
    supervise: SupervisePolicy,
    faults: ServiceFaultSpec,
    snapshot: Option<SnapshotPolicy>,
    since_flush: AtomicU64,
    drift: DriftDetector,
    recovery: RankedMutex<RecoveryRecord, { rank::SNAPSHOT_RECOVERY }>,
    rebalances: RankedMutex<Vec<RebalanceOutcome>, { rank::REBALANCE_LOG }>,
    accepting: AtomicBool,
    telemetry: Telemetry,
    stats: Counters,
}

/// A point-in-time view of the service's accounting.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    pub workers: usize,
    pub shards: usize,
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub coalesced: u64,
    pub errors: u64,
    pub tier_exact: u64,
    pub tier_fit: u64,
    pub tier_miss: u64,
    pub queue_depth: usize,
    pub inflight: usize,
    pub ewma_service_ms: f64,
    pub exact_entries: usize,
    pub fit_entries: usize,
    /// Fit-level cache accounting (hits/misses/evictions from the LRU
    /// itself, so coalesced and re-checked lookups are all counted).
    pub fit_hits: u64,
    pub fit_misses: u64,
    pub fit_evictions: u64,
    /// Gather-level (simulator memo) accounting.
    pub gather_hits: u64,
    pub gather_misses: u64,
}

/// `hits / (hits + misses)`, or 0 when nothing was looked up.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

impl ServiceStats {
    /// JSON object for the wire protocol's `stats` op.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("workers".to_string(), Value::Num(self.workers as f64)),
            ("shards".to_string(), Value::Num(self.shards as f64)),
            ("submitted".to_string(), Value::Num(self.submitted as f64)),
            ("completed".to_string(), Value::Num(self.completed as f64)),
            ("rejected".to_string(), Value::Num(self.rejected as f64)),
            ("coalesced".to_string(), Value::Num(self.coalesced as f64)),
            ("errors".to_string(), Value::Num(self.errors as f64)),
            ("tier_exact".to_string(), Value::Num(self.tier_exact as f64)),
            ("tier_fit".to_string(), Value::Num(self.tier_fit as f64)),
            ("tier_miss".to_string(), Value::Num(self.tier_miss as f64)),
            (
                "queue_depth".to_string(),
                Value::Num(self.queue_depth as f64),
            ),
            ("inflight".to_string(), Value::Num(self.inflight as f64)),
            (
                "ewma_service_ms".to_string(),
                Value::Num(self.ewma_service_ms),
            ),
            (
                "exact_entries".to_string(),
                Value::Num(self.exact_entries as f64),
            ),
            (
                "fit_entries".to_string(),
                Value::Num(self.fit_entries as f64),
            ),
            (
                "fit_cache".to_string(),
                Value::Obj(vec![
                    ("hits".to_string(), Value::Num(self.fit_hits as f64)),
                    ("misses".to_string(), Value::Num(self.fit_misses as f64)),
                    (
                        "evictions".to_string(),
                        Value::Num(self.fit_evictions as f64),
                    ),
                    (
                        "hit_rate".to_string(),
                        Value::Num(hit_rate(self.fit_hits, self.fit_misses)),
                    ),
                ]),
            ),
            (
                "gather_cache".to_string(),
                Value::Obj(vec![
                    ("hits".to_string(), Value::Num(self.gather_hits as f64)),
                    ("misses".to_string(), Value::Num(self.gather_misses as f64)),
                    (
                        "hit_rate".to_string(),
                        Value::Num(hit_rate(self.gather_hits, self.gather_misses)),
                    ),
                ]),
            ),
        ])
    }
}

/// Supervision, recovery and drift accounting — the wire `health` op.
/// Kept separate from [`ServiceStats`] so the service-load report schema
/// stays stable.
#[derive(Debug, Clone)]
pub struct HealthStats {
    pub accepting: bool,
    pub panics: u64,
    pub hangs: u64,
    pub requeues: u64,
    pub bypasses: u64,
    pub poison_detected: u64,
    pub snapshot_saves: u64,
    pub snapshot_errors: u64,
    pub drained: u64,
    pub recovery: RecoveryRecord,
    pub drift: DriftStats,
    /// Most recent rebalance outcomes, oldest first (bounded).
    pub recent_rebalances: Vec<RebalanceOutcome>,
}

impl HealthStats {
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("accepting".to_string(), Value::Bool(self.accepting)),
            ("panics".to_string(), Value::Num(self.panics as f64)),
            ("hangs".to_string(), Value::Num(self.hangs as f64)),
            ("requeues".to_string(), Value::Num(self.requeues as f64)),
            ("bypasses".to_string(), Value::Num(self.bypasses as f64)),
            (
                "poison_detected".to_string(),
                Value::Num(self.poison_detected as f64),
            ),
            (
                "snapshot_saves".to_string(),
                Value::Num(self.snapshot_saves as f64),
            ),
            (
                "snapshot_errors".to_string(),
                Value::Num(self.snapshot_errors as f64),
            ),
            ("drained".to_string(), Value::Num(self.drained as f64)),
            ("recovery".to_string(), self.recovery.to_value()),
            ("drift".to_string(), self.drift.to_value()),
            (
                "rebalances".to_string(),
                Value::Arr(
                    self.recent_rebalances
                        .iter()
                        .map(RebalanceOutcome::to_value)
                        .collect(),
                ),
            ),
        ])
    }
}

/// Rebalance outcomes kept for the `health` op.
const REBALANCE_HISTORY: usize = 8;

/// The concurrent tuning service.
pub struct TuningService {
    shared: Arc<Shared>,
    workers: RankedMutex<Vec<JoinHandle<()>>, { rank::WORKER_HANDLES }>,
}

impl TuningService {
    /// Start the worker pool, restoring caches from the snapshot first
    /// when one is configured (restore never fails — see
    /// [`snapshot::load_snapshot`]).
    pub fn start(opts: ServiceOptions) -> TuningService {
        let workers = opts.workers.max(1);
        let shards = opts.shards.clamp(1, workers);
        if opts.faults.is_active() {
            quiet_attempt_panics();
        }
        let shared = Arc::new(Shared {
            workers,
            shards,
            queue: AdmissionQueue::new(shards, opts.queue_capacity),
            front: FrontDesk::new(if opts.cache.exact {
                opts.exact_capacity
            } else {
                0
            }),
            fits: RankedMutex::new(LruCache::new(if opts.cache.fit {
                opts.fit_capacity
            } else {
                0
            })),
            sims: RankedMutex::new(HashMap::new()),
            policy: opts.cache,
            coalesce: opts.coalesce,
            supervise: opts.supervise,
            faults: opts.faults,
            snapshot: opts.snapshot,
            since_flush: AtomicU64::new(0),
            drift: DriftDetector::new(opts.drift),
            recovery: RankedMutex::new(RecoveryRecord::default()),
            rebalances: RankedMutex::new(Vec::new()),
            accepting: AtomicBool::new(true),
            telemetry: opts.telemetry,
            stats: Counters::default(),
        });
        if let Some(policy) = shared.snapshot.clone() {
            let restored = snapshot::load_snapshot(&policy.path);
            shared.front.restore_cached(
                restored
                    .exact
                    .into_iter()
                    .map(|(k, p)| (k, SealedPayload::new(p)))
                    .collect(),
            );
            {
                let mut fits = shared.fits.lock();
                fits.import(restored.fits);
            }
            shared.telemetry.point(
                "service.recovery",
                &[
                    ("restored_exact", restored.record.restored_exact as f64),
                    ("restored_fits", restored.record.restored_fits as f64),
                    ("load_ms", restored.record.load_ms),
                ],
                &[(
                    "cold_start",
                    if restored.record.cold_start {
                        "true"
                    } else {
                        "false"
                    },
                )],
            );
            let mut recovery = shared.recovery.lock();
            *recovery = restored.record;
        }
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let shard = i % shards;
                std::thread::Builder::new()
                    .name(format!("hslb-worker-{i}"))
                    .spawn(move || worker_loop(&shared, shard))
                    .unwrap_or_else(|e| panic!("spawn worker {i}: {e}"))
            })
            .collect();
        TuningService {
            shared,
            workers: RankedMutex::new(handles),
        }
    }

    /// Submit one request. Returns immediately with a [`Ticket`] (or a
    /// rejection); the response is computed by the worker pool.
    pub fn submit(&self, request: TuneRequest) -> Result<Ticket, SubmitError> {
        let shared = &self.shared;
        if !shared.accepting.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        shared.telemetry.counter_add("service.submitted", 1);
        let key = request.exact_key();
        let now = Instant::now();
        let ticket = TicketInner::new();
        let mut follower = Follower {
            ticket: Arc::clone(&ticket),
            submitted: now,
            id: request.id,
        };

        // One atomic admission decision: cached, coalesced, or lead. A
        // cached hit that fails seal verification is invalidated and the
        // admission retried (the loop terminates: the poisoned entry is
        // gone on the next pass).
        loop {
            match shared.front.admit(&key, follower, shared.coalesce) {
                AdmitOutcome::Cached(sealed, handle) => {
                    if !sealed.verified() {
                        record_poison(shared);
                        shared.front.invalidate(&key);
                        follower = handle;
                        continue;
                    }
                    record_completion(shared, CacheTier::Exact, false, 0.0, 0.0, 1);
                    handle.ticket.resolve(Ok(TuneResponse {
                        id: request.id,
                        payload: sealed.payload,
                        tier: CacheTier::Exact,
                        coalesced: false,
                        queue_wait_ms: 0.0,
                        service_ms: 0.0,
                    }));
                }
                AdmitOutcome::Followed => {
                    shared.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                    shared.telemetry.counter_add("service.coalesced", 1);
                }
                AdmitOutcome::Lead(follower) => {
                    // Enqueue, rolling the registration back on reject so
                    // no follower is left waiting on a leader that never
                    // ran.
                    let rank = Rank {
                        priority: request.priority,
                        deadline_ms: request.deadline_ms,
                    };
                    let shard = shard_of(&key, shared.queue.shard_count());
                    let job = Job {
                        request,
                        ticket: follower.ticket,
                        enqueued: now,
                        attempts: 0,
                    };
                    if let Err(err) = shared.queue.push(shard, rank, job) {
                        let submit_err = push_error(shared, err);
                        for orphan in shared.front.abandon(&key) {
                            orphan.ticket.resolve(Err(submit_err.clone()));
                        }
                        return Err(submit_err);
                    }
                }
            }
            break;
        }
        Ok(Ticket { inner: ticket })
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> ServiceStats {
        let shared = &self.shared;
        let (exact_entries, inflight) = shared.front.depths();
        let (fit_entries, fit_hits, fit_misses, fit_evictions) = {
            let fits = shared.fits.lock();
            let (h, m, e) = fits.counters();
            (fits.len(), h, m, e)
        };
        ServiceStats {
            workers: shared.workers,
            shards: shared.shards,
            submitted: shared.stats.submitted.load(Ordering::Relaxed),
            completed: shared.stats.completed.load(Ordering::Relaxed),
            rejected: shared.stats.rejected.load(Ordering::Relaxed),
            coalesced: shared.stats.coalesced.load(Ordering::Relaxed),
            errors: shared.stats.errors.load(Ordering::Relaxed),
            tier_exact: shared.stats.tier_exact.load(Ordering::Relaxed),
            tier_fit: shared.stats.tier_fit.load(Ordering::Relaxed),
            tier_miss: shared.stats.tier_miss.load(Ordering::Relaxed),
            queue_depth: shared.queue.depth(),
            inflight,
            ewma_service_ms: shared.queue.ewma_service_ms(),
            exact_entries,
            fit_entries,
            fit_hits,
            fit_misses,
            fit_evictions,
            gather_hits: shared.stats.sim_hits.load(Ordering::Relaxed),
            gather_misses: shared.stats.sim_misses.load(Ordering::Relaxed),
        }
    }

    /// Supervision/recovery/drift accounting (the wire `health` op).
    pub fn health(&self) -> HealthStats {
        let shared = &self.shared;
        let (tracked_keys, samples, detections) = shared.drift.counters();
        let recovery = shared.recovery.lock().clone();
        let recent_rebalances = shared.rebalances.lock().clone();
        HealthStats {
            accepting: shared.accepting.load(Ordering::Acquire),
            panics: shared.stats.panics.load(Ordering::Relaxed),
            hangs: shared.stats.hangs.load(Ordering::Relaxed),
            requeues: shared.stats.requeues.load(Ordering::Relaxed),
            bypasses: shared.stats.bypasses.load(Ordering::Relaxed),
            poison_detected: shared.stats.poison_detected.load(Ordering::Relaxed),
            snapshot_saves: shared.stats.snapshot_saves.load(Ordering::Relaxed),
            snapshot_errors: shared.stats.snapshot_errors.load(Ordering::Relaxed),
            drained: shared.stats.drained.load(Ordering::Relaxed),
            recovery,
            drift: DriftStats {
                tracked_keys,
                samples,
                detections,
                rebalances: shared.stats.rebalances.load(Ordering::Relaxed),
                accepted: shared.stats.rebalances_accepted.load(Ordering::Relaxed),
                held: shared
                    .stats
                    .rebalances
                    .load(Ordering::Relaxed)
                    .saturating_sub(shared.stats.rebalances_accepted.load(Ordering::Relaxed)),
            },
            recent_rebalances,
        }
    }

    /// Feed one observed timing sample for a deployed scenario into the
    /// drift detector; when it triggers, re-fit the cached gather data
    /// scaled by the drift, re-solve, and report migration cost vs
    /// makespan gain. **Advisory**: the serving caches are never touched,
    /// so observing samples cannot change any tune response.
    pub fn observe_timing(
        &self,
        request: &TuneRequest,
        times: &ComponentTimes,
    ) -> (DriftDecision, Option<RebalanceOutcome>) {
        let shared = &self.shared;
        let key = request.exact_key();
        let decision = shared.drift.observe(&key, times);
        let DriftDecision::Triggered {
            drift_ratio,
            ratios,
        } = &decision
        else {
            return (decision, None);
        };
        let outcome = run_rebalance(shared, request, *drift_ratio, *ratios);
        if let Some(o) = &outcome {
            shared.stats.rebalances.fetch_add(1, Ordering::Relaxed);
            if o.accepted {
                shared
                    .stats
                    .rebalances_accepted
                    .fetch_add(1, Ordering::Relaxed);
                // Hysteresis: accepted drift is no longer drift.
                shared.drift.rebaseline(&key);
            }
            shared.telemetry.point(
                "service.drift.rebalance",
                &[
                    ("drift_ratio", o.drift_ratio),
                    ("migration_nodes", o.migration_nodes as f64),
                    ("gain_ratio", o.gain_ratio),
                ],
                &[("accepted", if o.accepted { "true" } else { "false" })],
            );
            let mut history = shared.rebalances.lock();
            history.push(o.clone());
            let len = history.len();
            if len > REBALANCE_HISTORY {
                history.drain(..len - REBALANCE_HISTORY);
            }
        }
        (decision, outcome)
    }

    /// Flush both cache tiers to the configured snapshot now. `None`
    /// when no snapshot is configured or the write failed (failures are
    /// counted in [`HealthStats::snapshot_errors`], never raised — a
    /// full disk must not take down serving).
    pub fn flush_snapshot(&self) -> Option<SnapshotStats> {
        flush_snapshot(&self.shared)
    }

    /// Graceful drain (DESIGN.md §13): stop admissions, **reject** every
    /// queued-but-unstarted request with an explicit
    /// [`SubmitError::Draining`] (so clients can tell a drain from a
    /// crash and retry elsewhere), let in-flight requests finish, join
    /// the workers, then flush a final cache snapshot. Every outstanding
    /// [`Ticket`] resolves before this returns.
    pub fn shutdown(&self) {
        let shared = &self.shared;
        shared.accepting.store(false, Ordering::Release);
        let drained = shared.queue.close_now();
        if !drained.is_empty() {
            let retry_after_ms = (shared.queue.ewma_service_ms().round() as u64).max(1);
            let err = SubmitError::Draining { retry_after_ms };
            for job in drained {
                shared.stats.drained.fetch_add(1, Ordering::Relaxed);
                shared.telemetry.counter_add("service.drained", 1);
                let key = job.request.exact_key();
                for orphan in shared.front.abandon(&key) {
                    orphan.ticket.resolve(Err(err.clone()));
                }
                job.ticket.resolve(Err(err.clone()));
            }
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut workers = self.workers.lock();
            workers.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        flush_snapshot(shared);
    }
}

impl Drop for TuningService {
    fn drop(&mut self) {
        // Un-joined workers must still observe the close and exit (they
        // drain whatever is queued — Drop without `shutdown` keeps the
        // old complete-everything semantics).
        self.shared.accepting.store(false, Ordering::Release);
        self.shared.queue.close();
    }
}

/// Suppress the default panic printout for injected attempt panics —
/// they are a *normal* event under chaos testing and would flood stderr
/// with backtraces. Real panics are still surfaced: `catch_unwind`
/// converts them into typed supervision outcomes and counters. Installed
/// once per process, only when fault injection is active.
fn quiet_attempt_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_attempt = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("hslb-attempt-"));
            if !in_attempt {
                default_hook(info);
            }
        }));
    });
}

fn push_error(shared: &Shared, err: PushError) -> SubmitError {
    shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
    shared.telemetry.counter_add("service.rejected", 1);
    match err {
        PushError::Backpressure(bp) => SubmitError::Backpressure(bp),
        PushError::Closed => SubmitError::ShuttingDown,
    }
}

/// Stable FNV-1a shard assignment, so a key always lands on the same
/// shard (keeps identical requests behind one worker's FIFO when they
/// are not coalesced).
fn shard_of(key: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

fn record_poison(shared: &Shared) {
    shared.stats.poison_detected.fetch_add(1, Ordering::Relaxed);
    shared.telemetry.counter_add("service.poison_detected", 1);
}

fn record_completion(
    shared: &Shared,
    tier: CacheTier,
    coalesced: bool,
    queue_wait_ms: f64,
    service_ms: f64,
    batch: usize,
) {
    shared.stats.completed.fetch_add(1, Ordering::Relaxed);
    let counter = match tier {
        CacheTier::Exact => &shared.stats.tier_exact,
        CacheTier::Fit => &shared.stats.tier_fit,
        CacheTier::Miss => &shared.stats.tier_miss,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    if shared.telemetry.is_enabled() {
        shared.telemetry.counter_add("service.completed", 1);
        shared
            .telemetry
            .counter_add(&format!("service.tier.{}", tier.token()), 1);
        shared.telemetry.point(
            "service.request",
            &[
                ("queue_wait_ms", queue_wait_ms),
                ("service_ms", service_ms),
                ("batch", batch as f64),
            ],
            &[
                ("tier", tier.token()),
                ("coalesced", if coalesced { "true" } else { "false" }),
            ],
        );
    }
    maybe_flush_snapshot(shared);
}

fn maybe_flush_snapshot(shared: &Shared) {
    let Some(policy) = &shared.snapshot else {
        return;
    };
    if policy.every_completions == 0 {
        return;
    }
    let n = shared.since_flush.fetch_add(1, Ordering::Relaxed) + 1;
    if n >= policy.every_completions {
        shared.since_flush.store(0, Ordering::Relaxed);
        flush_snapshot(shared);
    }
}

fn flush_snapshot(shared: &Shared) -> Option<SnapshotStats> {
    let policy = shared.snapshot.as_ref()?;
    // Only seal-verified entries are persisted: a poisoned entry must
    // not be laundered into a valid snapshot by re-fingerprinting it.
    let exact: Vec<(String, TunePayload)> = shared
        .front
        .export_cached()
        .into_iter()
        .filter(|(_, sealed)| sealed.verified())
        .map(|(k, sealed)| (k, sealed.payload))
        .collect();
    let fit_entries = {
        let fits = shared.fits.lock();
        fits.export()
    };
    match snapshot::save_snapshot(&policy.path, &exact, &fit_entries) {
        Ok(stats) => {
            shared.stats.snapshot_saves.fetch_add(1, Ordering::Relaxed);
            shared.telemetry.point(
                "service.snapshot",
                &[
                    ("exact_entries", stats.exact_entries as f64),
                    ("fit_entries", stats.fit_entries as f64),
                    ("bytes", stats.bytes as f64),
                    ("save_ms", stats.save_ms),
                ],
                &[],
            );
            Some(stats)
        }
        Err(e) => {
            shared.stats.snapshot_errors.fetch_add(1, Ordering::Relaxed);
            shared.telemetry.counter_add("service.snapshot_errors", 1);
            shared
                .telemetry
                .point("service.snapshot_error", &[], &[("error", e.as_str())]);
            None
        }
    }
}

fn watchdog_for(shared: &Shared, request: &TuneRequest) -> Duration {
    let ms = request
        .deadline_ms
        .unwrap_or(shared.supervise.watchdog_default_ms)
        .max(shared.supervise.watchdog_floor_ms);
    Duration::from_millis(ms)
}

/// What a supervised attempt came back with.
enum AttemptOutcome {
    Done(Result<(TunePayload, CacheTier), String>),
    Panicked(String),
    Hung,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Run `f` on its own named thread behind `catch_unwind` and a watchdog.
/// A panic is contained; an attempt that outlives `watchdog` is
/// abandoned (the detached thread finishes or exits on its own — any
/// late cache inserts it makes are bit-identical, hence harmless) and
/// reported as hung.
fn supervised_attempt<F>(label: String, watchdog: Duration, f: F) -> AttemptOutcome
where
    F: FnOnce() -> Result<(TunePayload, CacheTier), String> + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let spawned = std::thread::Builder::new().name(label).spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(f));
        // A hung attempt's late send lands in a dropped receiver: ignored.
        let _ = tx.send(result);
    });
    if spawned.is_err() {
        return AttemptOutcome::Panicked("could not spawn attempt thread".to_string());
    }
    match rx.recv_timeout(watchdog) {
        Ok(Ok(result)) => AttemptOutcome::Done(result),
        Ok(Err(panic_payload)) => AttemptOutcome::Panicked(panic_message(panic_payload.as_ref())),
        Err(mpsc::RecvTimeoutError::Timeout) => AttemptOutcome::Hung,
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            AttemptOutcome::Panicked("attempt thread died without a result".to_string())
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, shard: usize) {
    while let Some(job) = shared.queue.pop(shard) {
        process_job(shared, shard, job);
    }
}

/// Supervise one popped job: one attempt behind `catch_unwind` + the
/// watchdog; panic/hang requeues (bounded), then the bypass rung; only a
/// typed pipeline error (deterministic — retrying cannot help) or an
/// exhausted ladder reaches the requester as an error.
fn process_job(shared: &Arc<Shared>, shard: usize, job: Job) {
    let popped = Instant::now();
    let queue_wait_ms = popped.duration_since(job.enqueued).as_secs_f64() * 1e3;
    let watchdog = watchdog_for(shared, &job.request);
    let attempt = job.attempts;
    let outcome = {
        let shared_attempt = Arc::clone(shared);
        let request = job.request.clone();
        supervised_attempt(
            format!("hslb-attempt-{}-{attempt}", request.id),
            watchdog,
            move || {
                shared_attempt
                    .faults
                    .inject_worker(request.id, attempt, watchdog);
                compute(&shared_attempt, &request)
            },
        )
    };
    match outcome {
        AttemptOutcome::Done(result) => {
            finish_job(
                shared,
                job,
                result.map_err(SubmitError::Pipeline),
                queue_wait_ms,
                popped,
            );
        }
        AttemptOutcome::Panicked(msg) => {
            shared.stats.panics.fetch_add(1, Ordering::Relaxed);
            shared.telemetry.counter_add("service.panics", 1);
            retry_or_bypass(
                shared,
                shard,
                job,
                queue_wait_ms,
                popped,
                format!("worker attempt {attempt} panicked: {msg}"),
            );
        }
        AttemptOutcome::Hung => {
            shared.stats.hangs.fetch_add(1, Ordering::Relaxed);
            shared.telemetry.counter_add("service.hangs", 1);
            retry_or_bypass(
                shared,
                shard,
                job,
                queue_wait_ms,
                popped,
                format!(
                    "worker attempt {attempt} hung past the {} ms watchdog",
                    watchdog.as_millis()
                ),
            );
        }
    }
}

fn retry_or_bypass(
    shared: &Arc<Shared>,
    shard: usize,
    mut job: Job,
    queue_wait_ms: f64,
    popped: Instant,
    why: String,
) {
    if job.attempts < shared.supervise.max_requeues {
        job.attempts += 1;
        shared.stats.requeues.fetch_add(1, Ordering::Relaxed);
        shared.telemetry.counter_add("service.requeues", 1);
        let rank = Rank {
            priority: job.request.priority,
            deadline_ms: job.request.deadline_ms,
        };
        match shared.queue.push_back(shard, rank, job) {
            Ok(()) => return,
            // Drain under way: the shard refused the requeue. The job was
            // admitted before the drain, so it still deserves an answer —
            // fall through to the bypass rung instead of dropping it.
            Err(returned) => job = returned,
        }
    }
    // Terminal service-level rung: one supervised, fault-injection-free,
    // cache-bypass reference run. Bit-identity is free here — the
    // reference *is* the one-shot pipeline.
    shared.stats.bypasses.fetch_add(1, Ordering::Relaxed);
    shared.telemetry.counter_add("service.bypasses", 1);
    let watchdog = watchdog_for(shared, &job.request);
    let request = job.request.clone();
    let outcome = supervised_attempt(
        format!("hslb-attempt-{}-bypass", request.id),
        watchdog,
        move || reference_response(&request).map(|p| (p, CacheTier::Miss)),
    );
    let result = match outcome {
        AttemptOutcome::Done(result) => result.map_err(SubmitError::Pipeline),
        AttemptOutcome::Panicked(msg) => Err(SubmitError::Pipeline(format!(
            "{why}; bypass rung panicked: {msg}"
        ))),
        AttemptOutcome::Hung => Err(SubmitError::Pipeline(format!(
            "{why}; bypass rung hung past the watchdog"
        ))),
    };
    finish_job(shared, job, result, queue_wait_ms, popped);
}

/// Publish the outcome and resolve the leader plus every follower.
fn finish_job(
    shared: &Shared,
    job: Job,
    outcome: Result<(TunePayload, CacheTier), SubmitError>,
    queue_wait_ms: f64,
    popped: Instant,
) {
    let key = job.request.exact_key();
    let service_ms = popped.elapsed().as_secs_f64() * 1e3;
    shared.queue.record_service_ms(service_ms);
    // Publish to the exact tier and collect followers in one step
    // (errors publish nothing, so a later duplicate recomputes). The
    // requester always receives the clean payload; an injected cache
    // poisoning corrupts only the *published copy*, with the original
    // seal kept so verification must catch it on the next read.
    let published = outcome.as_ref().ok().map(|(payload, _)| {
        if shared.faults.poisons_cache(job.request.id) {
            let mut corrupted = payload.clone();
            corrupted.actual_total = shared
                .faults
                .poison_value(payload.actual_total, job.request.id);
            SealedPayload {
                payload: corrupted,
                seal: payload.fingerprint(),
            }
        } else {
            SealedPayload::new(payload.clone())
        }
    });
    let followers = shared.front.complete(&key, published);
    match outcome {
        Ok((payload, tier)) => {
            record_completion(
                shared,
                tier,
                false,
                queue_wait_ms,
                service_ms,
                1 + followers.len(),
            );
            for follower in &followers {
                // Followers waited on the leader the whole time; the
                // computation itself was shared, so their own service
                // span is zero.
                record_completion(shared, tier, true, 0.0, 0.0, 0);
                follower.ticket.resolve(Ok(TuneResponse {
                    id: follower.id,
                    payload: payload.clone(),
                    tier,
                    coalesced: true,
                    queue_wait_ms: follower.submitted.elapsed().as_secs_f64() * 1e3,
                    service_ms: 0.0,
                }));
            }
            job.ticket.resolve(Ok(TuneResponse {
                id: job.request.id,
                payload,
                tier,
                coalesced: false,
                queue_wait_ms,
                service_ms,
            }));
        }
        Err(err) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            shared.telemetry.counter_add("service.errors", 1);
            for follower in &followers {
                follower.ticket.resolve(Err(err.clone()));
            }
            job.ticket.resolve(Err(err));
        }
    }
}

/// Clone the (stateless, deterministic) simulator for a request's
/// machine configuration out of the shared cache.
fn simulator_cached(shared: &Shared, request: &TuneRequest) -> Simulator {
    let sim_key = (
        resolution_token(request.resolution),
        request.ocean_constrained,
        request.seed,
    );
    let mut sims = shared.sims.lock();
    match sims.get(&sim_key) {
        Some(sim) => {
            shared.stats.sim_hits.fetch_add(1, Ordering::Relaxed);
            sim.clone()
        }
        None => {
            shared.stats.sim_misses.fetch_add(1, Ordering::Relaxed);
            let sim = simulator_for(request);
            sims.insert(sim_key, sim.clone());
            sim
        }
    }
}

/// Run (or replay) the pipeline for one request under the cache policy.
fn compute(shared: &Shared, request: &TuneRequest) -> Result<(TunePayload, CacheTier), String> {
    // Re-check the exact tier: with coalescing off, an identical request
    // may have completed while this one sat in the queue. (With the
    // exact tier off the front desk's capacity is 0 and this is `None`.)
    if let Some(sealed) = shared.front.cached(&request.exact_key()) {
        if sealed.verified() {
            return Ok((sealed.payload, CacheTier::Exact));
        }
        record_poison(shared);
        shared.front.invalidate(&request.exact_key());
    }

    let sim = simulator_cached(shared, request);

    let fit_hit = if shared.policy.fit {
        let mut fits = shared.fits.lock();
        fits.get(&request.fit_key())
    } else {
        None
    };

    let mut opts = build_options(request);
    let (report, tier) = match fit_hit {
        Some((data, fitset)) => {
            // Replay: skip gather (reuse the cached data) and fit (inject
            // the cached curves). Both artifacts are pure functions of
            // the fit key, so this is bit-identical to recomputing.
            opts.gather = GatherPlan::Reuse(data);
            opts.curve_override = Some(fitset);
            let report = Hslb::new(&sim, opts).run(None).map_err(|e| e.to_string())?;
            (report, CacheTier::Fit)
        }
        None => {
            let (report, artifacts) = Hslb::new(&sim, opts)
                .run_with_artifacts(None)
                .map_err(|e| e.to_string())?;
            if shared.policy.fit {
                if let Some(fitset) = artifacts.fits {
                    let mut fits = shared.fits.lock();
                    fits.insert(request.fit_key(), (artifacts.data, fitset));
                }
            }
            (report, CacheTier::Miss)
        }
    };

    // Publication to the exact tier happens in `finish_job` via
    // `FrontDesk::complete`, atomically with follower collection.
    Ok((TunePayload::from_report(&report), tier))
}

fn allocation_of(a: &Allocation, c: Component) -> i64 {
    match c {
        Component::Lnd => a.lnd,
        Component::Ice => a.ice,
        Component::Atm => a.atm,
        Component::Ocn => a.ocn,
        _ => 0,
    }
}

/// Re-fit + re-solve for a drift trigger: scale the cached gather data
/// by the observed per-component drift ratios, re-fit and re-solve it
/// ([`hslb::rebalance`]), and weigh the re-solved allocation's makespan
/// gain against its migration cost. Returns `None` when no fit artifacts
/// are cached for the scenario (no gathered data to scale — the trigger
/// is still counted by the detector).
fn run_rebalance(
    shared: &Shared,
    request: &TuneRequest,
    drift_ratio: f64,
    ratios: [f64; 4],
) -> Option<RebalanceOutcome> {
    let (data, prior) = {
        let mut fits = shared.fits.lock();
        fits.get(&request.fit_key())?
    };
    // `ratios` is in `Component::OPTIMIZED` order (ice, lnd, atm, ocn).
    let mut scaled = BenchmarkData::new();
    for c in data.components() {
        let ratio = Component::OPTIMIZED
            .iter()
            .position(|&o| o == c)
            .map_or(1.0, |i| ratios[i]);
        for &(nodes, seconds) in data.of(c) {
            scaled.push(c, nodes, seconds * ratio);
        }
    }
    let sim = simulator_cached(shared, request);
    let opts = build_options(request);
    let key = request.exact_key();
    let old_allocation = shared
        .front
        .cached(&key)
        .filter(SealedPayload::verified)
        .map(|sealed| sealed.payload.allocation);
    match hslb::rebalance(&sim, opts, scaled) {
        Ok((report, artifacts)) => {
            let payload = TunePayload::from_report(&report);
            let new_fits = artifacts.fits.unwrap_or(prior);
            // Layout-aware coupled total under the *drifted* curves — a
            // plain max over component curves would ignore the layout's
            // concurrency structure and misprice the stale allocation.
            let makespan = |a: &Allocation| new_fits.predicted_total(request.layout, a);
            let new_makespan = makespan(&payload.allocation);
            // Without a cached deployment to compare against, the new
            // allocation stands in for the old one: zero migration, zero
            // gain, reported but held.
            let old = old_allocation.unwrap_or(payload.allocation);
            let old_makespan = makespan(&old);
            let migration_nodes = Component::OPTIMIZED
                .iter()
                .map(|&c| (allocation_of(&payload.allocation, c) - allocation_of(&old, c)).abs())
                .sum();
            let gain_ratio = if old_makespan > 0.0 {
                (old_makespan - new_makespan) / old_makespan
            } else {
                0.0
            };
            let accepted =
                migration_nodes > 0 && gain_ratio >= shared.drift.options().min_gain_ratio;
            Some(RebalanceOutcome {
                key,
                drift_ratio,
                migration_nodes,
                old_makespan,
                new_makespan,
                gain_ratio,
                accepted,
                rung: payload.rung,
            })
        }
        Err(e) => Some(RebalanceOutcome {
            key,
            drift_ratio,
            migration_nodes: 0,
            old_makespan: f64::NAN,
            new_makespan: f64::NAN,
            gain_ratio: 0.0,
            accepted: false,
            rung: format!("error: {e}"),
        }),
    }
}

/// The pipeline options for a request — shared by the service workers
/// and the serial reference so both run the identical configuration.
fn build_options(request: &TuneRequest) -> HslbOptions {
    let mut opts = HslbOptions::new(request.target_nodes);
    opts.layout = request.layout;
    opts.objective = request.objective;
    // The service benchmarks the whole machine, not just this request's
    // budget, so gathered data and fitted curves are shared across every
    // node budget (see `request::service_gather_plan`). The serial
    // reference uses the same plan, so bit-identity is preserved.
    opts.gather = crate::request::service_gather_plan();
    opts
}

/// The simulator for a request's machine configuration (the paper's
/// Intrepid, default noise, request-chosen seed).
fn simulator_for(request: &TuneRequest) -> Simulator {
    let config = match (request.resolution, request.ocean_constrained) {
        (Resolution::OneDegree, true) => ResolutionConfig::one_degree(),
        (Resolution::OneDegree, false) => ResolutionConfig::one_degree().without_ocean_constraint(),
        (Resolution::EighthDegree, true) => ResolutionConfig::eighth_degree(),
        (Resolution::EighthDegree, false) => {
            ResolutionConfig::eighth_degree().without_ocean_constraint()
        }
    };
    Simulator::new(
        Machine::intrepid(),
        config,
        NoiseSpec::default(),
        request.seed,
    )
}

/// The determinism baseline: run the one-shot pipeline for this request
/// alone — fresh simulator, no caches — and project the
/// payload. Every service response must be bit-identical to this.
pub fn reference_response(request: &TuneRequest) -> Result<TunePayload, String> {
    let sim = simulator_for(request);
    let report = Hslb::new(&sim, build_options(request))
        .run(None)
        .map_err(|e| e.to_string())?;
    Ok(TunePayload::from_report(&report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for shards in 1..=8 {
            let a = shard_of("1deg|hybrid|min-max|n96|oceantrue|seed42", shards);
            let b = shard_of("1deg|hybrid|min-max|n96|oceantrue|seed42", shards);
            assert_eq!(a, b);
            assert!(a < shards);
        }
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let service = TuningService::start(ServiceOptions {
            workers: 1,
            shards: 1,
            ..ServiceOptions::default()
        });
        service.shutdown();
        let err = service
            .submit(TuneRequest::new(1, Resolution::OneDegree, 64))
            .unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
    }

    #[test]
    fn tiny_queue_backpressure_carries_retry_hint() {
        // One worker, capacity 1: the first request occupies the worker,
        // the second fills the queue, the third must be rejected.
        let service = TuningService::start(ServiceOptions {
            workers: 1,
            shards: 1,
            queue_capacity: 1,
            coalesce: false,
            cache: CachePolicy::disabled(),
            ..ServiceOptions::default()
        });
        let mut tickets = Vec::new();
        let mut rejections = 0;
        // Distinct budgets so nothing coalesces or caches.
        for (i, nodes) in [64, 96, 128, 192, 256, 48, 80, 112].iter().enumerate() {
            match service.submit(TuneRequest::new(i as u64, Resolution::OneDegree, *nodes)) {
                Ok(t) => tickets.push(t),
                Err(SubmitError::Backpressure(bp)) => {
                    assert!(bp.retry_after_ms >= 1);
                    assert!(bp.depth >= 1);
                    rejections += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(rejections > 0, "tiny queue must reject under burst");
        for t in tickets {
            t.wait().expect("admitted requests complete");
        }
        service.shutdown();
        assert_eq!(service.stats().rejected, rejections);
    }

    #[test]
    fn injected_panics_are_absorbed_and_answers_stay_bit_identical() {
        // Panic on every regular attempt: the supervisor must requeue,
        // exhaust the ladder, and still answer correctly via the
        // fault-free bypass rung — never kill a worker, never return
        // wrong bytes.
        let service = TuningService::start(ServiceOptions {
            workers: 2,
            shards: 1,
            faults: ServiceFaultSpec {
                panic_rate: 1.0,
                seed: 9,
                ..ServiceFaultSpec::none()
            },
            ..ServiceOptions::default()
        });
        let request = TuneRequest::new(1, Resolution::OneDegree, 96);
        let reference = reference_response(&request).expect("reference");
        let response = service
            .submit(request)
            .expect("submit")
            .wait()
            .expect("bypass rung must still answer");
        assert_eq!(response.payload.fingerprint(), reference.fingerprint());
        let health = service.health();
        assert!(health.panics >= 1, "panics must be counted");
        assert!(health.bypasses >= 1, "ladder must end in the bypass rung");
        service.shutdown();
    }

    #[test]
    fn poisoned_cache_entries_are_detected_and_recomputed() {
        // Poison every published entry: the first response is clean (the
        // requester gets the computed payload, only the cached copy is
        // corrupted), and the duplicate must detect the bad seal and
        // recompute instead of serving garbage.
        let service = TuningService::start(ServiceOptions {
            workers: 1,
            shards: 1,
            faults: ServiceFaultSpec {
                poison_rate: 1.0,
                seed: 3,
                ..ServiceFaultSpec::none()
            },
            ..ServiceOptions::default()
        });
        let request = TuneRequest::new(7, Resolution::OneDegree, 96);
        let reference = reference_response(&request).expect("reference");
        let first = service
            .submit(request.clone())
            .expect("submit")
            .wait()
            .expect("first");
        assert_eq!(first.payload.fingerprint(), reference.fingerprint());
        let second = service
            .submit(TuneRequest { id: 8, ..request })
            .expect("submit dup")
            .wait()
            .expect("second");
        assert_eq!(
            second.payload.fingerprint(),
            reference.fingerprint(),
            "a poisoned entry must be recomputed, not served"
        );
        let health = service.health();
        assert!(
            health.poison_detected >= 1,
            "seal verification must fire: {health:?}"
        );
        service.shutdown();
    }

    #[test]
    fn shutdown_rejects_queued_work_with_draining_not_silence() {
        let service = TuningService::start(ServiceOptions {
            workers: 1,
            shards: 1,
            coalesce: false,
            cache: CachePolicy::disabled(),
            ..ServiceOptions::default()
        });
        // Enough distinct requests that some are still queued when the
        // drain begins.
        let tickets: Vec<Ticket> = [64, 96, 128, 192, 256, 48]
            .iter()
            .enumerate()
            .filter_map(|(i, nodes)| {
                service
                    .submit(TuneRequest::new(i as u64, Resolution::OneDegree, *nodes))
                    .ok()
            })
            .collect();
        service.shutdown();
        let mut drained = 0;
        for t in tickets {
            match t.wait() {
                Ok(_) => {}
                Err(SubmitError::Draining { retry_after_ms }) => {
                    assert!(retry_after_ms >= 1, "drain rejection carries a retry hint");
                    drained += 1;
                }
                Err(other) => panic!("queued work must resolve Ok or Draining, got {other}"),
            }
        }
        assert_eq!(service.health().drained, drained);
    }
}
