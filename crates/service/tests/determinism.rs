//! The service determinism gate (ISSUE 5 acceptance) plus the queue /
//! coalescer / shutdown behavior tests.
//!
//! The bar: for any request mix, at any worker count, with caches and
//! coalescing on or off, every response payload is **bit-identical** to
//! running the one-shot pipeline for that request alone
//! (`reference_response`). Payloads compare via
//! `TunePayload::fingerprint`, which renders every float with
//! `f64::to_bits` — equal fingerprints iff bit-identical.

use hslb_service::loadmix::{self, MixSpec};
use hslb_service::{
    reference_response, CachePolicy, CacheTier, ServiceOptions, SubmitError, TuneRequest,
    TuningService,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn quiet_options() -> ServiceOptions {
    ServiceOptions::default()
}

/// Serial references computed once per distinct exact key.
fn references(requests: &[TuneRequest]) -> BTreeMap<String, String> {
    let mut refs = BTreeMap::new();
    for req in requests {
        refs.entry(req.exact_key()).or_insert_with(|| {
            reference_response(req)
                .unwrap_or_else(|e| panic!("reference for {}: {e}", req.exact_key()))
                .fingerprint()
        });
    }
    refs
}

/// Submit the whole mix, wait every ticket, and assert each payload is
/// bit-identical to its serial reference.
fn assert_mix_matches_references(
    opts: ServiceOptions,
    requests: &[TuneRequest],
    refs: &BTreeMap<String, String>,
) {
    let service = TuningService::start(opts);
    let tickets: Vec<_> = requests
        .iter()
        .map(|req| {
            (
                req.exact_key(),
                service.submit(req.clone()).expect("mix fits the queue"),
            )
        })
        .collect();
    for (key, ticket) in tickets {
        let resp = ticket.wait().expect("pipeline succeeds");
        assert_eq!(
            resp.payload.fingerprint(),
            refs[&key],
            "payload for {key} differs from the one-shot pipeline"
        );
    }
    service.shutdown();
}

/// ISSUE 5 acceptance gate: a 50-request deterministic mix, served by
/// ≥ 4 worker threads, is bit-identical to serial one-shot runs — with
/// caching + coalescing on, and with everything off.
#[test]
fn fifty_request_mix_is_bit_identical_with_caches_on_and_off() {
    let mix = loadmix::generate(&MixSpec {
        requests: 50,
        seed: 11,
        include_eighth: false,
    });
    assert_eq!(mix.len(), 50);
    let refs = references(&mix);

    let mut on = quiet_options();
    on.workers = 4;
    on.coalesce = true;
    on.cache = CachePolicy::default();
    assert_mix_matches_references(on, &mix, &refs);

    let mut off = quiet_options();
    off.workers = 4;
    off.coalesce = false;
    off.cache = CachePolicy::disabled();
    // 50 distinct enqueues with nothing coalesced: keep headroom.
    off.queue_capacity = 64;
    assert_mix_matches_references(off, &mix, &refs);
}

/// Once a key has resolved, a duplicate must *report* the shortcut it
/// took: exact-tier hit or coalesce. (Guaranteed deterministically by
/// the front desk: cache lookup and leader/follower registration happen
/// in one critical section, so "done or in flight" is atomic.)
#[test]
fn duplicates_after_completion_report_a_cache_hit() {
    let service = TuningService::start(quiet_options());
    let first = TuneRequest::new(1, hslb_cesm::Resolution::OneDegree, 96);
    let baseline = service
        .submit(first.clone())
        .expect("submit")
        .wait()
        .expect("pipeline succeeds");

    for id in 2..6 {
        let mut dup = first.clone();
        dup.id = id;
        let resp = service.submit(dup).expect("submit").wait().expect("wait");
        assert!(
            resp.coalesced || resp.tier == CacheTier::Exact,
            "duplicate {id} recomputed: tier {:?}, coalesced {}",
            resp.tier,
            resp.coalesced
        );
        // The reply must echo the duplicate's own correlation id, not
        // the id of the request that populated the cache.
        assert_eq!(resp.id, id);
        assert_eq!(resp.payload.fingerprint(), baseline.payload.fingerprint());
    }
    service.shutdown();
}

/// In-flight followers (not just after-completion cache hits) must also
/// get replies carrying their own ids. Submitting the duplicates before
/// waiting on the leader coalesces them onto the in-flight computation.
#[test]
fn coalesced_followers_echo_their_own_ids() {
    let service = TuningService::start(quiet_options());
    let first = TuneRequest::new(10, hslb_cesm::Resolution::OneDegree, 96);
    let mut tickets = vec![(10u64, service.submit(first.clone()).expect("submit lead"))];
    for id in 11..15 {
        let mut dup = first.clone();
        dup.id = id;
        tickets.push((id, service.submit(dup).expect("submit follower")));
    }
    for (id, ticket) in tickets {
        let resp = ticket.wait().expect("wait");
        assert_eq!(resp.id, id, "reply for request {id} echoed the wrong id");
    }
    service.shutdown();
}

/// A full shard rejects with a retry hint instead of queueing without
/// bound, and rejections never displace admitted requests.
#[test]
fn backpressure_rejects_with_retry_hint_without_displacing_work() {
    let mut opts = quiet_options();
    opts.workers = 1;
    opts.shards = 1;
    opts.queue_capacity = 2;
    opts.coalesce = false;
    opts.cache = CachePolicy::disabled();
    let service = TuningService::start(opts);

    let budgets = [64, 96, 128, 192, 256, 48, 80, 112];
    let mut accepted = Vec::new();
    let mut rejected = 0;
    for (id, nodes) in budgets.iter().enumerate() {
        match service.submit(TuneRequest::new(
            id as u64,
            hslb_cesm::Resolution::OneDegree,
            *nodes,
        )) {
            Ok(ticket) => accepted.push(ticket),
            Err(SubmitError::Backpressure(bp)) => {
                assert!(bp.retry_after_ms >= 1, "retry hint must be actionable");
                assert!(bp.depth >= 2, "rejection implies a full shard");
                rejected += 1;
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    assert!(rejected > 0, "8 quick submits into capacity 2 must reject");
    assert!(!accepted.is_empty());
    for ticket in accepted {
        ticket.wait().expect("admitted requests still complete");
    }
    service.shutdown();
}

/// Shutdown drains: every admitted ticket *resolves* — in-flight work
/// completes, still-queued work is rejected with a typed `Draining`
/// error carrying a retry hint (never silently dropped) — and
/// submissions after shutdown fail with `ShuttingDown`.
#[test]
fn shutdown_drains_admitted_work_and_rejects_new() {
    let service = TuningService::start(quiet_options());
    let tickets: Vec<_> = [64, 96, 128]
        .iter()
        .enumerate()
        .map(|(id, nodes)| {
            service
                .submit(TuneRequest::new(
                    id as u64,
                    hslb_cesm::Resolution::OneDegree,
                    *nodes,
                ))
                .expect("submit")
        })
        .collect();
    service.shutdown();
    assert_eq!(
        service
            .submit(TuneRequest::new(99, hslb_cesm::Resolution::OneDegree, 64))
            .unwrap_err(),
        SubmitError::ShuttingDown
    );
    for ticket in tickets {
        match ticket.wait() {
            Ok(_) => {}
            Err(SubmitError::Draining { retry_after_ms }) => {
                assert!(retry_after_ms >= 1, "drain rejection carries a retry hint");
            }
            Err(other) => {
                panic!("admitted before shutdown ⇒ completed or Draining, got {other}")
            }
        }
    }
}

// Satellite 3: N identical + M distinct requests issued concurrently
// from multiple threads produce payloads bit-identical to serial runs,
// and the duplicates (submitted after their original resolved) report a
// cache or coalesce hit.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn concurrent_identical_plus_distinct_matches_serial(
        identical in 2usize..5,
        distinct_budgets in prop::collection::vec(
            prop::sample::select(vec![48i64, 64, 96, 128, 192]), 1..4),
        seed in 0u64..3,
    ) {
        let base = {
            let mut r = TuneRequest::new(0, hslb_cesm::Resolution::OneDegree, 64);
            r.seed = 42 + seed;
            r
        };
        let mut requests: Vec<TuneRequest> = (0..identical)
            .map(|i| {
                let mut r = base.clone();
                r.id = i as u64;
                r
            })
            .collect();
        for (i, nodes) in distinct_budgets.iter().enumerate() {
            let mut r = TuneRequest::new((100 + i) as u64, hslb_cesm::Resolution::OneDegree, *nodes);
            r.seed = 42 + seed;
            requests.push(r);
        }
        let refs = references(&requests);

        let mut opts = quiet_options();
        opts.workers = 4;
        let service = TuningService::start(opts);
        // Warm the base key so the later identical submissions must hit.
        let first = service
            .submit(base.clone())
            .expect("submit")
            .wait()
            .expect("pipeline succeeds");
        prop_assert_eq!(&first.payload.fingerprint(), &refs[&base.exact_key()]);

        let results: Vec<(String, hslb_service::TuneResponse)> = std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .iter()
                .map(|req| {
                    let service = &service;
                    let req = req.clone();
                    scope.spawn(move || {
                        let key = req.exact_key();
                        (key, service.submit(req).expect("submit").wait().expect("wait"))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        for (key, resp) in &results {
            prop_assert_eq!(&resp.payload.fingerprint(), &refs[key]);
            if *key == base.exact_key() {
                prop_assert!(
                    resp.coalesced || resp.tier == CacheTier::Exact,
                    "identical request recomputed: tier {:?}", resp.tier
                );
            }
        }
        service.shutdown();
    }
}
