//! The max-min enumeration keeps the atmosphere above its memory floor.
//!
//! Max-min gives every node left after the ocean to the atmosphere
//! group, and used to take that count without checking it against the
//! atmosphere's floor, so execution rejected the answer ("atm on 887
//! nodes does not fit in memory (needs ≥ 1024)"). These two requests
//! hit that failure before the fix.

use hslb::Objective;
use hslb_cesm::{Layout, Resolution};
use hslb_service::{reference_response, TuneRequest};

fn max_min(resolution: Resolution, target_nodes: i64, seed: u64) -> TuneRequest {
    TuneRequest {
        layout: Layout::Hybrid,
        objective: Objective::MaxMin,
        seed,
        ..TuneRequest::new(0, resolution, target_nodes)
    }
}

#[test]
fn max_min_answers_execute_at_both_resolutions() {
    for (req, atm_floor) in [
        (max_min(Resolution::EighthDegree, 3243, 181_186_639), 1024),
        (max_min(Resolution::OneDegree, 774, 758_668_006), 8),
    ] {
        let key = req.exact_key();
        let payload = reference_response(&req).unwrap_or_else(|e| panic!("{key}: {e}"));
        assert!(
            payload.allocation.atm >= atm_floor,
            "{key}: atm on {} nodes",
            payload.allocation.atm
        );
    }
}
