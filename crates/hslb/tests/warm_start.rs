//! Warm-start bit-identity at the pipeline level (DESIGN.md §14).
//!
//! The warm dual-simplex path may take a different pivot route than the
//! cold two-phase solve, so LP vertices can differ in their last bits —
//! but the *pipeline deliverable* must not: the integer allocation, the
//! predicted component times, and the predicted/actual totals have to be
//! bit-for-bit identical with warm-start on or off.
//! That is the acceptance bar for the warm-start work: it buys time,
//! never a different answer.

use hslb::{GatherPlan, Hslb, HslbOptions, Objective};
use hslb_cesm::{Layout, Machine, NoiseSpec, ResolutionConfig, Simulator};

fn run_report(warm_start: bool, seed: u64) -> hslb::ExperimentReport {
    let sim = Simulator::one_degree(seed);
    let mut opts = HslbOptions::new(128);
    opts.solver.warm_start = warm_start;
    Hslb::new(&sim, opts).run(None).expect("pipeline run")
}

fn assert_bit_identical(a: &hslb::ExperimentReport, b: &hslb::ExperimentReport, what: &str) {
    assert_eq!(a.hslb.allocation, b.hslb.allocation, "{what}: allocation");
    let (pa, pb) = (
        a.hslb.predicted_total.expect("minlp objective"),
        b.hslb.predicted_total.expect("minlp objective"),
    );
    assert_eq!(
        pa.to_bits(),
        pb.to_bits(),
        "{what}: predicted totals differ ({pa} vs {pb})"
    );
    assert_eq!(
        a.hslb.actual_total.to_bits(),
        b.hslb.actual_total.to_bits(),
        "{what}: actual totals differ"
    );
    let (ta, tb) = (
        a.hslb.predicted.expect("minlp rung"),
        b.hslb.predicted.expect("minlp rung"),
    );
    for (va, vb, c) in [
        (ta.lnd, tb.lnd, "lnd"),
        (ta.ice, tb.ice, "ice"),
        (ta.atm, tb.atm, "atm"),
        (ta.ocn, tb.ocn, "ocn"),
    ] {
        assert_eq!(va.to_bits(), vb.to_bits(), "{what}: predicted {c} differs");
    }
}

#[test]
fn warm_and_cold_incumbents_are_bit_identical_serial() {
    let warm = run_report(true, 20);
    let cold = run_report(false, 20);
    assert_bit_identical(&warm, &cold, "seed=20");
    // The warm run must actually have taken the warm path, or this test
    // proves nothing.
    let stats = warm.solver_stats.as_ref().expect("MINLP rung solved");
    assert!(
        stats.warm_resolves > 0,
        "warm-start on but zero warm resolves ({} lp solves)",
        stats.lp_solves
    );
    let cold_stats = cold.solver_stats.as_ref().expect("MINLP rung solved");
    assert_eq!(
        cold_stats.warm_resolves, 0,
        "warm-start off must never touch the warm path"
    );
}

#[test]
fn warm_start_is_bit_identical_across_scenarios() {
    // A second machine seed, to guard against the first scenario
    // happening to never branch deep enough to hand a tableau down an
    // edge. Seed 42 has a plateau of alternate optima (several integer
    // allocations share the bit-identical min-max objective), so the
    // warm and cold pivot routes may settle on different argmins. What
    // must hold is the optimum itself: the predicted total, bit for bit.
    let cold = run_report(false, 42);
    let warm = run_report(true, 42);
    let (pw, pc) = (
        warm.hslb.predicted_total.expect("minlp objective"),
        cold.hslb.predicted_total.expect("minlp objective"),
    );
    assert_eq!(
        pw.to_bits(),
        pc.to_bits(),
        "seed=42: warm optimum {pw} vs cold {pc}"
    );
    let stats = warm.solver_stats.as_ref().expect("MINLP rung solved");
    assert!(stats.warm_resolves > 0, "seed=42: warm path not exercised");
}

#[test]
fn warm_start_saves_simplex_work() {
    // The point of the tentpole: warm runs must not do *more* simplex
    // iterations than cold ones (they re-use the parent basis instead of
    // re-deriving it two-phase from scratch).
    let warm = run_report(true, 20);
    let cold = run_report(false, 20);
    let ws = warm.solver_stats.as_ref().expect("stats");
    let cs = cold.solver_stats.as_ref().expect("stats");
    assert!(
        ws.simplex_iters <= cs.simplex_iters,
        "warm {} iters > cold {} iters",
        ws.simplex_iters,
        cs.simplex_iters
    );
}

#[test]
fn long_warm_edit_chains_reach_the_cold_optimum() {
    // 1° fully sequential min-max over whole-machine data (the service
    // keys `1deg|sequential|min-max|n{512,1024}|oceantrue|seed42`) drives
    // the warm tableau through long chains of cut appends and bound
    // changes until it drifts from the posed problem. Before warm answers
    // were certified against the posed rows, that drift pruned live
    // nodes: on 1024 nodes the warm run settled on 228.8 s against the
    // cold 154.1 s optimum.
    let solve = |nodes: i64, warm_start: bool| {
        let sim = Simulator::new(
            Machine::intrepid(),
            ResolutionConfig::one_degree(),
            NoiseSpec::default(),
            42,
        );
        let mut opts = HslbOptions::new(nodes);
        opts.layout = Layout::FullySequential;
        opts.objective = Objective::MinMax;
        opts.gather = GatherPlan::LogSpaced {
            min_nodes: 8,
            max_nodes: Machine::intrepid().nodes,
            points: 8,
        };
        opts.solver.warm_start = warm_start;
        Hslb::new(&sim, opts).run(None).expect("pipeline run")
    };
    for nodes in [512, 1024] {
        let (warm, cold) = (solve(nodes, true), solve(nodes, false));
        let (pw, pc) = (
            warm.hslb.predicted_total.expect("minlp objective"),
            cold.hslb.predicted_total.expect("minlp objective"),
        );
        assert!(
            (pw - pc).abs() <= 1e-9 * pc,
            "n{nodes}: warm optimum {pw} vs cold {pc}"
        );
        let stats = warm.solver_stats.as_ref().expect("MINLP rung solved");
        assert!(stats.warm_resolves > 0, "n{nodes}: warm path not exercised");
    }
}
