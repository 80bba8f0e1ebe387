#!/usr/bin/env bash
# Repository gate: build, tests, lints, audits. CI and pre-merge both run
# this.
#
#   scripts/check.sh           # everything
#   scripts/check.sh --fast    # skip the release build and bench smoke
#
# The clippy step is strict (-D warnings) across every target, including
# tests and benches: the workspace carries `warn(clippy::unwrap_used,
# clippy::expect_used)` on the library crates' non-test code, so a new
# unwrap on a fault path fails the gate here rather than panicking on a
# cluster.
#
# The audit gate (DESIGN.md §11, §16) has three levels. Level 2 —
# `audit-source`, a token-level scan (hand-rolled lexer, so comments and
# strings neither create nor mask findings) of the workspace for
# nondeterminism primitives, raw float equality, lock acquisitions inside
# the admission-queue shard critical sections, and telemetry reads from solver or service code. Level 3 — the same binary's
# concurrency audit: a cross-crate lock acquisition graph with cycle,
# rank-lattice, and held-across-blocking-call checks, plus the zero-raw-
# locks rule over crates/service/src (every lock there is a ranked
# wrapper). Both run in both modes with `--check-allow` (stale allowlist
# entries fail the gate) and dump the machine-readable graph to
# AUDIT_lockgraph.json, which is committed next to BENCH_pipeline.json
# and must match the tree. Deliberate exceptions live in
# scripts/audit.allow, one justified line each. Level 1 —
# `audit-instances`, the convexity/well-formedness certificate over every
# benchmark scenario plus the seeded non-convex rejection self-test —
# needs release solves and runs in the full mode. The full mode also
# rebuilds the service crate with debug assertions on, so the ranked
# wrappers' runtime rank asserts are exercised by compilation even in
# the release-profile gate.
#
# The service smoke gate (DESIGN.md §12) starts `hslb-serve` on an
# ephemeral port, replays the deterministic smoke mix through `loadgen`
# (which bit-checks every reply's fingerprint against the parsed payload
# and spot-checks serial references), validates the emitted
# hslb-service-load/v3 block, and verifies the server drains and exits 0
# on the shutdown command.
#
# The chaos gate (DESIGN.md §13) then restarts the server with seeded
# service-layer fault injection and a cache snapshot, replays the chaos
# mix (every request must end in a verified bit-identical response,
# surviving injected panics, hangs, poisoned cache entries, and dropped/
# truncated connections), kill -9s the server, restarts it from the same
# snapshot, and re-runs the smoke mix — the restored cache must serve bit
# for bit. Level 2 of the audit gate carries six rules, including
# no-unwrap-inside-catch_unwind on the supervised worker paths and the
# hash-order rule (no HashMap/HashSet/pointer-identity iteration in the
# simplex crate, whose pivot order must be reproducible).
#
# The warm-start gate (DESIGN.md §14) runs the bench smoke twice — warm
# dual-simplex path on and off — validates both documents against the v9
# schema (which checks the warm_start work counters), and bit-compares the incumbents between the two runs:
# warm starts may change how much work the solver does, never what it
# returns.
#
# The connection-scale gate (DESIGN.md §15) runs the readiness-loop
# deployment shape end to end: two `hslb-serve --shard i/2` processes on
# ephemeral ports, `loadgen --profile ramp --smoke` holding 512 sockets
# with client-side consistent-hash routing (every reply bit-checked,
# both shards drained); then a single server under `--profile soak
# --smoke` — 5,000 concurrent connections with churn — while a sampler
# records the server's thread count: the readiness loop must answer
# connection-scale load with a bounded thread pool (the ISSUE 8
# regression drove one thread per connection and per reply).
#
# The sweep gate (DESIGN.md §17) drives a 96-configuration portfolio
# sweep (3 layout topologies × 22 one-degree budgets × 10 eighth-degree
# budgets) through a single `hslb-serve` process over TCP with the
# `hslb-sweep` client: every streamed portfolio entry is re-derived
# locally via `reference_response` and bit-compared (`--verify`), the
# shared-work dedup must push the fit-level cache hit rate to ≥ 0.5
# (`--min-fit-hit-rate`), and the committed BENCH_pipeline.json's sweep
# block must show the batch beating half the Σ-one-shot estimate
# (wall_ms ≤ 0.5 × sum_one_shot_ms).

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings, all targets)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> audit-source (Levels 2+3: token-level source audit + lock-order graph)"
lockgraph_out="$(mktemp /tmp/audit_lockgraph.XXXXXX.json)"
cargo run -q -p hslb-audit --bin audit-source -- --root . --allowlist scripts/audit.allow \
    --check-allow --json "$lockgraph_out"
# The committed artifact must match the tree (regenerate with:
#   cargo run -p hslb-audit --bin audit-source -- --root . --json AUDIT_lockgraph.json)
if ! diff AUDIT_lockgraph.json "$lockgraph_out" >/dev/null 2>&1; then
    echo "AUDIT_lockgraph.json is stale: regenerate it (see scripts/check.sh)" >&2
    rm -f "$lockgraph_out"
    exit 1
fi
rm -f "$lockgraph_out" 

if [[ $fast -eq 0 ]]; then
    echo "==> cargo build --release"
    cargo build --release --workspace
fi

echo "==> cargo test"
cargo test -q --workspace

if [[ $fast -eq 0 ]]; then
    echo "==> audit-instances (Level 1: convexity certificates + rejection self-test)"
    cargo run --release -q -p hslb-bench --bin audit-instances

    echo "==> bench-suite smoke + schema validation"
    smoke_out="$(mktemp /tmp/bench_smoke.XXXXXX.json)"
    trap 'rm -f "$smoke_out"' EXIT
    cargo run --release -q -p hslb-bench --bin bench-suite -- --smoke --out "$smoke_out"
    cargo run --release -q -p hslb-bench --bin bench-suite -- --validate "$smoke_out"
    cargo run --release -q -p hslb-bench --bin bench-suite -- --validate BENCH_pipeline.json

    echo "==> warm-start gate (warm vs cold A/B, incumbents bit-compared)"
    cold_out="$(mktemp /tmp/bench_smoke_cold.XXXXXX.json)"
    trap 'rm -f "$smoke_out" "$cold_out"' EXIT
    cargo run --release -q -p hslb-bench --bin bench-suite -- --smoke --no-warm-start --out "$cold_out"
    cargo run --release -q -p hslb-bench --bin bench-suite -- --validate "$cold_out"
    cargo run --release -q -p hslb-bench --bin bench-suite -- --compare-incumbents "$smoke_out" "$cold_out"

    echo "==> service smoke (hslb-serve + loadgen + graceful drain)"
    port_file="$(mktemp /tmp/hslb_serve_port.XXXXXX)"
    load_out="$(mktemp /tmp/service_load.XXXXXX.json)"
    rm -f "$port_file"
    trap 'rm -f "$smoke_out" "$cold_out" "$port_file" "$load_out"' EXIT
    ./target/release/hslb-serve --addr 127.0.0.1:0 --port-file "$port_file" &
    serve_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$port_file" ]] && break
        sleep 0.1
    done
    [[ -s "$port_file" ]] || { echo "hslb-serve never published its port" >&2; exit 1; }
    # --smoke replays the deterministic mix, bit-checks every reply, and
    # sends the shutdown command; the server must drain, ack, and exit 0.
    ./target/release/loadgen --addr "$(cat "$port_file")" --smoke --out "$load_out"
    cargo run --release -q -p hslb-bench --bin bench-suite -- --validate-service "$load_out"
    wait "$serve_pid"

    echo "==> service chaos gate (fault injection, kill -9, snapshot recovery)"
    snapshot_file="$(mktemp /tmp/hslb_snapshot.XXXXXX.json)"
    chaos_out="$(mktemp /tmp/service_chaos.XXXXXX.json)"
    rm -f "$port_file" "$snapshot_file"
    trap 'rm -f "$smoke_out" "$cold_out" "$port_file" "$load_out" "$snapshot_file" "$chaos_out"' EXIT
    ./target/release/hslb-serve --addr 127.0.0.1:0 --port-file "$port_file" \
        --fault-seed 7 --fault-rate 0.3 --snapshot "$snapshot_file" &
    serve_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$port_file" ]] && break
        sleep 0.1
    done
    [[ -s "$port_file" ]] || { echo "hslb-serve (chaos) never published its port" >&2; exit 1; }
    # The chaos profile survives injected worker panics/hangs, poisoned
    # cache entries, and dropped/truncated connections; it fails unless
    # every request ends in a verified bit-identical response.
    ./target/release/loadgen --addr "$(cat "$port_file")" --profile chaos --out "$chaos_out"
    cargo run --release -q -p hslb-bench --bin bench-suite -- --validate-service "$chaos_out"
    # Simulate a crash: no drain, no final flush — the periodic snapshot
    # on disk is all the restarted server gets.
    kill -9 "$serve_pid"
    wait "$serve_pid" 2>/dev/null || true
    [[ -s "$snapshot_file" ]] || { echo "periodic snapshot never flushed" >&2; exit 1; }
    rm -f "$port_file"
    ./target/release/hslb-serve --addr 127.0.0.1:0 --port-file "$port_file" \
        --snapshot "$snapshot_file" &
    serve_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$port_file" ]] && break
        sleep 0.1
    done
    [[ -s "$port_file" ]] || { echo "restarted hslb-serve never published its port" >&2; exit 1; }
    # The restored cache must serve the replayed mix bit-identically
    # (loadgen recomputes and bit-checks every reply's fingerprint).
    ./target/release/loadgen --addr "$(cat "$port_file")" --smoke
    wait "$serve_pid"

    echo "==> connection-scale gate (2 shards, ramp, 512 connections)"
    port0_file="$(mktemp /tmp/hslb_shard0_port.XXXXXX)"
    port1_file="$(mktemp /tmp/hslb_shard1_port.XXXXXX)"
    ramp_out="$(mktemp /tmp/service_ramp.XXXXXX.json)"
    soak_out="$(mktemp /tmp/service_soak.XXXXXX.json)"
    threads_log="$(mktemp /tmp/hslb_threads.XXXXXX)"
    rm -f "$port0_file" "$port1_file"
    trap 'rm -f "$smoke_out" "$cold_out" "$port_file" "$load_out" "$snapshot_file" "$chaos_out" "$port0_file" "$port1_file" "$ramp_out" "$soak_out" "$threads_log"' EXIT
    ./target/release/hslb-serve --addr 127.0.0.1:0 --shard 0/2 --port-file "$port0_file" &
    shard0_pid=$!
    ./target/release/hslb-serve --addr 127.0.0.1:0 --shard 1/2 --port-file "$port1_file" &
    shard1_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$port0_file" && -s "$port1_file" ]] && break
        sleep 0.1
    done
    [[ -s "$port0_file" && -s "$port1_file" ]] || { echo "sharded hslb-serve never published its ports" >&2; exit 1; }
    # Open-loop ramp: 512 held sockets, stepped arrival rate, every
    # request routed to its consistent-hash shard and bit-checked; the
    # smoke profile then drains both shard processes.
    ./target/release/loadgen --addr "$(cat "$port0_file"),$(cat "$port1_file")" \
        --profile ramp --smoke --out "$ramp_out" > /dev/null
    cargo run --release -q -p hslb-bench --bin bench-suite -- --validate-service "$ramp_out"
    wait "$shard0_pid"
    wait "$shard1_pid"

    echo "==> connection-scale gate (soak, 5000 connections, bounded threads)"
    rm -f "$port0_file"
    ./target/release/hslb-serve --addr 127.0.0.1:0 --port-file "$port0_file" --queue-capacity 512 &
    soak_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$port0_file" ]] && break
        sleep 0.1
    done
    [[ -s "$port0_file" ]] || { echo "soak hslb-serve never published its port" >&2; exit 1; }
    # Sample the server's thread count for the whole run: the readiness
    # loop must hold 5,000 churning connections on a fixed thread pool.
    ( while kill -0 "$soak_pid" 2>/dev/null; do
          grep Threads "/proc/$soak_pid/status" 2>/dev/null || true
          sleep 0.2
      done ) > "$threads_log" &
    sampler_pid=$!
    ./target/release/loadgen --addr "$(cat "$port0_file")" --profile soak --smoke --out "$soak_out" > /dev/null
    cargo run --release -q -p hslb-bench --bin bench-suite -- --validate-service "$soak_out"
    wait "$soak_pid"
    wait "$sampler_pid" 2>/dev/null || true
    peak_threads="$(awk '{print $2}' "$threads_log" | sort -n | tail -1)"
    [[ -n "$peak_threads" ]] || { echo "thread sampler never read the soak server" >&2; exit 1; }
    if (( peak_threads > 64 )); then
        echo "soak server peaked at $peak_threads threads under 5000 connections (thread-per-connection regression?)" >&2
        exit 1
    fi
    echo "    soak server peak: $peak_threads threads under 5000 connections"

    echo "==> sweep gate (96-config portfolio over TCP, verified + fit-cache bar)"
    sweep_port_file="$(mktemp /tmp/hslb_sweep_port.XXXXXX)"
    sweep_out="$(mktemp /tmp/sweep_portfolio.XXXXXX.json)"
    rm -f "$sweep_port_file"
    trap 'rm -f "$smoke_out" "$cold_out" "$port_file" "$load_out" "$snapshot_file" "$chaos_out" "$port0_file" "$port1_file" "$ramp_out" "$soak_out" "$threads_log" "$sweep_port_file" "$sweep_out"' EXIT
    ./target/release/hslb-serve --addr 127.0.0.1:0 --port-file "$sweep_port_file" &
    sweep_serve_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$sweep_port_file" ]] && break
        sleep 0.1
    done
    [[ -s "$sweep_port_file" ]] || { echo "sweep hslb-serve never published its port" >&2; exit 1; }
    # 3 layouts × (22 + 10) budgets = 96 configurations, all through one
    # server connection. --verify re-derives every solved entry with
    # reference_response and bit-compares fingerprints; the fit-cache bar
    # is what shared-work dedup buys (fits are budget-independent, so 32
    # budgets reuse 2 fit signatures, one per resolution). Budgets stay inside the set where
    # every layout's ocean count is feasible (sequential rejects 1° >512
    # and 1/8° 9216/12288/14336/32768).
    ./target/release/hslb-sweep --addr "$(cat "$sweep_port_file")" \
        --one-degree-nodes 32,48,64,80,96,112,128,144,160,192,224,256,288,320,352,384,416,448,464,480,496,512 \
        --eighth-nodes 4096,5120,6144,7168,8192,10240,11264,13312,15360,16384 \
        --verify --min-fit-hit-rate 0.5 --quiet --out "$sweep_out"
    # Drain and stop the server (one tune request keeps the plain op
    # exercised on a server that just ran a sweep).
    ./target/release/loadgen --addr "$(cat "$sweep_port_file")" --requests 1 --shutdown > /dev/null
    wait "$sweep_serve_pid"
    # Batch-beats-serial bar on the committed artifact: the sweep block's
    # wall clock must be at most half the Σ-one-shot estimate.
    awk '
        /"sweep":/ { in_sweep = 1 }
        in_sweep && wall == "" && /"wall_ms":/ { gsub(/[",]/, "", $2); wall = $2 }
        in_sweep && serial == "" && /"sum_one_shot_ms":/ { gsub(/[",]/, "", $2); serial = $2 }
        END {
            if (wall == "" || serial == "") { print "sweep block missing wall_ms/sum_one_shot_ms" > "/dev/stderr"; exit 1 }
            if (wall + 0 > 0.5 * (serial + 0)) {
                printf "sweep wall %.1fms exceeds 0.5 x one-shot estimate %.1fms\n", wall, serial > "/dev/stderr"
                exit 1
            }
            printf "    sweep wall %.1fms vs one-shot estimate %.1fms\n", wall, serial
        }
    ' BENCH_pipeline.json

    echo "==> ranked-lock asserts compile (service crate, debug assertions on)"
    cargo rustc -q -p hslb-service --lib --release -- -C debug-assertions=on
fi

echo "==> all checks passed"
