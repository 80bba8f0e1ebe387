//! `hslb-serve` — the tuning service behind a TCP socket.
//!
//! Line-delimited JSON (see `hslb_service::wire` for the grammar):
//! each connection sends one command per line and receives one reply
//! per command. Tune replies are written as their tickets resolve, so a
//! client may pipeline many tune commands and read replies out of
//! submission order (correlate by `id`).
//!
//! ```text
//! hslb-serve [--addr 127.0.0.1:7878] [--workers 4] [--shards 2]
//!            [--queue-capacity 64] [--no-coalesce] [--no-cache]
//!            [--port-file PATH] [--shard i/N]
//!            [--snapshot PATH] [--snapshot-every N]
//!            [--fault-seed N] [--fault-rate F]
//!            [--max-outbound-bytes N] [--drain-deadline-ms N]
//! ```
//!
//! The front end is the std-only nonblocking readiness loop of
//! `hslb_service::reactor`: one thread multiplexes accept, read,
//! dispatch, and write-backpressure across every connection, and tune
//! replies ride a completion bus from the resolving worker straight
//! into per-connection outbound queues. Thread count is `workers + 1`
//! regardless of connection count — there is no thread per connection
//! and no thread per reply.
//!
//! `--shard i/N` declares this process shard `i` of an `N`-process
//! consistent-hash deployment: tune requests whose exact key routes to
//! another shard are rejected with a typed `misrouted` error naming the
//! owner (clients route with `hslb_service::shard_for_key`).
//!
//! `--port-file` writes the bound address (host:port) to a file once
//! listening — how the check.sh smoke gate finds a `--addr 127.0.0.1:0`
//! ephemeral port. The write is atomic (temp + rename), so a poller can
//! never observe a partial address. A `shutdown` command drains the
//! service (queued requests are rejected with a typed `Draining` error,
//! in-flight ones finish), flushes a final cache snapshot when
//! `--snapshot` is set, writes every pending reply under a hard
//! deadline, acks, and exits 0.
//!
//! `--snapshot PATH` restores both cache tiers from `PATH` at startup
//! (a missing/corrupted snapshot cold-starts with a recovery record —
//! see the `health` op) and re-flushes periodically and on drain.
//!
//! `--fault-rate F` (with `--fault-seed N`) enables the deterministic
//! chaos spec `ServiceFaultSpec::chaos(N, F)`: seeded worker
//! panics/hangs/slowdowns and cache poisoning inside the service, plus
//! connection drops and truncated frames injected at the reactor's
//! outbound-enqueue point on tune replies.
#![forbid(unsafe_code)]

use hslb_service::reactor::{write_port_file, Reactor, ReactorOptions};
use hslb_service::shard::ShardSpec;
use hslb_service::{CachePolicy, ServiceFaultSpec, ServiceOptions, SnapshotPolicy, TuningService};
use std::sync::Arc;

struct Args {
    addr: String,
    port_file: Option<String>,
    opts: ServiceOptions,
    reactor: ReactorOptions,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        port_file: None,
        opts: ServiceOptions::default(),
        reactor: ReactorOptions::default(),
    };
    let mut snapshot_path: Option<String> = None;
    let mut snapshot_every: Option<u64> = None;
    let mut fault_seed: u64 = 0;
    let mut fault_rate: f64 = 0.0;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--port-file" => args.port_file = Some(value("--port-file")?),
            "--shard" => args.reactor.shard = Some(ShardSpec::parse(&value("--shard")?)?),
            "--workers" => {
                args.opts.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--shards" => {
                args.opts.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--queue-capacity" => {
                args.opts.queue_capacity = value("--queue-capacity")?
                    .parse()
                    .map_err(|e| format!("--queue-capacity: {e}"))?
            }
            "--no-coalesce" => args.opts.coalesce = false,
            "--no-cache" => args.opts.cache = CachePolicy::disabled(),
            "--snapshot" => snapshot_path = Some(value("--snapshot")?),
            "--snapshot-every" => {
                snapshot_every = Some(
                    value("--snapshot-every")?
                        .parse()
                        .map_err(|e| format!("--snapshot-every: {e}"))?,
                )
            }
            "--fault-seed" => {
                fault_seed = value("--fault-seed")?
                    .parse()
                    .map_err(|e| format!("--fault-seed: {e}"))?
            }
            "--fault-rate" => {
                fault_rate = value("--fault-rate")?
                    .parse()
                    .map_err(|e| format!("--fault-rate: {e}"))?
            }
            "--max-outbound-bytes" => {
                args.reactor.max_outbound_bytes = value("--max-outbound-bytes")?
                    .parse()
                    .map_err(|e| format!("--max-outbound-bytes: {e}"))?
            }
            "--drain-deadline-ms" => {
                args.reactor.drain_deadline_ms = value("--drain-deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--drain-deadline-ms: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "hslb-serve [--addr HOST:PORT] [--workers N] [--shards N] \
                     [--queue-capacity N] [--no-coalesce] [--no-cache] \
                     [--port-file PATH] [--shard i/N] \
                     [--snapshot PATH] [--snapshot-every N] \
                     [--fault-seed N] [--fault-rate F] \
                     [--max-outbound-bytes N] [--drain-deadline-ms N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(path) = snapshot_path {
        let mut policy = SnapshotPolicy::new(path);
        if let Some(every) = snapshot_every {
            policy.every_completions = every;
        }
        args.opts.snapshot = Some(policy);
    } else if snapshot_every.is_some() {
        return Err("--snapshot-every requires --snapshot".to_string());
    }
    if fault_rate > 0.0 {
        let spec = ServiceFaultSpec::chaos(fault_seed, fault_rate);
        args.opts.faults = spec;
        args.reactor.faults = spec;
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hslb-serve: {e}");
            std::process::exit(2);
        }
    };
    let faults = args.opts.faults;
    let snapshot_configured = args.opts.snapshot.is_some();
    let workers = args.opts.workers;
    let shards = args.opts.shards;
    let capacity = args.opts.queue_capacity;
    let service = Arc::new(TuningService::start(args.opts));
    if snapshot_configured {
        let recovery = service.health().recovery;
        eprintln!(
            "hslb-serve: snapshot restore: attempted={} restored_exact={} restored_fits={} \
             cold_start={} fallbacks={:?}",
            recovery.attempted,
            recovery.restored_exact,
            recovery.restored_fits,
            recovery.cold_start,
            recovery.fallbacks
        );
    }
    let reactor = match Reactor::bind(&args.addr, Arc::clone(&service), args.reactor.clone()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hslb-serve: {e}");
            std::process::exit(2);
        }
    };
    let local = reactor.local_addr().to_string();
    if let Some(path) = &args.port_file {
        if let Err(e) = write_port_file(path, &local) {
            eprintln!("hslb-serve: {e}");
            std::process::exit(2);
        }
    }
    match args.reactor.shard {
        Some(spec) => eprintln!(
            "hslb-serve: listening on {local} as shard {spec} \
             ({workers} workers, {shards} queue shards, capacity {capacity})"
        ),
        None => eprintln!(
            "hslb-serve: listening on {local} \
             ({workers} workers, {shards} queue shards, capacity {capacity})"
        ),
    }
    if faults.is_active() {
        eprintln!(
            "hslb-serve: fault injection active (seed {}, panic {:.3}, hang {:.3}, slow {:.3}, \
             poison {:.3}, drop {:.3}, truncate {:.3})",
            faults.seed,
            faults.panic_rate,
            faults.hang_rate,
            faults.slow_rate,
            faults.poison_rate,
            faults.drop_rate,
            faults.truncate_rate
        );
    }
    if let Err(e) = reactor.run() {
        eprintln!("hslb-serve: {e}");
        std::process::exit(1);
    }
    eprintln!("hslb-serve: drained and exiting");
}
