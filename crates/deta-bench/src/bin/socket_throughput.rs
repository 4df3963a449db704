//! Socket-bridge throughput: rounds/sec of the in-process threaded
//! deployment vs. the same session bridged over real TCP loopback
//! sockets, at 1, 2, and 4 aggregators. Emits `BENCH_socket.json` (to
//! a temp directory; into the committed `results/` tree only under
//! `DETA_BENCH_REWRITE=1`).
//!
//! Children are hosted on threads of this process, each speaking the
//! full bridge protocol over a real socket (framing, sealed records,
//! sequencing, challenge-response auth), so the delta measured here is
//! the wire cost alone — serialization, sealing, kernel round-trips —
//! with no process-spawn noise. Every TCP run is also a parity gate:
//! the benchmark aborts if the bridged metrics diverge bit-for-bit from
//! the in-process run.
//!
//! ```text
//! cargo run --release -p deta-bench --bin socket_throughput
//! ```

use deta_bench::{bench_output_dir, Args};
use deta_core::{fingerprint, DetaConfig, ModelBuilder, RoundMetrics};
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::mlp;
use deta_nn::train::LabeledData;
use deta_runtime::{RuntimeConfig, ThreadedSession};
use deta_socket::bridge::{self, Deployment, Host};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Sample {
    aggregators: usize,
    deployment: &'static str,
    rounds: usize,
    wall_s: f64,
    rounds_per_s: f64,
    final_accuracy: f32,
}

fn config(seed: u64, aggregators: usize, parties: usize, rounds: usize) -> DetaConfig {
    let mut cfg = DetaConfig::deta(parties, rounds);
    cfg.n_aggregators = aggregators;
    cfg.seed = seed;
    cfg
}

/// Runs the session with every node detached behind the TCP bridge,
/// nodes hosted on threads of this process.
fn run_socket(
    cfg: DetaConfig,
    builder: &ModelBuilder,
    shards: &[LabeledData],
    test: &LabeledData,
) -> Vec<RoundMetrics> {
    bridge::run(Deployment {
        config: cfg,
        builder,
        shards,
        test,
        runtime: RuntimeConfig::default(),
        chaos: HashMap::new(),
        instrument: &|_| {},
        host: Host::Threads {
            tick: Duration::from_millis(10),
        },
    })
    .and_then(|bridged| bridged.result)
    .expect("socket run")
}

fn main() {
    let args = Args::parse();
    let parties: usize = args.get("parties", 4);
    let rounds: usize = args.get("rounds", 6);
    let per_party: usize = args.get("examples", 120);
    let seed: u64 = args.get("seed", 42);

    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let train = spec.generate(per_party * parties, 1);
    let test = spec.generate(200, 2);
    let shards = iid_partition(&train, parties, 3);
    let (dim, classes) = (spec.dim(), spec.classes);
    let builder = move |rng: &mut deta_crypto::DetRng| mlp(&[dim, 16, classes], rng);

    let mut samples: Vec<Sample> = Vec::new();
    for aggregators in [1usize, 2, 4] {
        // In-process threaded deployment.
        let cfg = config(seed, aggregators, parties, rounds);
        let t0 = Instant::now();
        let mut session =
            ThreadedSession::setup(cfg, &builder, shards.clone(), RuntimeConfig::default())
                .expect("in-process setup");
        let local = session.run(&test).expect("in-process run");
        let wall_s = t0.elapsed().as_secs_f64();
        samples.push(Sample {
            aggregators,
            deployment: "in_process",
            rounds,
            wall_s,
            rounds_per_s: rounds as f64 / wall_s,
            final_accuracy: local.last().map_or(0.0, |m| m.test_accuracy),
        });

        // Same session over TCP loopback.
        let cfg = config(seed, aggregators, parties, rounds);
        let t0 = Instant::now();
        let remote = run_socket(cfg, &builder, &shards, &test);
        let wall_s = t0.elapsed().as_secs_f64();
        assert_eq!(
            fingerprint(&local),
            fingerprint(&remote),
            "parity gate: TCP metrics diverged from in-process at k={aggregators}"
        );
        samples.push(Sample {
            aggregators,
            deployment: "tcp_loopback",
            rounds,
            wall_s,
            rounds_per_s: rounds as f64 / wall_s,
            final_accuracy: remote.last().map_or(0.0, |m| m.test_accuracy),
        });
    }

    println!("\n=== socket throughput ({parties} parties, {rounds} rounds, parity-gated) ===");
    for s in &samples {
        println!(
            "k={}  {:<12}  {:7.3}s wall  {:7.2} rounds/s  acc {:5.1}%",
            s.aggregators,
            s.deployment,
            s.wall_s,
            s.rounds_per_s,
            s.final_accuracy * 100.0
        );
    }

    // Hand-rolled JSON (the workspace is dependency-free by design).
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"socket_throughput\",");
    let _ = writeln!(json, "  \"parties\": {parties},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"examples_per_party\": {per_party},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"parity_checked\": true,");
    let _ = writeln!(json, "  \"samples\": [");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"aggregators\": {}, \"deployment\": \"{}\", \"rounds\": {}, \
             \"wall_s\": {:.6}, \"rounds_per_s\": {:.6}, \"final_accuracy\": {:.6}}}{comma}",
            s.aggregators, s.deployment, s.rounds, s.wall_s, s.rounds_per_s, s.final_accuracy
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    let path = bench_output_dir().join("BENCH_socket.json");
    std::fs::write(&path, json).expect("write BENCH_socket.json");
    println!("\nwrote {}", path.display());
}
