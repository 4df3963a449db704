//! Link-resilience benchmark: the fault-free cost of the retransmit
//! buffering that makes TCP reconnects lossless, and the recovery
//! latency of an actual sever-park-resume cycle. Emits
//! `BENCH_reconnect.json` (to a temp directory; into the committed
//! `results/` tree only under `DETA_BENCH_REWRITE=1`).
//!
//! Two phases, both parity-gated:
//!
//! 1. **Fault-free overhead.** The same bridged session runs with
//!    retransmit buffering on and off, alternating, several times; the
//!    best wall time of each arm is compared. The buffered arm must be
//!    within 2% of the unbuffered arm — the resilience machinery has to
//!    be effectively free when no link ever drops — or the benchmark
//!    exits nonzero.
//! 2. **Recovery latency.** The same session runs under a chaos plan
//!    that severs one party's TCP connection mid-stream several times
//!    (no `Bye`, the hub parks the seat, the child backs off and
//!    resumes). The metrics must stay bit-exact with the fault-free
//!    run; the wall-time delta divided by the sever count is the
//!    per-reconnect recovery cost, dominated by the child's first
//!    backoff step.
//!
//! ```text
//! cargo run --release -p deta-bench --bin reconnect_latency
//! ```

use deta_bench::{bench_output_dir, Args};
use deta_core::{fingerprint, DetaConfig, Fingerprint, ModelBuilder, RoundMetrics};
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::mlp;
use deta_nn::train::LabeledData;
use deta_runtime::RuntimeConfig;
use deta_socket::bridge::{self, Deployment, Host};
use deta_socket::set_retransmit_buffering;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Runs the session with every node detached behind the TCP bridge
/// (nodes hosted on threads of this process), under the given chaos
/// plan. Returns the metrics and the measured wall time.
fn run_socket(
    cfg: DetaConfig,
    builder: &ModelBuilder,
    shards: &[LabeledData],
    test: &LabeledData,
    chaos: HashMap<String, Vec<u64>>,
) -> (Vec<RoundMetrics>, f64) {
    let t0 = Instant::now();
    // Retries past the deadline horizon, like the cluster deployment:
    // the bridge is lossless, and a load-timed duplicate fan-out would
    // break byte parity between the chaos and fault-free arms.
    let runtime = RuntimeConfig {
        retry_initial: Duration::from_secs(3600),
        retry_max: Duration::from_secs(3600),
        ..RuntimeConfig::default()
    };
    let metrics = bridge::run(Deployment {
        config: cfg,
        builder,
        shards,
        test,
        runtime,
        chaos,
        instrument: &|_| {},
        host: Host::Threads {
            tick: Duration::from_millis(10),
        },
    })
    .and_then(|bridged| bridged.result)
    .expect("socket run");
    (metrics, t0.elapsed().as_secs_f64())
}

fn config(seed: u64, aggregators: usize, parties: usize, rounds: usize) -> DetaConfig {
    let mut cfg = DetaConfig::deta(parties, rounds);
    cfg.n_aggregators = aggregators;
    cfg.seed = seed;
    cfg
}

fn main() {
    let args = Args::parse();
    let parties: usize = args.get("parties", 4);
    let aggregators: usize = args.get("aggregators", 2);
    let rounds: usize = args.get("rounds", 10);
    let per_party: usize = args.get("examples", 120);
    let seed: u64 = args.get("seed", 42);
    let reps: usize = args.get("reps", 5);
    const OVERHEAD_GATE: f64 = 0.02;

    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let train = spec.generate(per_party * parties, 1);
    let test = spec.generate(200, 2);
    let shards = iid_partition(&train, parties, 3);
    let (dim, classes) = (spec.dim(), spec.classes);
    let builder = move |rng: &mut deta_crypto::DetRng| mlp(&[dim, 16, classes], rng);

    // Phase 1: fault-free overhead of retransmit buffering, alternating
    // arms so load drift hits both equally. Best-of-N per arm: the
    // minimum is the stable estimator for a fixed workload.
    let mut wall_on = f64::INFINITY;
    let mut wall_off = f64::INFINITY;
    let mut baseline: Option<Fingerprint> = None;
    // Unmeasured warmup (populates allocator arenas, warms the page
    // cache) so the first measured arm is not penalized.
    let cfg = config(seed, aggregators, parties, rounds);
    let _ = run_socket(cfg, &builder, &shards, &test, HashMap::new());
    for _ in 0..reps {
        for on in [false, true] {
            set_retransmit_buffering(on);
            let cfg = config(seed, aggregators, parties, rounds);
            let (metrics, wall) = run_socket(cfg, &builder, &shards, &test, HashMap::new());
            let fp = fingerprint(&metrics);
            match &baseline {
                None => baseline = Some(fp),
                Some(b) => assert_eq!(
                    b, &fp,
                    "parity gate: metrics diverged across buffering arms"
                ),
            }
            let slot = if on { &mut wall_on } else { &mut wall_off };
            *slot = slot.min(wall);
        }
    }
    set_retransmit_buffering(true);
    let overhead = wall_on / wall_off - 1.0;

    // Phase 2: recovery latency. The hub severs party-0's connection
    // after the given cumulative ingress Data-frame counts; each sever
    // forces a full park → backoff → re-auth → resume → replay cycle.
    let severs: Vec<u64> = vec![4, 9, 15];
    let chaos: HashMap<String, Vec<u64>> = HashMap::from([("party-0".to_string(), severs.clone())]);
    let mut wall_chaos = f64::INFINITY;
    for _ in 0..reps {
        let cfg = config(seed, aggregators, parties, rounds);
        let (metrics, wall) = run_socket(cfg, &builder, &shards, &test, chaos.clone());
        assert_eq!(
            baseline.as_ref().expect("fault-free baseline"),
            &fingerprint(&metrics),
            "parity gate: metrics diverged under chaos severs"
        );
        wall_chaos = wall_chaos.min(wall);
    }
    let recovery_s = (wall_chaos - wall_on).max(0.0) / severs.len() as f64;

    println!("\n=== reconnect latency ({parties} parties, {rounds} rounds, parity-gated) ===");
    println!("fault-free, buffering off: {wall_off:7.3}s wall (best of {reps})");
    println!("fault-free, buffering on:  {wall_on:7.3}s wall (best of {reps})");
    println!(
        "retransmit-buffer overhead: {:+.2}% (gate < {:.0}%)",
        overhead * 100.0,
        OVERHEAD_GATE * 100.0
    );
    println!(
        "{} severs of party-0:        {wall_chaos:7.3}s wall -> {:.1} ms recovery per reconnect",
        severs.len(),
        recovery_s * 1e3
    );

    // Hand-rolled JSON (the workspace is dependency-free by design).
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"reconnect_latency\",");
    let _ = writeln!(json, "  \"parties\": {parties},");
    let _ = writeln!(json, "  \"aggregators\": {aggregators},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"examples_per_party\": {per_party},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"parity_checked\": true,");
    let _ = writeln!(json, "  \"wall_s_buffering_off\": {wall_off:.6},");
    let _ = writeln!(json, "  \"wall_s_buffering_on\": {wall_on:.6},");
    let _ = writeln!(json, "  \"buffering_overhead\": {overhead:.6},");
    let _ = writeln!(json, "  \"overhead_gate\": {OVERHEAD_GATE},");
    let _ = writeln!(json, "  \"severs\": {},", severs.len());
    let _ = writeln!(json, "  \"wall_s_chaos\": {wall_chaos:.6},");
    let _ = writeln!(json, "  \"recovery_s_per_reconnect\": {recovery_s:.6}");
    let _ = writeln!(json, "}}");
    let path = bench_output_dir().join("BENCH_reconnect.json");
    std::fs::write(&path, json).expect("write BENCH_reconnect.json");
    println!("\nwrote {}", path.display());

    if overhead >= OVERHEAD_GATE {
        eprintln!(
            "GATE FAILED: retransmit buffering costs {:+.2}% fault-free \
             (must stay under {:.0}%)",
            overhead * 100.0,
            OVERHEAD_GATE * 100.0
        );
        std::process::exit(1);
    }
}
