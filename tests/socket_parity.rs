//! Socket-backend parity: a multi-node deployment bridged over real TCP
//! loopback must produce *bit-identical* round metrics to the in-process
//! `ThreadedSession` for the same seed.
//!
//! Every run goes through `deta_socket::bridge::run`, the harness
//! `deta-cli cluster` uses, with nodes hosted on threads of this test
//! process (each one calling `deta_socket::run_node`, exactly what the
//! `deta-cli node` subcommand does in a child process), so every byte
//! still crosses a real TCP socket with framing, sealing, sequencing,
//! and the challenge-response auth — only the OS process boundary is
//! elided.
//! `crates/deta-cli/tests/multi_process.rs` covers the real-process
//! variant end to end.

use deta::core::{fingerprint, AggKind, DetaConfig, ModelBuilder, RoundMetrics};
use deta::datasets::{iid_partition, DatasetSpec};
use deta::nn::models::mlp;
use deta::nn::train::LabeledData;
use deta::runtime::{RuntimeConfig, ThreadedSession};
use deta::socket::bridge::{self, Deployment, Host};
use deta::transport::{FaultPolicy, Network, SendVerdict};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn data(n: usize, parties: usize) -> (Vec<LabeledData>, LabeledData, Box<ModelBuilder>) {
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let train = spec.generate(n, 1);
    let test = spec.generate(60, 2);
    let (dim, classes) = (spec.dim(), spec.classes);
    (
        iid_partition(&train, parties, 3),
        test,
        Box::new(move |rng| mlp(&[dim, 16, classes], rng)),
    )
}

/// Loss/accuracy-only view, for runs where injected faults legitimately
/// change byte counts but must not change the learned model.
fn learning_fingerprint(metrics: &[RoundMetrics]) -> Vec<(u32, u32, u32)> {
    fingerprint(metrics)
        .into_iter()
        .map(|(train, test, acc, _, _)| (train, test, acc))
        .collect()
}

fn run_inprocess(
    cfg: DetaConfig,
    shards: Vec<LabeledData>,
    test: &LabeledData,
    builder: &ModelBuilder,
) -> Vec<RoundMetrics> {
    let mut session = ThreadedSession::setup(cfg, builder, shards, RuntimeConfig::default())
        .expect("in-process setup");
    session.run(test).expect("in-process run")
}

/// Runs the same session with every node detached behind the TCP
/// bridge, nodes hosted on threads of this process. `instrument` gets
/// the hub network before any node connects (for fault-seam tests);
/// `chaos` is the hub's sever plan. Panics on any session, node or hub
/// error.
fn run_socket(
    cfg: DetaConfig,
    shards: &[LabeledData],
    test: &LabeledData,
    builder: &ModelBuilder,
    runtime: RuntimeConfig,
    chaos: HashMap<String, Vec<u64>>,
    instrument: &dyn Fn(&Network),
) -> Vec<RoundMetrics> {
    bridge::run(Deployment {
        config: cfg,
        builder,
        shards,
        test,
        runtime,
        chaos,
        instrument,
        host: Host::Threads {
            tick: Duration::from_millis(10),
        },
    })
    .and_then(|bridged| bridged.result)
    .expect("bridged run must succeed")
}

/// A fault-free bridged run with the default runtime policy.
fn run_clean(
    cfg: DetaConfig,
    shards: &[LabeledData],
    test: &LabeledData,
    builder: &ModelBuilder,
) -> Vec<RoundMetrics> {
    let rt = RuntimeConfig::default();
    run_socket(cfg, shards, test, builder, rt, HashMap::new(), &|_| {})
}

#[test]
fn socket_equals_inprocess_fedavg_k2() {
    let mut cfg = DetaConfig::deta(3, 2);
    cfg.n_aggregators = 2;
    cfg.seed = 42;
    let (shards, test, builder) = data(120, cfg.n_parties);
    let local = run_inprocess(cfg.clone(), shards.clone(), &test, &*builder);
    let remote = run_clean(cfg, &shards, &test, &*builder);
    assert_eq!(
        fingerprint(&local),
        fingerprint(&remote),
        "TCP deployment must be bit-exact with the in-process one"
    );
}

#[test]
fn socket_equals_inprocess_coordinate_median_k2() {
    let mut cfg = DetaConfig::deta(3, 2);
    cfg.n_aggregators = 2;
    cfg.algorithm = AggKind::CoordinateMedian;
    cfg.seed = 7;
    let (shards, test, builder) = data(120, cfg.n_parties);
    let local = run_inprocess(cfg.clone(), shards.clone(), &test, &*builder);
    let remote = run_clean(cfg, &shards, &test, &*builder);
    assert_eq!(
        fingerprint(&local),
        fingerprint(&remote),
        "robust aggregation over TCP must be bit-exact with in-process"
    );
}

/// Duplicates every large party→aggregator payload (model uploads; the
/// size floor skips the small Phase II handshake frames).
struct DuplicateUploads;

impl FaultPolicy for DuplicateUploads {
    fn on_send(&self, from: &str, to: &str, payload: &[u8]) -> SendVerdict {
        if from.starts_with("party-") && to.starts_with("agg-") && payload.len() > 1000 {
            SendVerdict::Duplicate
        } else {
            SendVerdict::Deliver
        }
    }
}

/// The simulator's idempotence invariant, unchanged over sockets: the
/// fault policy installed on the hub network duplicates uploads that now
/// arrive via TCP, and the learned model must not move. (Byte counters
/// legitimately differ — the duplicate is billed — so only the learning
/// fingerprint is compared.)
#[test]
fn socket_duplicated_uploads_are_idempotent() {
    let mut cfg = DetaConfig::deta(3, 2);
    cfg.n_aggregators = 2;
    cfg.seed = 99;
    let (shards, test, builder) = data(120, cfg.n_parties);
    let clean = run_clean(cfg.clone(), &shards, &test, &*builder);
    let rt = RuntimeConfig::default();
    let faulted = run_socket(
        cfg,
        &shards,
        &test,
        &*builder,
        rt,
        HashMap::new(),
        &|network| {
            network.set_fault_policy(Arc::new(DuplicateUploads));
        },
    );
    assert_eq!(
        learning_fingerprint(&clean),
        learning_fingerprint(&faulted),
        "duplicated uploads over sockets must not change the model"
    );
}

/// Thread-hosted link chaos: the hub severs `party-0`'s TCP connection
/// abruptly (no `Bye`) after its 4th, 9th and 15th ingress frames. Each
/// sever forces a park, backoff, re-auth, resume and replay cycle, and
/// the healed run must be bit-identical to the fault-free one. Trigger
/// retries sit past the deadline horizon, as in every lossless bridged
/// run, so a retry's duplicate fan-out cannot move the byte counts.
#[test]
fn socket_severed_link_is_bit_exact() {
    let mut cfg = DetaConfig::deta(4, 5);
    cfg.n_aggregators = 2;
    cfg.seed = 42;
    let (shards, test, builder) = data(240, cfg.n_parties);
    let rt = RuntimeConfig {
        retry_initial: Duration::from_secs(3600),
        retry_max: Duration::from_secs(3600),
        ..RuntimeConfig::default()
    };
    let clean = run_socket(
        cfg.clone(),
        &shards,
        &test,
        &*builder,
        rt.clone(),
        HashMap::new(),
        &|_| {},
    );
    let chaos = HashMap::from([("party-0".to_string(), vec![4, 9, 15])]);
    let severed = run_socket(cfg, &shards, &test, &*builder, rt, chaos, &|_| {});
    assert_eq!(
        fingerprint(&clean),
        fingerprint(&severed),
        "three severs of party-0 must leave the run bit-identical"
    );
}
