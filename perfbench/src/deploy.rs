//! Runs one session of a workload on each deployment, through the
//! program's public entry points only, and times its phases.

use crate::stats::process_cpu_s;
use crate::workloads::{Inputs, Workload};
use deta_core::transform::TransformConfig;
use deta_core::{DetaConfig, DetaSession, RoundMetrics};
use deta_runtime::{FailoverPolicy, RuntimeConfig, RuntimeError, ThreadedSession, SUPERVISOR};
use deta_socket::hub::seats_for;
use deta_socket::{SocketHub, TraceHarvest};
use deta_transport::NetTap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One finished session.
#[derive(Debug)]
pub struct Session {
    /// Session construction until every node is attested,
    /// authenticated and registered.
    pub setup_s: f64,
    /// Wall time of the call that runs the rounds.
    pub run_s: f64,
    /// Process CPU (user + sys) consumed during that call.
    pub cpu_s: f64,
    pub metrics: Vec<RoundMetrics>,
    /// Wall and CPU seconds of each `step` call (sequential session
    /// only; the other deployments run all rounds in one call).
    pub steps: Vec<(f64, f64)>,
    /// Data-plane messages (party and aggregator traffic, not the
    /// supervisor's control plane) delivered during the run call; `None`
    /// for the sequential session, whose network is internal.
    pub messages: Option<u64>,
    pub failovers: u64,
    pub dropped_parties: usize,
}

impl Session {
    pub fn rounds_per_s(&self) -> f64 {
        self.metrics.len() as f64 / self.run_s
    }
}

/// The bit-exact slice of a round's metrics: train/test loss, accuracy,
/// upload and download bytes.
pub type Fingerprint = Vec<(u32, u32, u32, u64, u64)>;

pub fn fingerprint(metrics: &[RoundMetrics]) -> Fingerprint {
    metrics
        .iter()
        .map(|m| {
            (
                m.train_loss.to_bits(),
                m.test_loss.to_bits(),
                m.test_accuracy.to_bits(),
                m.upload_bytes,
                m.download_bytes,
            )
        })
        .collect()
}

/// The runtime policy of the TCP deployment (`deta-cli cluster`): no
/// failover, and trigger retries pushed past the deadline horizon
/// because the transport is lossless.
pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        failover: FailoverPolicy::None,
        retry_initial: Duration::from_secs(3600),
        retry_max: Duration::from_secs(3600),
        ..RuntimeConfig::default()
    }
}

/// `deta_core::baseline::run_ffl`'s coercion of a DeTA configuration
/// to the FFL baseline: one aggregator, no transform, no CC.
pub fn ffl_config(mut cfg: DetaConfig) -> DetaConfig {
    cfg.n_aggregators = 1;
    cfg.proportions = None;
    cfg.transform = TransformConfig::none();
    cfg.cc_protected = false;
    cfg
}

/// Counts data-plane deliveries. Control traffic is left out because
/// idle heartbeats make its volume depend on timing.
#[derive(Default)]
struct DataPlaneCounter(AtomicU64);

impl NetTap for DataPlaneCounter {
    fn on_deliver(&self, from: &str, to: &str, _payload: &[u8]) {
        if from != SUPERVISOR && to != SUPERVISOR {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl DataPlaneCounter {
    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// `DetaSession`: setup, then the step loop.
pub fn sequential(w: &Workload, inputs: &Inputs, cfg: DetaConfig) -> Result<Session, String> {
    let rounds = cfg.rounds;
    let t0 = Instant::now();
    let mut session = DetaSession::setup(cfg, &|rng| w.build_model(rng), inputs.shards.clone())
        .map_err(|e| format!("sequential setup: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let cpu0 = process_cpu_s();
    let t1 = Instant::now();
    let mut metrics = Vec::with_capacity(rounds);
    let mut steps = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let (cpu, t) = (process_cpu_s(), Instant::now());
        metrics.push(session.step(&inputs.test));
        steps.push((t.elapsed().as_secs_f64(), process_cpu_s() - cpu));
    }
    let run_s = t1.elapsed().as_secs_f64();
    Ok(Session {
        setup_s,
        run_s,
        cpu_s: process_cpu_s() - cpu0,
        metrics,
        steps,
        messages: None,
        failovers: 0,
        dropped_parties: w.parties - session.online_parties(),
    })
}

/// `ThreadedSession` with one thread per node, all in this process.
pub fn in_process(
    w: &Workload,
    inputs: &Inputs,
    cfg: DetaConfig,
    rt: RuntimeConfig,
) -> Result<Session, String> {
    let counter = Arc::new(DataPlaneCounter::default());
    let tap = Arc::clone(&counter);
    let t0 = Instant::now();
    let mut session = ThreadedSession::setup_with(
        cfg,
        &|rng| w.build_model(rng),
        inputs.shards.clone(),
        rt,
        |parts| parts.network.set_tap(tap),
    )
    .map_err(|e| format!("in-process setup: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let messages0 = counter.get();
    let cpu0 = process_cpu_s();
    let t1 = Instant::now();
    let metrics = session
        .run(&inputs.test)
        .map_err(|e| format!("in-process run: {e}"))?;
    let run_s = t1.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    Ok(Session {
        setup_s,
        run_s,
        cpu_s,
        metrics,
        steps: Vec::new(),
        messages: Some(counter.get() - messages0),
        failovers: session.failover_count(),
        dropped_parties: session.dropped_parties().len(),
    })
}

/// A bridged session plus what tracing collected, if it was on.
pub struct Bridged {
    pub session: Session,
    /// Every node's shipped flight-recorder ring and clock offset.
    pub harvest: TraceHarvest,
    /// The coordinator's own ring, as JSONL (tracing only).
    pub coordinator_trace: Option<String>,
}

/// `ThreadedSession::setup_detached` + `SocketHub`: every node runs
/// `deta_socket::run_node` on a thread of this process and talks to the
/// hub over loopback TCP, as in `deta-bench --bin socket_throughput`.
pub fn bridged(
    w: &Workload,
    inputs: &Inputs,
    cfg: DetaConfig,
    rt: RuntimeConfig,
) -> Result<Bridged, String> {
    let seed = cfg.seed;
    let tick = rt.tick;
    let tracing = rt.telemetry.enabled;
    let workload = *w;
    let child_cfg = cfg.clone();
    let mut hub_slot: Option<SocketHub> = None;
    let counter = Arc::new(DataPlaneCounter::default());
    let tap = Arc::clone(&counter);
    let mut children = Vec::new();
    let t0 = Instant::now();
    let setup = ThreadedSession::setup_detached(
        cfg,
        &|rng| w.build_model(rng),
        inputs.shards.clone(),
        rt,
        |nodes, network| {
            let seats = seats_for(&nodes, seed);
            let names: Vec<String> = seats.iter().map(|s| s.name.clone()).collect();
            drop(nodes);
            network.set_tap(tap);
            let hub = SocketHub::bind(network.clone(), seats, seed)
                .map_err(|_| RuntimeError::Protocol("socket hub failed to bind"))?;
            let addr = hub.addr();
            for name in names {
                let cfg = child_cfg.clone();
                let shards = inputs.shards.clone();
                children.push(std::thread::spawn(move || {
                    deta_socket::run_node(
                        addr,
                        &name,
                        cfg,
                        &|rng| workload.build_model(rng),
                        shards,
                        tick,
                    )
                }));
            }
            hub_slot = Some(hub);
            Ok(())
        },
    );
    let setup_s = t0.elapsed().as_secs_f64();
    let outcome = setup
        .map_err(|e| format!("bridged setup: {e}"))
        .and_then(|mut session| {
            let messages0 = counter.get();
            let cpu0 = process_cpu_s();
            let t1 = Instant::now();
            let run = session.run(&inputs.test);
            let run_s = t1.elapsed().as_secs_f64();
            let cpu_s = process_cpu_s() - cpu0;
            let messages = Some(counter.get() - messages0);
            let coordinator_trace = if tracing {
                session
                    .dump_trace()
                    .and_then(|path| std::fs::read_to_string(path).ok())
            } else {
                None
            };
            let metrics = run.map_err(|e| format!("bridged run: {e}"))?;
            Ok((
                Session {
                    setup_s,
                    run_s,
                    cpu_s,
                    metrics,
                    steps: Vec::new(),
                    messages,
                    failovers: session.failover_count(),
                    dropped_parties: session.dropped_parties().len(),
                },
                coordinator_trace,
            ))
        });
    // Every node thread and the hub are joined on every path.
    let mut child_error = None;
    for child in children {
        match child.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => child_error = child_error.or(Some(format!("node: {e}"))),
            Err(_) => child_error = child_error.or(Some("node thread panicked".to_string())),
        }
    }
    let (hub_error, harvest) = match hub_slot {
        Some(hub) => hub.join_harvest(),
        None => (None, TraceHarvest::default()),
    };
    let (session, coordinator_trace) = outcome?;
    if let Some(e) = child_error {
        return Err(e);
    }
    if let Some(e) = hub_error {
        return Err(format!("hub: {e}"));
    }
    Ok(Bridged {
        session,
        harvest,
        coordinator_trace,
    })
}
