//! The one way to run a bridged deployment: a [`ThreadedSession`]
//! whose every node sits behind a [`SocketHub`] and talks to it over
//! loopback TCP.
//!
//! [`run`] builds the session with
//! [`ThreadedSession::setup_detached`], binds the hub on the seats of
//! every detached node ([`seats_for`]), starts one [`run_node`] per seat
//! on the chosen [`Host`], runs every round, and tears down in a fixed
//! order on every path: node threads joined, child processes reaped
//! (bounded), hub joined. The CLI's `cluster`/`trace` commands, the
//! socket benches, the multi-process example and the parity tests all
//! go through here, so they cannot drift apart.

use crate::hub::seats_for;
use crate::{run_node, SocketError, SocketHub, TraceHarvest};
use deta_core::{DetaConfig, ModelBuilder, RoundMetrics};
use deta_nn::train::LabeledData;
use deta_runtime::{RuntimeConfig, RuntimeError, ThreadedSession};
use deta_transport::Network;
use std::collections::HashMap;
use std::fmt;
use std::net::SocketAddr;
use std::process::Child;
use std::time::{Duration, Instant};

/// How long the harness waits for child processes to exit once the
/// session is over before killing them.
const REAP_BOUND: Duration = Duration::from_secs(60);

/// Where the nodes of a bridged deployment run.
pub enum Host<'a> {
    /// Each seat runs [`run_node`] on a scoped thread of this process,
    /// polling its mailbox every `tick`. Every byte still crosses a real
    /// socket; only the process boundary is elided.
    Threads {
        /// The node actors' idle poll interval.
        tick: Duration,
    },
    /// Each seat runs in a child process, started by this callback with
    /// the node's name and the hub's address. The child is expected to
    /// call [`run_node`] for that name.
    Processes(&'a dyn Fn(&str, SocketAddr) -> std::io::Result<Child>),
}

/// Everything one bridged run needs.
pub struct Deployment<'a> {
    /// The session configuration (its seed also keys the hub).
    pub config: DetaConfig,
    /// The deterministic model constructor every replica shares.
    pub builder: &'a ModelBuilder,
    /// Per-party training shards, in party order.
    pub shards: &'a [LabeledData],
    /// The test set evaluated after every round.
    pub test: &'a LabeledData,
    /// The supervisor's runtime policy.
    pub runtime: RuntimeConfig,
    /// The hub's chaos plan (see [`SocketHub::bind_chaos`]); empty for
    /// a fault-free run.
    pub chaos: HashMap<String, Vec<u64>>,
    /// Runs on the hub network before any node connects: the seam for
    /// fault policies and taps.
    pub instrument: &'a dyn Fn(&Network),
    /// Where the nodes run.
    pub host: Host<'a>,
}

/// What a bridged run leaves behind once setup succeeded.
pub struct Bridged {
    /// The coordinator's session, for `dropped_parties` and trace dumps.
    pub session: ThreadedSession,
    /// Every node's shipped flight-recorder ring and clock offset.
    pub harvest: TraceHarvest,
    /// The run's metrics, or its most telling failure.
    pub result: Result<Vec<RoundMetrics>, BridgeError>,
}

/// A failed bridged run. When several parts fail, the session's error
/// wins over a node's, and a node's over the hub's: a dead node must
/// surface as the supervisor's structured error naming it, never as the
/// hub's secondary disconnect fallout.
#[derive(Debug)]
pub enum BridgeError {
    /// Session setup or a round failed.
    Session(RuntimeError),
    /// A thread-hosted node exited with an error. Process-hosted nodes
    /// report only through the session and the hub.
    Node {
        /// The node's endpoint name.
        name: String,
        /// What the node observed.
        source: SocketError,
    },
    /// The hub recorded a link-level failure.
    Hub(SocketError),
}

impl fmt::Display for BridgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BridgeError::Session(e) => write!(f, "{e}"),
            BridgeError::Node { name, source } => write!(f, "node {name}: {source}"),
            BridgeError::Hub(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BridgeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BridgeError::Session(e) => Some(e),
            BridgeError::Node { source, .. } => Some(source),
            BridgeError::Hub(e) => Some(e),
        }
    }
}

/// Runs every round of `d` with each node behind the TCP bridge.
///
/// A panic on a node thread is re-raised here, after the hub is joined.
///
/// # Errors
///
/// [`BridgeError::Session`] when setup fails (nodes and hub are torn
/// down first). A failure after setup lands in [`Bridged::result`]
/// instead, next to the session and harvest it leaves behind.
pub fn run(d: Deployment<'_>) -> Result<Bridged, BridgeError> {
    let Deployment {
        config,
        builder,
        shards,
        test,
        runtime,
        chaos,
        instrument,
        host,
    } = d;
    let seed = config.seed;
    std::thread::scope(|scope| {
        let mut hub_slot: Option<SocketHub> = None;
        let mut threads = Vec::new();
        let mut children = Vec::new();
        let node_config = config.clone();
        let setup = ThreadedSession::setup_detached(
            config,
            builder,
            shards.to_vec(),
            runtime,
            |nodes, network| {
                instrument(network);
                let seats = seats_for(&nodes, seed);
                let names: Vec<String> = seats.iter().map(|s| s.name.clone()).collect();
                drop(nodes);
                let hub = SocketHub::bind_chaos(network.clone(), seats, seed, chaos)
                    .map_err(|_| RuntimeError::Protocol("socket hub failed to bind"))?;
                let addr = hub.addr();
                hub_slot = Some(hub);
                for name in names {
                    match &host {
                        Host::Threads { tick } => {
                            let (config, tick) = (node_config.clone(), *tick);
                            let handle = scope.spawn({
                                let name = name.clone();
                                move || {
                                    run_node(addr, &name, config, builder, shards.to_vec(), tick)
                                }
                            });
                            threads.push((name, handle));
                        }
                        Host::Processes(spawn) => {
                            children.push(spawn(&name, addr).map_err(RuntimeError::Spawn)?);
                        }
                    }
                }
                Ok(())
            },
        );
        let run = setup.map(|mut session| {
            let outcome = session.run(test);
            (session, outcome)
        });

        let mut node_error = None;
        let mut panic = None;
        for (name, handle) in threads {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(source)) => {
                    node_error = node_error.or(Some(BridgeError::Node { name, source }));
                }
                Err(payload) => panic = panic.or(Some(payload)),
            }
        }
        reap(&mut children);
        let (hub_error, harvest) = match hub_slot {
            Some(hub) => hub.join_harvest(),
            None => (None, TraceHarvest::default()),
        };
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }

        let (session, outcome) = run.map_err(BridgeError::Session)?;
        let result = match outcome {
            Err(e) => Err(BridgeError::Session(e)),
            Ok(metrics) => match (node_error, hub_error) {
                (Some(e), _) => Err(e),
                (None, Some(e)) => Err(BridgeError::Hub(e)),
                (None, None) => Ok(metrics),
            },
        };
        Ok(Bridged {
            session,
            harvest,
            result,
        })
    })
}

/// Waits for every child under one shared [`REAP_BOUND`]; a child still
/// running past it is killed, so a wedged node cannot hang the caller.
fn reap(children: &mut [Child]) {
    let deadline = Instant::now() + REAP_BOUND;
    for child in children {
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
    }
}
