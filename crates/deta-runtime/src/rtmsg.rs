//! Control-plane protocol between the supervisor and its actors.
//!
//! Control messages ride the same simulated network as the training
//! protocol, distinguished purely by the sender: every node treats frames
//! from [`SUPERVISOR`] as control traffic and everything else as wire
//! protocol (`deta_core::wire::Msg`). Both codecs are built on the
//! workspace's one byte codec, [`deta_transport::wire`]: a tag byte plus
//! length-prefixed fields, total in both directions — decoding never
//! panics on malformed bytes, and encoding refuses fields that would
//! overflow their `u32` length prefix instead of truncating.

use deta_transport::wire::{DecodeError, EncodeError, Reader, Writer};

/// The supervisor's endpoint name. Reserved: no party or aggregator is
/// ever named this, so the sender check is unambiguous.
pub const SUPERVISOR: &str = "supervisor";

/// One aggregator replacement inside a [`CtlMsg::Rebind`].
#[derive(Clone, PartialEq, Eq)]
pub struct RebindEntry {
    /// Fragment index of the replaced aggregator.
    pub index: u32,
    /// Endpoint name of the replacement.
    pub name: String,
    /// The replacement's token verifying key bytes (public material,
    /// published by the attestation proxy after the nonce challenge).
    pub verifying_key: Vec<u8>,
}

impl std::fmt::Debug for RebindEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The verifying key is public material, but key bytes stay out
        // of logs uniformly (see `SealedSecret`): debug output should
        // never be a place to copy key material from.
        f.debug_struct("RebindEntry")
            .field("index", &self.index)
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Control messages.
#[derive(Clone, Debug, PartialEq)]
pub enum CtlMsg {
    /// Node -> supervisor: the node finished its bootstrap (aggregators:
    /// thread up and serving; parties: registered with every aggregator).
    Ready,
    /// Node -> supervisor: unrecoverable node-level failure.
    Failed {
        /// Human-readable reason.
        reason: String,
    },
    /// Node -> supervisor: liveness signal emitted on idle ticks.
    Heartbeat {
        /// Monotonic per-node sequence number.
        seq: u64,
    },
    /// Supervisor -> initiator aggregator: trigger a round (the
    /// operator's `begin_round` call, made message-driven). Idempotent:
    /// re-delivery of an announced or completed round is harmless.
    Trigger {
        /// Round number, starting at 1.
        round: u64,
        /// Per-round training id from the key broker.
        training_id: [u8; 16],
    },
    /// Supervisor -> party: this round's marching orders.
    RoundPlan {
        /// Round number.
        round: u64,
        /// Train and upload (`true`) or only synchronize (`false`).
        train: bool,
        /// Whether to attach a model-parameter snapshot to `PartyDone`
        /// (one designated party per round feeds evaluation).
        report_params: bool,
    },
    /// Party -> supervisor: the round is applied locally.
    PartyDone {
        /// Round number.
        round: u64,
        /// Whether this party trained (vs. synchronized only).
        trained: bool,
        /// Mean local training loss for the round (0 when not trained).
        train_loss: f32,
        /// Cumulative local-training seconds.
        train_s: f64,
        /// Cumulative transform seconds.
        transform_s: f64,
        /// Cumulative Paillier seconds.
        crypto_s: f64,
        /// Post-synchronization parameter snapshot, when requested.
        params: Option<Vec<f32>>,
    },
    /// Aggregator -> supervisor: aggregation for the round is dispatched.
    AggDone {
        /// Round number.
        round: u64,
        /// Cumulative aggregation compute seconds.
        aggregate_s: f64,
    },
    /// Supervisor -> node: drain and exit.
    Shutdown,
    /// Supervisor -> party: the listed aggregators were replaced by
    /// freshly attested nodes; re-run Phase II against each
    /// (challenge-response pinned to its token) and re-register. All
    /// replacements ride one message so the party's readiness signal
    /// can never fire between two rebinds of the same failover.
    Rebind {
        /// One entry per replaced aggregator.
        rebinds: Vec<RebindEntry>,
    },
    /// Supervisor -> party: re-partition over the surviving aggregator
    /// set before replaying `round` (the old epoch's fragments for that
    /// round are discarded, never merged).
    Remap {
        /// The round being replayed under the new partition.
        round: u64,
        /// Serialized replacement `ModelMapper` assignment.
        mapper: Vec<u8>,
        /// Surviving aggregator endpoint names, index = fragment index.
        aggs: Vec<String>,
    },
    /// Supervisor -> party: re-upload the stored update for `round` (the
    /// idempotent round-replay step after a failover).
    Replay {
        /// Round to replay.
        round: u64,
    },
    /// Supervisor -> aggregator: roll completed-round bookkeeping back
    /// so replayed uploads for `round` are accepted again.
    Reopen {
        /// Round being replayed.
        round: u64,
    },
    /// Supervisor -> aggregator: the named party left the session
    /// (partial participation after its link died); stop expecting its
    /// uploads and re-examine every pending round against the shrunk
    /// registered set.
    Deregister {
        /// Endpoint name of the departed party.
        party: String,
    },
    /// Supervisor -> aggregator: the post-failover synchronization
    /// topology. The node named `initiator` adopts the initiator role
    /// over the other listed aggregators; everyone else follows it.
    Topology {
        /// Endpoint name of the (possibly newly promoted) initiator.
        initiator: String,
        /// The full current aggregator set.
        aggs: Vec<String>,
    },
}

const TAG_READY: u8 = 1;
const TAG_FAILED: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;
const TAG_TRIGGER: u8 = 4;
const TAG_ROUND_PLAN: u8 = 5;
const TAG_PARTY_DONE: u8 = 6;
const TAG_AGG_DONE: u8 = 7;
const TAG_SHUTDOWN: u8 = 8;
const TAG_REBIND: u8 = 9;
const TAG_REMAP: u8 = 10;
const TAG_REPLAY: u8 = 11;
const TAG_REOPEN: u8 = 12;
const TAG_TOPOLOGY: u8 = 13;
const TAG_DEREGISTER: u8 = 14;

impl CtlMsg {
    /// The variant's name, for counted-drop telemetry labels.
    pub fn name(&self) -> &'static str {
        match self {
            CtlMsg::Ready => "Ready",
            CtlMsg::Failed { .. } => "Failed",
            CtlMsg::Heartbeat { .. } => "Heartbeat",
            CtlMsg::Trigger { .. } => "Trigger",
            CtlMsg::RoundPlan { .. } => "RoundPlan",
            CtlMsg::PartyDone { .. } => "PartyDone",
            CtlMsg::AggDone { .. } => "AggDone",
            CtlMsg::Shutdown => "Shutdown",
            CtlMsg::Rebind { .. } => "Rebind",
            CtlMsg::Remap { .. } => "Remap",
            CtlMsg::Replay { .. } => "Replay",
            CtlMsg::Reopen { .. } => "Reopen",
            CtlMsg::Deregister { .. } => "Deregister",
            CtlMsg::Topology { .. } => "Topology",
        }
    }

    /// Serializes the message.
    ///
    /// # Errors
    ///
    /// Fails when a field holds 2^32 or more elements, instead of
    /// truncating a length prefix.
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        let mut w = Writer::new();
        match self {
            CtlMsg::Ready => w.u8(TAG_READY),
            CtlMsg::Failed { reason } => {
                w.u8(TAG_FAILED);
                w.string(reason)?;
            }
            CtlMsg::Heartbeat { seq } => {
                w.u8(TAG_HEARTBEAT);
                w.u64(*seq);
            }
            CtlMsg::Trigger { round, training_id } => {
                w.u8(TAG_TRIGGER);
                w.u64(*round);
                w.raw(training_id);
            }
            CtlMsg::RoundPlan {
                round,
                train,
                report_params,
            } => {
                w.u8(TAG_ROUND_PLAN);
                w.u64(*round);
                w.bool(*train);
                w.bool(*report_params);
            }
            CtlMsg::PartyDone {
                round,
                trained,
                train_loss,
                train_s,
                transform_s,
                crypto_s,
                params,
            } => {
                w.u8(TAG_PARTY_DONE);
                w.u64(*round);
                w.bool(*trained);
                w.f32(*train_loss);
                w.f64(*train_s);
                w.f64(*transform_s);
                w.f64(*crypto_s);
                w.bool(params.is_some());
                if let Some(p) = params {
                    w.f32s(p)?;
                }
            }
            CtlMsg::AggDone { round, aggregate_s } => {
                w.u8(TAG_AGG_DONE);
                w.u64(*round);
                w.f64(*aggregate_s);
            }
            CtlMsg::Shutdown => w.u8(TAG_SHUTDOWN),
            CtlMsg::Rebind { rebinds } => {
                w.u8(TAG_REBIND);
                w.count(rebinds.len())?;
                for e in rebinds {
                    w.u32(e.index);
                    w.string(&e.name)?;
                    w.bytes(&e.verifying_key)?;
                }
            }
            CtlMsg::Remap {
                round,
                mapper,
                aggs,
            } => {
                w.u8(TAG_REMAP);
                w.u64(*round);
                w.bytes(mapper)?;
                w.string_list(aggs)?;
            }
            CtlMsg::Replay { round } => {
                w.u8(TAG_REPLAY);
                w.u64(*round);
            }
            CtlMsg::Reopen { round } => {
                w.u8(TAG_REOPEN);
                w.u64(*round);
            }
            CtlMsg::Topology { initiator, aggs } => {
                w.u8(TAG_TOPOLOGY);
                w.string(initiator)?;
                w.string_list(aggs)?;
            }
            CtlMsg::Deregister { party } => {
                w.u8(TAG_DEREGISTER);
                w.string(party)?;
            }
        }
        Ok(w.into_bytes())
    }

    /// Parses a control frame.
    ///
    /// # Errors
    ///
    /// Fails on any malformed input; never panics.
    pub fn decode(buf: &[u8]) -> Result<CtlMsg, DecodeError> {
        let mut r = Reader::new(buf);
        let msg = match r.u8()? {
            TAG_READY => CtlMsg::Ready,
            TAG_FAILED => CtlMsg::Failed {
                reason: r.string()?,
            },
            TAG_HEARTBEAT => CtlMsg::Heartbeat { seq: r.u64()? },
            TAG_TRIGGER => CtlMsg::Trigger {
                round: r.u64()?,
                training_id: r.array()?,
            },
            TAG_ROUND_PLAN => CtlMsg::RoundPlan {
                round: r.u64()?,
                train: r.bool()?,
                report_params: r.bool()?,
            },
            TAG_PARTY_DONE => CtlMsg::PartyDone {
                round: r.u64()?,
                trained: r.bool()?,
                train_loss: r.f32()?,
                train_s: r.f64()?,
                transform_s: r.f64()?,
                crypto_s: r.f64()?,
                params: if r.bool()? { Some(r.f32s()?) } else { None },
            },
            TAG_AGG_DONE => CtlMsg::AggDone {
                round: r.u64()?,
                aggregate_s: r.f64()?,
            },
            TAG_SHUTDOWN => CtlMsg::Shutdown,
            TAG_REBIND => {
                // Each entry costs at least 12 bytes of fixed prefixes.
                let rebinds = (0..r.count(12)?)
                    .map(|_| {
                        Ok(RebindEntry {
                            index: r.u32()?,
                            name: r.string()?,
                            verifying_key: r.bytes()?,
                        })
                    })
                    .collect::<Result<Vec<_>, DecodeError>>()?;
                CtlMsg::Rebind { rebinds }
            }
            TAG_REMAP => CtlMsg::Remap {
                round: r.u64()?,
                mapper: r.bytes()?,
                aggs: r.string_list()?,
            },
            TAG_REPLAY => CtlMsg::Replay { round: r.u64()? },
            TAG_REOPEN => CtlMsg::Reopen { round: r.u64()? },
            TAG_TOPOLOGY => CtlMsg::Topology {
                initiator: r.string()?,
                aggs: r.string_list()?,
            },
            TAG_DEREGISTER => CtlMsg::Deregister { party: r.string()? },
            _ => return Err(DecodeError),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: CtlMsg) {
        let bytes = msg.encode().expect("encode");
        assert_eq!(CtlMsg::decode(&bytes).expect("decode"), msg);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(CtlMsg::Ready);
        roundtrip(CtlMsg::Failed {
            reason: "agg-1 failed authentication".to_string(),
        });
        roundtrip(CtlMsg::Heartbeat { seq: 42 });
        roundtrip(CtlMsg::Trigger {
            round: 7,
            training_id: [9u8; 16],
        });
        roundtrip(CtlMsg::RoundPlan {
            round: 3,
            train: true,
            report_params: false,
        });
        roundtrip(CtlMsg::PartyDone {
            round: 3,
            trained: true,
            train_loss: 0.25,
            train_s: 1.5,
            transform_s: 0.125,
            crypto_s: 0.0,
            params: Some(vec![1.0, -2.5, 3.25]),
        });
        roundtrip(CtlMsg::PartyDone {
            round: 4,
            trained: false,
            train_loss: 0.0,
            train_s: 0.0,
            transform_s: 0.0,
            crypto_s: 0.0,
            params: None,
        });
        roundtrip(CtlMsg::AggDone {
            round: 3,
            aggregate_s: 0.5,
        });
        roundtrip(CtlMsg::Shutdown);
        roundtrip(CtlMsg::Rebind {
            rebinds: vec![
                RebindEntry {
                    index: 2,
                    name: "agg-2#r1".to_string(),
                    verifying_key: vec![1, 2, 3, 4],
                },
                RebindEntry {
                    index: 0,
                    name: "agg-0#r3".to_string(),
                    verifying_key: vec![9; 32],
                },
            ],
        });
        roundtrip(CtlMsg::Rebind {
            rebinds: Vec::new(),
        });
        roundtrip(CtlMsg::Remap {
            round: 5,
            mapper: vec![0, 0, 1, 0, 0, 0],
            aggs: vec!["agg-0".to_string(), "agg-2".to_string()],
        });
        roundtrip(CtlMsg::Replay { round: 5 });
        roundtrip(CtlMsg::Reopen { round: 5 });
        roundtrip(CtlMsg::Topology {
            initiator: "agg-2".to_string(),
            aggs: vec!["agg-2".to_string(), "agg-0#r1".to_string()],
        });
        roundtrip(CtlMsg::Remap {
            round: 1,
            mapper: Vec::new(),
            aggs: Vec::new(),
        });
        roundtrip(CtlMsg::Deregister {
            party: "party-3".to_string(),
        });
    }

    #[test]
    fn malformed_inputs_are_rejected_not_panicked() {
        assert!(CtlMsg::decode(&[]).is_err());
        assert!(CtlMsg::decode(&[99]).is_err());
        // Truncated Failed payload.
        assert!(CtlMsg::decode(&[TAG_FAILED, 10, 0, 0, 0, b'x']).is_err());
        // Trailing garbage after a valid frame.
        let mut ok = CtlMsg::Ready.encode().expect("encode");
        ok.push(0);
        assert!(CtlMsg::decode(&ok).is_err());
        // Out-of-range bool.
        let mut plan = CtlMsg::RoundPlan {
            round: 1,
            train: true,
            report_params: false,
        }
        .encode()
        .expect("encode");
        let last = plan.len() - 2;
        plan[last] = 7;
        assert!(CtlMsg::decode(&plan).is_err());
        // Truncated Rebind token.
        let mut rebind = CtlMsg::Rebind {
            rebinds: vec![RebindEntry {
                index: 0,
                name: "agg-0#r1".to_string(),
                verifying_key: vec![9; 32],
            }],
        }
        .encode()
        .expect("encode");
        rebind.truncate(rebind.len() - 1);
        assert!(CtlMsg::decode(&rebind).is_err());
        // String-list count larger than the remaining buffer.
        let mut topo = vec![TAG_TOPOLOGY];
        topo.extend_from_slice(&1u32.to_le_bytes());
        topo.push(b'a');
        topo.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(CtlMsg::decode(&topo).is_err());
    }
}
