//! Wire protocol between parties and aggregators.
//!
//! A tag byte plus length-prefixed fields, built on the workspace's one
//! byte codec, [`deta_transport::wire`]. Handshake messages from
//! `deta-transport` travel as raw frames; every message defined here is
//! carried *inside* a secure-channel record once the channel is up,
//! except the initial [`Msg::Hello`] wrapper that bootstraps it.
//!
//! Both directions are total: [`Msg::decode`] never panics on malformed
//! input (attacker-controlled bytes reach it directly), and
//! [`Msg::encode`] reports oversized fields instead of silently
//! truncating their length prefixes.

pub use deta_transport::wire::{DecodeError, EncodeError};
use deta_transport::wire::{Reader, Writer};

/// Protocol messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Secure-channel handshake hello (party -> aggregator), carrying the
    /// raw handshake bytes from `deta-transport`.
    Hello {
        /// Raw handshake hello from the initiator.
        handshake: Vec<u8>,
    },
    /// Handshake response (aggregator -> party).
    HelloReply {
        /// Raw handshake response.
        handshake: Vec<u8>,
    },
    /// Sealed secure-channel record (either direction).
    Record {
        /// AEAD-sealed payload (a serialized inner [`Msg`]).
        sealed: Vec<u8>,
    },
    /// Party registration (inside the channel).
    Register {
        /// Party name.
        party: String,
        /// Training-data weight (e.g. local example count).
        weight: f32,
    },
    /// Registration acknowledged.
    RegisterAck,
    /// Round start announcement (initiator aggregator -> party).
    RoundStart {
        /// Round number, starting at 1.
        round: u64,
        /// Per-round training identifier for the dynamic shuffle.
        training_id: [u8; 16],
    },
    /// Transformed fragment upload (party -> aggregator).
    Upload {
        /// Round number.
        round: u64,
        /// The partitioned (and possibly shuffled) fragment.
        fragment: Vec<f32>,
    },
    /// Paillier ciphertext fragment upload (party -> aggregator).
    UploadEncrypted {
        /// Round number.
        round: u64,
        /// Serialized ciphertexts (big-endian, length-prefixed).
        ciphertexts: Vec<Vec<u8>>,
        /// Number of packed plaintext values.
        value_count: u64,
    },
    /// Aggregated fragment download (aggregator -> party).
    Aggregated {
        /// Round number.
        round: u64,
        /// Aggregated fragment in the same transformed coordinates.
        fragment: Vec<f32>,
    },
    /// Aggregated Paillier ciphertexts (aggregator -> party).
    AggregatedEncrypted {
        /// Round number.
        round: u64,
        /// Homomorphically summed ciphertexts.
        ciphertexts: Vec<Vec<u8>>,
        /// Number of packed plaintext values.
        value_count: u64,
        /// Number of party inputs summed (needed to decode offsets).
        summands: u64,
    },
    /// Inter-aggregator synchronization: initiator tells followers the
    /// round and training id.
    SyncRound {
        /// Round number.
        round: u64,
        /// Training identifier to broadcast.
        training_id: [u8; 16],
    },
    /// Follower acknowledges a completed round to the initiator.
    SyncDone {
        /// Round number.
        round: u64,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_HELLO_REPLY: u8 = 2;
const TAG_RECORD: u8 = 3;
const TAG_REGISTER: u8 = 4;
const TAG_REGISTER_ACK: u8 = 5;
const TAG_ROUND_START: u8 = 6;
const TAG_UPLOAD: u8 = 7;
const TAG_AGGREGATED: u8 = 8;
const TAG_SYNC_ROUND: u8 = 9;
const TAG_SYNC_DONE: u8 = 10;
const TAG_UPLOAD_ENC: u8 = 11;
const TAG_AGGREGATED_ENC: u8 = 12;

impl Msg {
    /// The variant's name, for counted-drop telemetry labels.
    pub fn name(&self) -> &'static str {
        match self {
            Msg::Hello { .. } => "Hello",
            Msg::HelloReply { .. } => "HelloReply",
            Msg::Record { .. } => "Record",
            Msg::Register { .. } => "Register",
            Msg::RegisterAck => "RegisterAck",
            Msg::RoundStart { .. } => "RoundStart",
            Msg::Upload { .. } => "Upload",
            Msg::UploadEncrypted { .. } => "UploadEncrypted",
            Msg::Aggregated { .. } => "Aggregated",
            Msg::AggregatedEncrypted { .. } => "AggregatedEncrypted",
            Msg::SyncRound { .. } => "SyncRound",
            Msg::SyncDone { .. } => "SyncDone",
        }
    }

    /// Serializes the message.
    ///
    /// Fails (instead of truncating a length prefix) when a field holds
    /// 2^32 or more elements — unreachable for protocol-conforming
    /// senders but kept total so no caller can construct a frame that
    /// decodes to something else.
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        let mut w = Writer::new();
        match self {
            Msg::Hello { handshake } => {
                w.u8(TAG_HELLO);
                w.bytes(handshake)?;
            }
            Msg::HelloReply { handshake } => {
                w.u8(TAG_HELLO_REPLY);
                w.bytes(handshake)?;
            }
            Msg::Record { sealed } => {
                w.u8(TAG_RECORD);
                w.bytes(sealed)?;
            }
            Msg::Register { party, weight } => {
                w.u8(TAG_REGISTER);
                w.string(party)?;
                w.f32(*weight);
            }
            Msg::RegisterAck => w.u8(TAG_REGISTER_ACK),
            Msg::RoundStart { round, training_id } => {
                w.u8(TAG_ROUND_START);
                w.u64(*round);
                w.raw(training_id);
            }
            Msg::Upload { round, fragment } => {
                w.u8(TAG_UPLOAD);
                w.u64(*round);
                w.f32s(fragment)?;
            }
            Msg::UploadEncrypted {
                round,
                ciphertexts,
                value_count,
            } => {
                w.u8(TAG_UPLOAD_ENC);
                w.u64(*round);
                w.u64(*value_count);
                w.byte_list(ciphertexts)?;
            }
            Msg::Aggregated { round, fragment } => {
                w.u8(TAG_AGGREGATED);
                w.u64(*round);
                w.f32s(fragment)?;
            }
            Msg::AggregatedEncrypted {
                round,
                ciphertexts,
                value_count,
                summands,
            } => {
                w.u8(TAG_AGGREGATED_ENC);
                w.u64(*round);
                w.u64(*value_count);
                w.u64(*summands);
                w.byte_list(ciphertexts)?;
            }
            Msg::SyncRound { round, training_id } => {
                w.u8(TAG_SYNC_ROUND);
                w.u64(*round);
                w.raw(training_id);
            }
            Msg::SyncDone { round } => {
                w.u8(TAG_SYNC_DONE);
                w.u64(*round);
            }
        }
        Ok(w.into_bytes())
    }

    /// Parses a message.
    pub fn decode(buf: &[u8]) -> Result<Msg, DecodeError> {
        let mut r = Reader::new(buf);
        let tag = r.u8()?;
        let msg = match tag {
            TAG_HELLO => Msg::Hello {
                handshake: r.bytes()?,
            },
            TAG_HELLO_REPLY => Msg::HelloReply {
                handshake: r.bytes()?,
            },
            TAG_RECORD => Msg::Record { sealed: r.bytes()? },
            TAG_REGISTER => Msg::Register {
                party: r.string()?,
                weight: r.f32()?,
            },
            TAG_REGISTER_ACK => Msg::RegisterAck,
            TAG_ROUND_START => Msg::RoundStart {
                round: r.u64()?,
                training_id: r.array()?,
            },
            TAG_UPLOAD => Msg::Upload {
                round: r.u64()?,
                fragment: r.f32s()?,
            },
            TAG_UPLOAD_ENC => Msg::UploadEncrypted {
                round: r.u64()?,
                value_count: r.u64()?,
                ciphertexts: r.byte_list()?,
            },
            TAG_AGGREGATED => Msg::Aggregated {
                round: r.u64()?,
                fragment: r.f32s()?,
            },
            TAG_AGGREGATED_ENC => Msg::AggregatedEncrypted {
                round: r.u64()?,
                value_count: r.u64()?,
                summands: r.u64()?,
                ciphertexts: r.byte_list()?,
            },
            TAG_SYNC_ROUND => Msg::SyncRound {
                round: r.u64()?,
                training_id: r.array()?,
            },
            TAG_SYNC_DONE => Msg::SyncDone { round: r.u64()? },
            _ => return Err(DecodeError),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Msg) {
        let bytes = msg.encode().unwrap();
        assert_eq!(Msg::decode(&bytes), Ok(msg));
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Msg::Hello {
            handshake: vec![1, 2, 3],
        });
        roundtrip(Msg::HelloReply {
            handshake: vec![4, 5],
        });
        roundtrip(Msg::Record {
            sealed: vec![0xde, 0xad],
        });
        roundtrip(Msg::Register {
            party: "P1".to_string(),
            weight: 1.5,
        });
        roundtrip(Msg::RegisterAck);
        roundtrip(Msg::RoundStart {
            round: 7,
            training_id: [9u8; 16],
        });
        roundtrip(Msg::Upload {
            round: 7,
            fragment: vec![1.0, -2.5, 3.75],
        });
        roundtrip(Msg::UploadEncrypted {
            round: 2,
            ciphertexts: vec![vec![1, 2], vec![], vec![3]],
            value_count: 40,
        });
        roundtrip(Msg::Aggregated {
            round: 7,
            fragment: vec![],
        });
        roundtrip(Msg::AggregatedEncrypted {
            round: 3,
            ciphertexts: vec![vec![0xff; 64]],
            value_count: 16,
            summands: 4,
        });
        roundtrip(Msg::SyncRound {
            round: 1,
            training_id: [0u8; 16],
        });
        roundtrip(Msg::SyncDone { round: 1 });
    }

    #[test]
    fn empty_buffer_rejected() {
        assert_eq!(Msg::decode(&[]), Err(DecodeError));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(Msg::decode(&[0xAA]), Err(DecodeError));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = Msg::Upload {
            round: 1,
            fragment: vec![1.0, 2.0],
        }
        .encode()
        .unwrap();
        for cut in 1..bytes.len() {
            assert_eq!(Msg::decode(&bytes[..cut]), Err(DecodeError), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Msg::RegisterAck.encode().unwrap();
        bytes.push(0);
        assert_eq!(Msg::decode(&bytes), Err(DecodeError));
    }

    #[test]
    fn bogus_length_rejected() {
        // Claim a huge f32 vector without the data.
        let mut bytes = vec![TAG_UPLOAD];
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(Msg::decode(&bytes), Err(DecodeError));
    }

    #[test]
    fn non_utf8_party_rejected() {
        let mut bytes = vec![TAG_REGISTER];
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        bytes.extend_from_slice(&1.0f32.to_le_bytes());
        assert_eq!(Msg::decode(&bytes), Err(DecodeError));
    }

    #[test]
    fn fragment_precision_preserved() {
        let fragment: Vec<f32> = (0..100).map(|i| (i as f32).exp().recip()).collect();
        let msg = Msg::Upload {
            round: 1,
            fragment: fragment.clone(),
        };
        match Msg::decode(&msg.encode().unwrap()).unwrap() {
            Msg::Upload { fragment: f, .. } => assert_eq!(f, fragment),
            _ => panic!("wrong variant"),
        }
    }
}
