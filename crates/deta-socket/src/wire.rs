//! Inner wire protocol: the frames carried inside the secure channel,
//! plus the per-link sequencing that makes replay and reorder
//! detectable above the record layer.
//!
//! The secure channel already binds each record to a send counter (the
//! nonce), so a byte-identical replay fails decryption. The explicit
//! `seq` on [`SocketFrame::Data`] defends one layer up: an
//! authenticated peer re-sending a *re-sealed* copy of an old logical
//! frame, or delivering frames out of order, is caught by the strict
//! per-link window and rejected with an error naming the link.
//!
//! Frames are encoded with the workspace's one byte codec,
//! [`deta_transport::wire`]; endpoint names carry a `u16` length prefix.

use deta_transport::wire::{DecodeError, EncodeError, Reader, Writer};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// One logical message between bridge endpoints. `Data` carries
/// simulator traffic; the rest are bridge control frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketFrame {
    /// A relayed network message: `src`'s payload for `dst`, the
    /// `seq`-th frame on the (src, dst) link.
    Data {
        /// Originating endpoint name.
        src: String,
        /// Destination endpoint name.
        dst: String,
        /// Strictly increasing per-(src, dst) counter, from 0.
        seq: u64,
        /// The simulator payload, verbatim.
        payload: Vec<u8>,
    },
    /// The named endpoint's mailbox closed; the receiver must propagate
    /// the closure to its local network replica.
    Close {
        /// Endpoint whose mailbox closed.
        name: String,
    },
    /// Hub → peer: prove control of your node's key by signing this.
    Challenge {
        /// Fresh challenge bytes.
        nonce: [u8; 32],
    },
    /// Peer → hub: `sig` over the auth transcript, claiming `name`.
    AuthProof {
        /// The node name the peer claims to host.
        name: String,
        /// Signature bytes (64), verified against the node's key.
        sig: Vec<u8>,
    },
    /// Hub → peer: authentication accepted, the link is live.
    Welcome,
    /// Orderly end of stream; the sender will write nothing further.
    Bye,
    /// Hub → peer, immediately after `Welcome`: clock-alignment probe
    /// carrying the hub's monotonic send timestamp. The peer must
    /// answer with [`SocketFrame::ClockEcho`] before any other frame.
    ClockProbe {
        /// Hub monotonic nanoseconds at probe send time.
        t_hub_ns: u64,
    },
    /// Peer → hub: clock-alignment echo. The hub estimates the peer's
    /// clock offset as `t_peer_ns - (t_send + t_recv) / 2` (midpoint of
    /// the round trip), which the trace merger uses to map the child's
    /// monotonic timestamps onto the coordinator's timeline.
    ClockEcho {
        /// The probe's `t_hub_ns`, echoed back verbatim.
        t_hub_ns: u64,
        /// Peer monotonic nanoseconds when the probe was handled.
        t_peer_ns: u64,
    },
    /// Peer → hub, just before `Bye`: the peer's drained flight-recorder
    /// ring as rendered JSONL, so the coordinator can merge every
    /// process's spans into one causal trace. Carries only the already
    /// secret-free telemetry schema — sealed payloads never appear in a
    /// ring (lint rule 6).
    TraceShip {
        /// The node whose ring this is.
        name: String,
        /// Records evicted by ring overflow before the drain.
        dropped: u64,
        /// UTF-8 JSONL, one record per line (schema v2).
        jsonl: Vec<u8>,
    },
    /// Peer → hub, immediately after the clock echo: the reconnecting
    /// peer's delivered-so-far state, one entry per (src, dst) link its
    /// ingress window has seen. `next` is the count of frames delivered
    /// in order — i.e. the next `seq` the peer will accept. Empty on a
    /// first connection.
    Resume {
        /// The node name the peer hosts (must match the auth name).
        src: String,
        /// (link src, link dst, next expected seq) per known link.
        windows: Vec<(String, String, u64)>,
    },
    /// Hub → peer: the hub's own delivered-so-far state for links
    /// originating at the peer, so the peer can prune its retransmit
    /// buffer to frames the hub never delivered. Sent before any
    /// retransmitted `Data`.
    ResumeAck {
        /// (link src, link dst, next expected seq) per known link.
        windows: Vec<(String, String, u64)>,
    },
}

/// Domain separator for auth-proof signatures, so a signature produced
/// here can never be confused with a protocol-layer signature.
pub const AUTH_DOMAIN: &[u8] = b"deta-socket-auth-v1";

static RETRANSMIT_ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

/// Bench-only toggle: with buffering off, frames are forwarded but not
/// retained, so a resume after an outage cannot replay them. Used to
/// measure the fault-free overhead of the retransmit buffer; never
/// disable it in a deployment that expects link churn.
pub fn set_retransmit_buffering(on: bool) {
    RETRANSMIT_ENABLED.store(on, std::sync::atomic::Ordering::Relaxed);
}

fn retransmit_enabled() -> bool {
    RETRANSMIT_ENABLED.load(std::sync::atomic::Ordering::Relaxed)
}

/// The message an [`SocketFrame::AuthProof`] signature covers.
pub fn auth_transcript(nonce: &[u8; 32], name: &str) -> Vec<u8> {
    let mut msg = Vec::with_capacity(AUTH_DOMAIN.len() + 32 + name.len());
    msg.extend_from_slice(AUTH_DOMAIN);
    msg.extend_from_slice(nonce);
    msg.extend_from_slice(name.as_bytes());
    msg
}

const TAG_DATA: u8 = 1;
const TAG_CLOSE: u8 = 2;
const TAG_CHALLENGE: u8 = 3;
const TAG_AUTH_PROOF: u8 = 4;
const TAG_WELCOME: u8 = 5;
const TAG_BYE: u8 = 6;
const TAG_CLOCK_PROBE: u8 = 7;
const TAG_CLOCK_ECHO: u8 = 8;
const TAG_TRACE_SHIP: u8 = 9;
const TAG_RESUME: u8 = 10;
const TAG_RESUME_ACK: u8 = 11;

fn put_windows(w: &mut Writer, windows: &[(String, String, u64)]) -> Result<(), EncodeError> {
    w.count(windows.len())?;
    for (src, dst, next) in windows {
        w.name(src)?;
        w.name(dst)?;
        w.u64(*next);
    }
    Ok(())
}

fn read_windows(r: &mut Reader<'_>) -> Result<Vec<(String, String, u64)>, DecodeError> {
    // Each entry consumes at least 12 bytes (two length prefixes plus
    // the counter).
    (0..r.count(12)?)
        .map(|_| Ok((r.name()?, r.name()?, r.u64()?)))
        .collect()
}

impl SocketFrame {
    /// Serializes the frame (the secure channel seals the result).
    ///
    /// A field too long for its prefix — an endpoint name of 64 KiB or
    /// more, a payload of 4 GiB or more; neither exists, since names are
    /// roster entries and frames are capped at `MAX_FRAME` — yields an
    /// empty buffer, which [`SocketFrame::decode`] rejects, rather than
    /// a truncated frame that would decode as a different one.
    pub fn encode(&self) -> Vec<u8> {
        self.try_encode().unwrap_or_default()
    }

    fn try_encode(&self) -> Result<Vec<u8>, EncodeError> {
        let mut w = Writer::new();
        match self {
            SocketFrame::Data {
                src,
                dst,
                seq,
                payload,
            } => {
                w.u8(TAG_DATA);
                w.name(src)?;
                w.name(dst)?;
                w.u64(*seq);
                w.bytes(payload)?;
            }
            SocketFrame::Close { name } => {
                w.u8(TAG_CLOSE);
                w.name(name)?;
            }
            SocketFrame::Challenge { nonce } => {
                w.u8(TAG_CHALLENGE);
                w.raw(nonce);
            }
            SocketFrame::AuthProof { name, sig } => {
                w.u8(TAG_AUTH_PROOF);
                w.name(name)?;
                w.bytes(sig)?;
            }
            SocketFrame::Welcome => w.u8(TAG_WELCOME),
            SocketFrame::Bye => w.u8(TAG_BYE),
            SocketFrame::ClockProbe { t_hub_ns } => {
                w.u8(TAG_CLOCK_PROBE);
                w.u64(*t_hub_ns);
            }
            SocketFrame::ClockEcho {
                t_hub_ns,
                t_peer_ns,
            } => {
                w.u8(TAG_CLOCK_ECHO);
                w.u64(*t_hub_ns);
                w.u64(*t_peer_ns);
            }
            SocketFrame::TraceShip {
                name,
                dropped,
                jsonl,
            } => {
                w.u8(TAG_TRACE_SHIP);
                w.name(name)?;
                w.u64(*dropped);
                w.bytes(jsonl)?;
            }
            SocketFrame::Resume { src, windows } => {
                w.u8(TAG_RESUME);
                w.name(src)?;
                put_windows(&mut w, windows)?;
            }
            SocketFrame::ResumeAck { windows } => {
                w.u8(TAG_RESUME_ACK);
                put_windows(&mut w, windows)?;
            }
        }
        Ok(w.into_bytes())
    }

    /// Parses a frame; `None` on any malformed input (truncated,
    /// trailing bytes, unknown tag, invalid UTF-8). Total — never
    /// panics.
    pub fn decode(buf: &[u8]) -> Option<SocketFrame> {
        Self::try_decode(buf).ok()
    }

    fn try_decode(buf: &[u8]) -> Result<SocketFrame, DecodeError> {
        let mut r = Reader::new(buf);
        let frame = match r.u8()? {
            TAG_DATA => SocketFrame::Data {
                src: r.name()?,
                dst: r.name()?,
                seq: r.u64()?,
                payload: r.bytes()?,
            },
            TAG_CLOSE => SocketFrame::Close { name: r.name()? },
            TAG_CHALLENGE => SocketFrame::Challenge { nonce: r.array()? },
            TAG_AUTH_PROOF => SocketFrame::AuthProof {
                name: r.name()?,
                sig: r.bytes()?,
            },
            TAG_WELCOME => SocketFrame::Welcome,
            TAG_BYE => SocketFrame::Bye,
            TAG_CLOCK_PROBE => SocketFrame::ClockProbe { t_hub_ns: r.u64()? },
            TAG_CLOCK_ECHO => SocketFrame::ClockEcho {
                t_hub_ns: r.u64()?,
                t_peer_ns: r.u64()?,
            },
            TAG_TRACE_SHIP => SocketFrame::TraceShip {
                name: r.name()?,
                dropped: r.u64()?,
                jsonl: r.bytes()?,
            },
            TAG_RESUME => SocketFrame::Resume {
                src: r.name()?,
                windows: read_windows(&mut r)?,
            },
            TAG_RESUME_ACK => SocketFrame::ResumeAck {
                windows: read_windows(&mut r)?,
            },
            _ => return Err(DecodeError),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Sender-side per-link counters: the next `seq` to stamp on a
/// (src, dst) link.
#[derive(Debug, Default)]
pub struct SeqTracker {
    next: BTreeMap<(String, String), u64>,
}

impl SeqTracker {
    /// An empty tracker (every link starts at 0).
    pub fn new() -> SeqTracker {
        SeqTracker::default()
    }

    /// Returns the sequence number for the next frame on (src, dst) and
    /// advances the counter.
    pub fn next(&mut self, src: &str, dst: &str) -> u64 {
        let entry = self
            .next
            .entry((src.to_string(), dst.to_string()))
            .or_insert(0);
        let seq = *entry;
        *entry += 1;
        seq
    }
}

/// A strict-ordering violation on one link: the frame's `seq` did not
/// match the expected next value (a replay when low, a reorder or gap
/// when high).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqViolation {
    /// The sequence number the offending frame carried.
    pub seq: u64,
    /// The sequence number the window required.
    pub expected: u64,
}

impl fmt::Display for SeqViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "got seq {} but expected {}", self.seq, self.expected)
    }
}

/// Receiver-side replay/reorder window. The policy is strict in-order
/// delivery per link: TCP already guarantees ordered bytes, so the only
/// way a link's `seq` can deviate from 0, 1, 2, … is a peer replaying,
/// reordering, or dropping logical frames above the transport — all of
/// which must kill the link, not be smoothed over.
#[derive(Debug, Default)]
pub struct ReplayWindow {
    next: BTreeMap<(String, String), u64>,
}

impl ReplayWindow {
    /// An empty window (every link expects seq 0 first).
    pub fn new() -> ReplayWindow {
        ReplayWindow::default()
    }

    /// Accepts the frame if `seq` is exactly the next expected value on
    /// (src, dst), advancing the window.
    ///
    /// # Errors
    ///
    /// [`SeqViolation`] with the expected value on any deviation; the
    /// window does not advance.
    pub fn accept(&mut self, src: &str, dst: &str, seq: u64) -> Result<(), SeqViolation> {
        let entry = self
            .next
            .entry((src.to_string(), dst.to_string()))
            .or_insert(0);
        if seq != *entry {
            return Err(SeqViolation {
                seq,
                expected: *entry,
            });
        }
        *entry += 1;
        Ok(())
    }

    /// [`ReplayWindow::accept`] with full attribution: a violation comes
    /// back as the structured [`SocketError::Replay`] naming the
    /// offending link as `src->dst` — the exact error the hub reports,
    /// so every reject is attributable by construction.
    ///
    /// # Errors
    ///
    /// [`SocketError::Replay`] on any sequence deviation; the window
    /// does not advance.
    ///
    /// [`SocketError::Replay`]: crate::SocketError::Replay
    pub fn accept_named(
        &mut self,
        src: &str,
        dst: &str,
        seq: u64,
    ) -> Result<(), crate::SocketError> {
        self.accept(src, dst, seq)
            .map_err(|v| crate::SocketError::Replay {
                link: format!("{src}->{dst}"),
                seq: v.seq,
                expected: v.expected,
            })
    }

    /// Every (src, dst, next expected seq) entry the window has seen —
    /// the payload of a [`SocketFrame::Resume`]. Deterministic order
    /// (the window is a `BTreeMap`).
    pub fn snapshot(&self) -> Vec<(String, String, u64)> {
        self.next
            .iter()
            .map(|((s, d), n)| (s.clone(), d.clone(), *n))
            .collect()
    }

    /// [`ReplayWindow::snapshot`] restricted to links originating at
    /// `src` — the payload of a [`SocketFrame::ResumeAck`], which must
    /// only disclose state about the reconnecting peer's own traffic.
    pub fn snapshot_from(&self, src: &str) -> Vec<(String, String, u64)> {
        self.next
            .iter()
            .filter(|((s, _), _)| s == src)
            .map(|((s, d), n)| (s.clone(), d.clone(), *n))
            .collect()
    }
}

/// The bounded retransmit buffer each bridge end keeps per link: every
/// stamped frame not yet known to be delivered, oldest first. Both ends
/// (the hub per seat, the node for its one link) use it unchanged, so
/// their eviction and resume rules cannot drift apart.
///
/// Past either cap ([`RetransmitBuffer::MAX_FRAMES`],
/// [`RetransmitBuffer::MAX_BYTES`]) the oldest frames are evicted and
/// that link's *floor* — the oldest seq still retransmittable —
/// advances, so a later resume needing an evicted frame fails with a
/// structured [`SocketError::Resync`] instead of a silent gap.
///
/// [`SocketError::Resync`]: crate::SocketError::Resync
#[derive(Debug, Default)]
pub struct RetransmitBuffer {
    frames: VecDeque<SocketFrame>,
    /// Total buffered payload bytes (the byte-cap accounting).
    bytes: usize,
    /// Per-(src, dst) seq of the oldest retransmittable frame; an entry
    /// appears only once eviction has discarded something on the link.
    floor: BTreeMap<(String, String), u64>,
}

impl RetransmitBuffer {
    /// Cap in frames.
    pub const MAX_FRAMES: usize = 1024;

    /// Cap in buffered payload bytes. The byte cap is the one that
    /// matters for model uploads: a count-only bound would happily pin
    /// hundreds of megabytes per seat.
    pub const MAX_BYTES: usize = 8 * 1024 * 1024;

    /// An empty buffer.
    pub fn new() -> RetransmitBuffer {
        RetransmitBuffer::default()
    }

    /// Retains a stamped frame, evicting from the front past either
    /// cap. `sent_live` says whether a live link took the frame: with
    /// buffering switched off ([`set_retransmit_buffering`]) such a
    /// frame is not retained, while frames sent before a link exists
    /// still are — that is first-connect delivery, not crash recovery.
    pub fn push(&mut self, frame: SocketFrame, sent_live: bool) {
        if sent_live && !retransmit_enabled() {
            return;
        }
        self.bytes += frame_bytes(&frame);
        self.frames.push_back(frame);
        while self.frames.len() > Self::MAX_FRAMES || self.bytes > Self::MAX_BYTES {
            let Some(old) = self.frames.pop_front() else {
                break;
            };
            self.bytes = self.bytes.saturating_sub(frame_bytes(&old));
            if let SocketFrame::Data { src, dst, seq, .. } = old {
                self.floor.insert((src, dst), seq + 1);
            }
        }
    }

    /// Resumes against the peer's claimed delivered state (the next seq
    /// it expects per link; absent links claim 0): drops every frame
    /// the peer already has and returns the rest, oldest first, for
    /// retransmission. With buffering switched off the returned frames
    /// are no longer retained.
    ///
    /// # Errors
    ///
    /// [`SocketError::Resync`] when the peer needs a frame that was
    /// already evicted; the buffer is left unchanged and the link must
    /// be retired, not resumed.
    ///
    /// [`SocketError::Resync`]: crate::SocketError::Resync
    pub fn resume(
        &mut self,
        claims: &BTreeMap<(String, String), u64>,
    ) -> Result<Vec<SocketFrame>, crate::SocketError> {
        let claimed = |src: &String, dst: &String| {
            claims
                .get(&(src.clone(), dst.clone()))
                .copied()
                .unwrap_or(0)
        };
        for ((src, dst), &oldest) in &self.floor {
            let wanted = claimed(src, dst);
            if wanted < oldest {
                return Err(crate::SocketError::Resync {
                    link: format!("{src}->{dst}"),
                    wanted,
                    oldest,
                });
            }
        }
        self.frames.retain(|f| match f {
            SocketFrame::Data { src, dst, seq, .. } => *seq >= claimed(src, dst),
            _ => true,
        });
        if retransmit_enabled() {
            self.bytes = self.frames.iter().map(frame_bytes).sum();
            Ok(self.frames.iter().cloned().collect())
        } else {
            self.bytes = 0;
            Ok(self.frames.drain(..).collect())
        }
    }

    /// Frames currently retained.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no frame is retained.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

fn frame_bytes(frame: &SocketFrame) -> usize {
    match frame {
        SocketFrame::Data { payload, .. } => payload.len(),
        _ => 0,
    }
}
