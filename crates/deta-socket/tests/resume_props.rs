//! Property tests for the resume/resync protocol's sequencing core:
//! a [`SeqTracker`]-numbered sender with the bridge's bounded
//! [`RetransmitBuffer`] against a [`ReplayWindow`] receiver, across
//! randomly placed link outages and adversarial retransmit
//! interleavings.
//!
//! The properties mirror the wire contract `Resume`/`ResumeAck`
//! implement: after any number of crashes and resumes, the receiver
//! delivers every link's payloads **exactly once, in order** (the
//! sequence of accepted seqs is exactly `0..n`); a rejected frame
//! never advances the window — a replay cannot burn a live sequence
//! number; and a resume that needs an evicted frame fails loudly with
//! [`SocketError::Resync`] instead of skipping it.

use deta_proptest::{cases, Gen};
use deta_socket::{ReplayWindow, RetransmitBuffer, SeqTracker, SocketError, SocketFrame};
use std::collections::BTreeMap;

const SRC: &str = "party-0";
const DST: &str = "agg-0";

/// The receiver's resume claim for the modelled link: the next seq it
/// will accept, exactly what a `Resume`/`ResumeAck` window entry says.
fn claimed_next(window: &ReplayWindow) -> u64 {
    window
        .snapshot_from(SRC)
        .into_iter()
        .find(|(_, d, _)| d == DST)
        .map(|(_, _, n)| n)
        .unwrap_or(0)
}

/// The receiver's window as the claims a resume hands the sender.
fn claims(window: &ReplayWindow) -> BTreeMap<(String, String), u64> {
    window
        .snapshot()
        .into_iter()
        .map(|(s, d, n)| ((s, d), n))
        .collect()
}

/// A stamped `Data` frame on the modelled link.
fn frame(seq: u64, payload: Vec<u8>) -> SocketFrame {
    SocketFrame::Data {
        src: SRC.to_string(),
        dst: DST.to_string(),
        seq,
        payload,
    }
}

fn seq_of(frame: &SocketFrame) -> u64 {
    match frame {
        SocketFrame::Data { seq, .. } => *seq,
        other => panic!("only Data frames are buffered here, got {other:?}"),
    }
}

#[test]
fn resync_after_outages_delivers_exactly_once_in_order() {
    cases("socket/resume-exactly-once", 300, |g: &mut Gen| {
        let total = g.usize_in(1, 48);
        let mut tracker = SeqTracker::new();
        // The sender's unacknowledged-frame buffer, resumed against the
        // receiver's claims exactly as a `ResumeAck` drives it.
        let mut buffer = RetransmitBuffer::new();
        let mut window = ReplayWindow::new();
        let mut delivered: Vec<u64> = Vec::new();
        let mut produced = 0usize;
        // Each epoch: produce and send some frames, then crash — the
        // link loses an arbitrary *suffix* of the in-flight frames
        // (TCP delivers a prefix) — then resume from the receiver's
        // claimed window.
        while produced < total || !buffer.is_empty() {
            // Produce a batch of fresh frames into the buffer (at least
            // one while any remain, so every epoch makes progress).
            if produced < total {
                let fresh = g.usize_in(1, total - produced + 1);
                for _ in 0..fresh {
                    let sent_live = g.bool();
                    buffer.push(frame(tracker.next(SRC, DST), vec![0; 8]), sent_live);
                }
                produced += fresh;
            }
            // Resume first: prune the buffer to what the receiver never
            // delivered, then retransmit. An adversarial sender may also
            // replay from before the claim; the window must shrug it off.
            let next = claimed_next(&window);
            let backlog = buffer.resume(&claims(&window)).expect("nothing evicted");
            let mut in_flight: Vec<u64> = backlog.iter().map(seq_of).collect();
            assert!(
                in_flight.iter().all(|&seq| seq >= next),
                "a resume must not retransmit what the receiver claims"
            );
            if g.bool() && next > 0 {
                // Stale retransmit start: re-send already-delivered seqs.
                let back = g.u64_in(1, next + 1);
                let mut stale: Vec<u64> = (next - back..next).collect();
                stale.extend(in_flight);
                in_flight = stale;
            }
            // The crash truncates delivery to a prefix of the flight.
            let got = g.usize_in(0, in_flight.len() + 1);
            for &seq in &in_flight[..got] {
                if window.accept(SRC, DST, seq).is_ok() {
                    delivered.push(seq);
                }
            }
            // Everything the receiver acknowledged leaves the buffer.
            buffer.resume(&claims(&window)).expect("nothing evicted");
        }
        let expect: Vec<u64> = (0..total as u64).collect();
        assert_eq!(
            delivered, expect,
            "resync must deliver every seq exactly once, in order"
        );
    });
}

#[test]
fn rejected_frames_never_advance_the_window() {
    cases("socket/resume-reject-frozen", 300, |g: &mut Gen| {
        let mut window = ReplayWindow::new();
        let steps = g.usize_in(1, 40);
        let mut next = 0u64;
        for _ in 0..steps {
            // Mostly honest traffic, salted with replays and futures.
            let seq = match g.usize_in(0, 4) {
                0 if next > 0 => g.u64_in(0, next), // replay
                1 => next + 1 + g.u64_in(0, 16),    // future (gap)
                _ => next,                          // in order
            };
            match window.accept(SRC, DST, seq) {
                Ok(()) => {
                    assert_eq!(seq, next, "only the expected seq may be accepted");
                    next += 1;
                }
                Err(v) => {
                    assert_eq!(v.seq, seq);
                    assert_eq!(v.expected, next, "the violation must name the live seq");
                    // A reject may materialize the link's implicit-zero
                    // entry, but its claimed next never moves.
                    assert_eq!(
                        claimed_next(&window),
                        next,
                        "a rejected frame must not advance the window"
                    );
                }
            }
        }
        assert_eq!(claimed_next(&window), next);
    });
}

#[test]
fn snapshot_claims_are_exactly_resumable() {
    cases("socket/resume-snapshot-claims", 200, |g: &mut Gen| {
        // Several links advance independently; the snapshot must claim
        // exactly the point each link resumes from: the claimed seq is
        // accepted, the one before it is a replay.
        let links = g.vec_of(1, 5, |g| {
            (
                format!("party-{}", g.usize_in(0, 4)),
                format!("agg-{}", g.usize_in(0, 2)),
            )
        });
        let mut window = ReplayWindow::new();
        for (src, dst) in &links {
            let n = g.u64_in(0, 12);
            let base = claimed_next_for(&window, src, dst);
            for seq in base..base + n {
                window.accept(src, dst, seq).expect("in-order accept");
            }
        }
        for (src, dst, next) in window.snapshot() {
            if next > 0 {
                let v = window
                    .accept(&src, &dst, next - 1)
                    .expect_err("the claim's predecessor is a replay");
                assert_eq!(v.expected, next);
            }
            window
                .accept(&src, &dst, next)
                .expect("the claimed seq must be exactly resumable");
        }
    });
}

fn claimed_next_for(window: &ReplayWindow, src: &str, dst: &str) -> u64 {
    window
        .snapshot_from(src)
        .into_iter()
        .find(|(_, d, _)| d == dst)
        .map(|(_, _, n)| n)
        .unwrap_or(0)
}

#[test]
fn resume_past_an_evicted_floor_is_a_resync_never_a_gap() {
    cases("socket/resume-evicted-floor", 40, |g: &mut Gen| {
        let mut tracker = SeqTracker::new();
        let mut buffer = RetransmitBuffer::new();
        // Overflow one cap or the other: the frame cap with empty
        // payloads, or the byte cap with large ones.
        let (count, payload) = if g.bool() {
            let over = g.usize_in(1, 64);
            (RetransmitBuffer::MAX_FRAMES + over, 0)
        } else {
            let size = RetransmitBuffer::MAX_BYTES / g.usize_in(2, 9);
            (RetransmitBuffer::MAX_BYTES / size + g.usize_in(1, 4), size)
        };
        for _ in 0..count {
            buffer.push(frame(tracker.next(SRC, DST), vec![0; payload]), false);
        }
        assert!(buffer.len() < count, "the caps must have evicted something");
        let floor = (count - buffer.len()) as u64;
        // A receiver that delivered fewer frames than the floor needs an
        // evicted one: the resume must fail and keep the buffer intact.
        let wanted = g.u64_in(0, floor);
        let mut receiver = ReplayWindow::new();
        for seq in 0..wanted {
            receiver.accept(SRC, DST, seq).expect("in order");
        }
        let retained = buffer.len();
        match buffer.resume(&claims(&receiver)) {
            Err(SocketError::Resync {
                link,
                wanted: w,
                oldest,
            }) => {
                assert_eq!(link, format!("{SRC}->{DST}"));
                assert_eq!((w, oldest), (wanted, floor));
            }
            other => panic!("a resume past the floor must be a Resync, got {other:?}"),
        }
        assert_eq!(buffer.len(), retained, "a refused resume must not prune");
        // A receiver at or past the floor resumes gaplessly: the backlog
        // starts exactly at its claim.
        for seq in wanted..floor + g.u64_in(0, 4) {
            receiver.accept(SRC, DST, seq).expect("in order");
        }
        let next = claimed_next(&receiver);
        let backlog = buffer
            .resume(&claims(&receiver))
            .expect("at or past the floor");
        let seqs: Vec<u64> = backlog.iter().map(seq_of).collect();
        assert_eq!(seqs, (next..count as u64).collect::<Vec<u64>>());
    });
}
