//! Multi-threaded stress tests for the simulated network: the runtime
//! deploys parties and aggregators as concurrent threads, so the queue
//! layer must preserve per-pair FIFO ordering and lose nothing under
//! contention.

use deta_transport::{Network, RecvError};
use std::collections::HashMap;
use std::time::Duration;

const SENDERS: usize = 8;
const RECEIVERS: usize = 4;
const MSGS_PER_PAIR: u32 = 250;

/// Payload layout: [sender idx, receiver idx, seq (le u32)].
fn encode(s: usize, r: usize, seq: u32) -> Vec<u8> {
    let mut p = vec![s as u8, r as u8];
    p.extend_from_slice(&seq.to_le_bytes());
    p
}

fn decode(p: &[u8]) -> (usize, usize, u32) {
    let mut seq = [0u8; 4];
    seq.copy_from_slice(&p[2..6]);
    (p[0] as usize, p[1] as usize, u32::from_le_bytes(seq))
}

#[test]
fn concurrent_fanout_is_fifo_per_pair_with_no_loss_or_duplication() {
    let net = Network::new();
    let receivers: Vec<_> = (0..RECEIVERS)
        .map(|r| net.register(&format!("rx-{r}")))
        .collect();

    // 8 sender threads, each fanning out to every receiver.
    let senders: Vec<_> = (0..SENDERS)
        .map(|s| {
            let net = net.clone();
            std::thread::spawn(move || {
                let ep = net.register(&format!("tx-{s}"));
                for seq in 0..MSGS_PER_PAIR {
                    for r in 0..RECEIVERS {
                        ep.send(&format!("rx-{r}"), encode(s, r, seq)).unwrap();
                    }
                }
            })
        })
        .collect();

    // 4 receiver threads blocking on their endpoints.
    let consumers: Vec<_> = receivers
        .into_iter()
        .enumerate()
        .map(|(r, ep)| {
            std::thread::spawn(move || {
                let expected = SENDERS as u32 * MSGS_PER_PAIR;
                let mut next_seq: HashMap<usize, u32> = HashMap::new();
                let mut got = 0u32;
                while got < expected {
                    let msg = ep
                        .recv_timeout(Duration::from_secs(30))
                        .expect("stress receiver starved");
                    let (s, to, seq) = decode(&msg.payload);
                    assert_eq!(&*msg.from, format!("tx-{s}"), "sender identity mismatch");
                    assert_eq!(to, r, "message routed to the wrong receiver");
                    // Strict per-(sender, receiver) FIFO: every sequence
                    // number arrives exactly once, in order.
                    let want = next_seq.entry(s).or_insert(0);
                    assert_eq!(seq, *want, "rx-{r} saw tx-{s} out of order");
                    *want += 1;
                    got += 1;
                }
                // Nothing extra left over.
                assert!(ep.recv().is_none(), "rx-{r} received surplus messages");
                for (s, n) in next_seq {
                    assert_eq!(n, MSGS_PER_PAIR, "rx-{r} lost messages from tx-{s}");
                }
            })
        })
        .collect();

    for h in senders {
        h.join().unwrap();
    }
    for h in consumers {
        h.join().unwrap();
    }

    // Every directed link carried exactly its pair's messages.
    let links = net.link_bytes();
    let per_link = MSGS_PER_PAIR as u64 * encode(0, 0, 0).len() as u64;
    assert_eq!(
        links.len(),
        SENDERS * RECEIVERS,
        "link counters lost a link"
    );
    for (link, bytes) in links {
        assert_eq!(bytes, per_link, "link counter {link:?} lost track of sends");
    }
}

#[test]
fn close_unblocks_a_contended_receiver_exactly_once_drained() {
    let net = Network::new();
    let rx = net.register("rx");
    // Several writers race a closer.
    let writers: Vec<_> = (0..4)
        .map(|s| {
            let net = net.clone();
            std::thread::spawn(move || {
                let ep = net.register(&format!("w-{s}"));
                let mut sent = 0u32;
                for seq in 0..100u32 {
                    if ep.send("rx", encode(s, 0, seq)).is_err() {
                        break; // Closed underneath us: expected.
                    }
                    sent += 1;
                }
                sent
            })
        })
        .collect();
    let closer = {
        let net = net.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            net.close("rx");
        })
    };

    // Drain until Closed; everything successfully sent must be seen.
    let mut seen = 0u64;
    loop {
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(_) => seen += 1,
            Err(RecvError::Closed) => break,
            Err(RecvError::Timeout) => panic!("receiver starved despite close"),
        }
    }
    closer.join().unwrap();
    let sent: u32 = writers.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(seen, sent as u64, "messages lost between send and close");
}
