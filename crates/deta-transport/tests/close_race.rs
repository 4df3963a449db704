//! `Network::close` racing concurrent senders and blocked receivers.
//!
//! The supervisor shuts a deployment down by closing mailboxes while
//! node threads are mid-send and mid-receive. Two properties must hold:
//!
//! * every thread blocked in `recv_timeout` wakes with `Closed` (no
//!   thread is left sleeping out its full timeout), and
//! * no message is silently dropped at the close boundary: a send either
//!   returns `Ok` and the message is delivered (observable in the tap
//!   log and receivable until the queue drains), or it returns
//!   `Err(Closed)` and nothing was enqueued. There is no third outcome.

use deta_transport::{Message, NetError, NetTap, Network, RecvError};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Records every delivery and drop, keyed by destination.
#[derive(Default)]
struct TapLog {
    delivered: Mutex<Vec<(String, String, Vec<u8>)>>,
    dropped: Mutex<Vec<(String, String, Vec<u8>)>>,
}

impl NetTap for TapLog {
    fn on_deliver(&self, from: &str, to: &str, payload: &[u8]) {
        self.delivered
            .lock()
            .unwrap()
            .push((from.into(), to.into(), payload.to_vec()));
    }
    fn on_drop(&self, from: &str, to: &str, payload: &[u8]) {
        self.dropped
            .lock()
            .unwrap()
            .push((from.into(), to.into(), payload.to_vec()));
    }
}

fn multiset(payloads: impl IntoIterator<Item = Vec<u8>>) -> BTreeMap<Vec<u8>, usize> {
    let mut m = BTreeMap::new();
    for p in payloads {
        *m.entry(p).or_insert(0) += 1;
    }
    m
}

#[test]
fn close_wakes_every_blocked_receiver() {
    let net = Network::new();
    let receivers: Vec<_> = (0..8).map(|i| net.register(&format!("r{i}"))).collect();
    let handles: Vec<_> = receivers
        .into_iter()
        .map(|ep| {
            thread::spawn(move || {
                let t0 = Instant::now();
                let r = ep.recv_timeout(Duration::from_secs(30));
                (r, t0.elapsed())
            })
        })
        .collect();
    thread::sleep(Duration::from_millis(30));
    for i in 0..8 {
        net.close(&format!("r{i}"));
    }
    for h in handles {
        let (r, waited) = h.join().unwrap();
        assert_eq!(r, Err(RecvError::Closed), "woken by close, not timeout");
        assert!(
            waited < Duration::from_secs(10),
            "receiver must wake promptly, waited {waited:?}"
        );
    }
}

#[test]
fn no_accepted_message_is_lost_at_close() {
    let net = Network::new();
    let tap = Arc::new(TapLog::default());
    net.set_tap(Arc::clone(&tap) as Arc<dyn NetTap>);

    let hub = net.register("hub");
    let n_senders = 4usize;

    // Senders spam the hub until their sends start failing with Closed.
    let senders: Vec<_> = (0..n_senders)
        .map(|s| {
            let ep = net.register(&format!("sender-{s}"));
            thread::spawn(move || {
                let mut accepted = Vec::new();
                for i in 0u32.. {
                    let payload = format!("{s}:{i}").into_bytes();
                    match ep.send("hub", payload.clone()) {
                        Ok(()) => accepted.push(payload),
                        Err(NetError::Closed(name)) => {
                            assert_eq!(name, "hub");
                            break;
                        }
                        Err(e) => panic!("unexpected send error: {e}"),
                    }
                    if i % 64 == 0 {
                        thread::yield_now();
                    }
                }
                accepted
            })
        })
        .collect();

    // The hub drains everything until the close is surfaced.
    let receiver = {
        let hub = hub.clone();
        thread::spawn(move || {
            let mut got: Vec<Message> = Vec::new();
            loop {
                match hub.recv_timeout(Duration::from_secs(30)) {
                    Ok(m) => got.push(m),
                    Err(RecvError::Closed) => break,
                    Err(RecvError::Timeout) => panic!("hub starved before close"),
                }
            }
            got
        })
    };

    // Let the storm run, then slam the hub shut mid-flight.
    thread::sleep(Duration::from_millis(50));
    net.close("hub");

    let accepted: Vec<Vec<u8>> = senders
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    let received: Vec<Message> = receiver.join().unwrap();

    // Every accepted send was delivered and received; nothing extra
    // appeared. Multisets, so duplicates or losses both fail loudly.
    let accepted_set = multiset(accepted);
    let received_set = multiset(received.into_iter().map(|m| m.payload));
    let tapped_set = multiset(
        tap.delivered
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, to, _)| to == "hub")
            .map(|(_, _, p)| p.clone()),
    );
    assert!(!accepted_set.is_empty(), "storm must accept some messages");
    assert_eq!(
        accepted_set, tapped_set,
        "tap log must record exactly the accepted sends"
    );
    assert_eq!(
        accepted_set, received_set,
        "every accepted message must be received before Closed"
    );
    // With no fault policy installed, nothing may be reported dropped.
    assert!(tap.dropped.lock().unwrap().is_empty());
}
