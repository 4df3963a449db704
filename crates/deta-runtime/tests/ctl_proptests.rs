//! Property tests for the control-plane codec. `CtlMsg::decode` parses
//! frames relayed from bridged processes, so it gets the same treatment
//! as the wire codec: arbitrary messages round-trip, arbitrary bytes
//! never panic, and no strict prefix of a valid frame is accepted.

use deta_proptest::{cases, Gen};
use deta_runtime::{CtlMsg, RebindEntry};

const NAME_CHARS: &str = "abcdefghijklmnopqrstuvwxyz0123456789-#";

fn name(g: &mut Gen) -> String {
    g.string_of(NAME_CHARS, 0, 17)
}

fn f64_any(g: &mut Gen) -> f64 {
    f64::from_bits(g.u64())
}

fn arb_ctl(g: &mut Gen) -> CtlMsg {
    match g.usize_in(0, 14) {
        0 => CtlMsg::Ready,
        1 => CtlMsg::Failed {
            reason: g.string_of("abc XYZ:-é✓", 0, 40),
        },
        2 => CtlMsg::Heartbeat { seq: g.u64() },
        3 => CtlMsg::Trigger {
            round: g.u64(),
            training_id: g.array::<16>(),
        },
        4 => CtlMsg::RoundPlan {
            round: g.u64(),
            train: g.bool(),
            report_params: g.bool(),
        },
        5 => CtlMsg::PartyDone {
            round: g.u64(),
            trained: g.bool(),
            train_loss: g.f32_any(),
            train_s: f64_any(g),
            transform_s: f64_any(g),
            crypto_s: f64_any(g),
            params: if g.bool() {
                Some(g.vec_of(0, 64, Gen::f32_any))
            } else {
                None
            },
        },
        6 => CtlMsg::AggDone {
            round: g.u64(),
            aggregate_s: f64_any(g),
        },
        7 => CtlMsg::Shutdown,
        8 => CtlMsg::Rebind {
            rebinds: g.vec_of(0, 4, |g| RebindEntry {
                index: g.u32(),
                name: name(g),
                verifying_key: g.bytes(0, 40),
            }),
        },
        9 => CtlMsg::Remap {
            round: g.u64(),
            mapper: g.bytes(0, 64),
            aggs: g.vec_of(0, 5, name),
        },
        10 => CtlMsg::Replay { round: g.u64() },
        11 => CtlMsg::Reopen { round: g.u64() },
        12 => CtlMsg::Deregister { party: name(g) },
        _ => CtlMsg::Topology {
            initiator: name(g),
            aggs: g.vec_of(0, 5, name),
        },
    }
}

#[test]
fn ctl_codec_roundtrips_all_messages() {
    cases("ctl_codec_roundtrips_all_messages", 256, |g| {
        let msg = arb_ctl(g);
        // NaN payloads break PartialEq; compare re-encoded bytes instead.
        let bytes = msg.encode().expect("encode");
        let decoded = CtlMsg::decode(&bytes).expect("decode");
        assert_eq!(decoded.encode().expect("re-encode"), bytes);
    });
}

#[test]
fn ctl_decoder_never_panics_on_garbage() {
    cases("ctl_decoder_never_panics_on_garbage", 256, |g| {
        let bytes = g.bytes(0, 256);
        let _ = CtlMsg::decode(&bytes);
    });
}

#[test]
fn ctl_decoder_rejects_any_truncation() {
    cases("ctl_decoder_rejects_any_truncation", 128, |g| {
        let bytes = arb_ctl(g).encode().expect("encode");
        for cut in 0..bytes.len() {
            assert!(CtlMsg::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
    });
}
