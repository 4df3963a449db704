//! Golden bytes for every wire protocol in the workspace.
//!
//! Round-trip tests cannot see a format change: an encoder and decoder
//! that drift together still agree with each other. These tests pin the
//! exact encoding of one value of every `Msg`, `CtlMsg` and
//! `SocketFrame` variant, plus one two-record breach-memory buffer, so
//! any byte-level change to a codec fails here first.

use deta::core::aggregator::parse_breached_memory;
use deta::core::wire::Msg;
use deta::core::{DetaConfig, DetaSession, SyncMode, TransformConfig};
use deta::nn::models::mlp;
use deta::nn::train::LabeledData;
use deta::runtime::{CtlMsg, RebindEntry};
use deta::socket::SocketFrame;
use deta::tensor::Tensor;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// Pins each row's encoding to its golden hex (same order), reporting
/// every mismatch at once, then checks each golden encoding decodes and
/// re-encodes to itself.
fn pin<T>(
    rows: &[(&str, T)],
    golden: &[&str],
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<T>,
) {
    assert_eq!(rows.len(), golden.len(), "one golden string per row");
    let wrong: Vec<String> = rows
        .iter()
        .zip(golden)
        .filter_map(|((name, value), want)| {
            let got = hex(&encode(value));
            (got != *want).then(|| format!("{name}:\n  got  {got}\n  want {want}"))
        })
        .collect();
    assert!(wrong.is_empty(), "encodings changed:\n{}", wrong.join("\n"));
    for ((name, _), want) in rows.iter().zip(golden) {
        let bytes = unhex(want);
        let back = decode(&bytes).unwrap_or_else(|| panic!("{name}: golden bytes must decode"));
        assert_eq!(encode(&back), bytes, "{name}");
    }
}

fn msg_rows() -> Vec<(&'static str, Msg)> {
    vec![
        (
            "Hello",
            Msg::Hello {
                handshake: vec![1, 2, 3],
            },
        ),
        (
            "HelloReply",
            Msg::HelloReply {
                handshake: vec![4, 5],
            },
        ),
        (
            "Record",
            Msg::Record {
                sealed: vec![0xde, 0xad, 0xbe, 0xef],
            },
        ),
        (
            "Register",
            Msg::Register {
                party: "party-1".to_string(),
                weight: 1.5,
            },
        ),
        ("RegisterAck", Msg::RegisterAck),
        (
            "RoundStart",
            Msg::RoundStart {
                round: 7,
                training_id: [0xa5; 16],
            },
        ),
        (
            "Upload",
            Msg::Upload {
                round: 3,
                fragment: vec![1.0, -2.5, 0.125],
            },
        ),
        (
            "UploadEncrypted",
            Msg::UploadEncrypted {
                round: 2,
                ciphertexts: vec![vec![1, 2], vec![], vec![3]],
                value_count: 40,
            },
        ),
        (
            "Aggregated",
            Msg::Aggregated {
                round: 3,
                fragment: vec![0.5, -0.0],
            },
        ),
        (
            "AggregatedEncrypted",
            Msg::AggregatedEncrypted {
                round: 3,
                ciphertexts: vec![vec![0xff; 3], vec![0x10]],
                value_count: 16,
                summands: 4,
            },
        ),
        (
            "SyncRound",
            Msg::SyncRound {
                round: 1,
                training_id: [0x3c; 16],
            },
        ),
        ("SyncDone", Msg::SyncDone { round: 9 }),
    ]
}

fn ctl_rows() -> Vec<(&'static str, CtlMsg)> {
    vec![
        ("Ready", CtlMsg::Ready),
        (
            "Failed",
            CtlMsg::Failed {
                reason: "agg-1 down".to_string(),
            },
        ),
        ("Heartbeat", CtlMsg::Heartbeat { seq: 42 }),
        (
            "Trigger",
            CtlMsg::Trigger {
                round: 7,
                training_id: [0x5a; 16],
            },
        ),
        (
            "RoundPlan",
            CtlMsg::RoundPlan {
                round: 3,
                train: true,
                report_params: false,
            },
        ),
        (
            "PartyDone",
            CtlMsg::PartyDone {
                round: 3,
                trained: true,
                train_loss: 0.25,
                train_s: 1.5,
                transform_s: 0.125,
                crypto_s: 2.0,
                params: Some(vec![1.0, -2.5]),
            },
        ),
        (
            "AggDone",
            CtlMsg::AggDone {
                round: 3,
                aggregate_s: 0.5,
            },
        ),
        ("Shutdown", CtlMsg::Shutdown),
        (
            "Rebind",
            CtlMsg::Rebind {
                rebinds: vec![
                    RebindEntry {
                        index: 2,
                        name: "agg-2#r1".to_string(),
                        verifying_key: vec![1, 2, 3, 4],
                    },
                    RebindEntry {
                        index: 0,
                        name: "agg-0#r3".to_string(),
                        verifying_key: vec![9; 5],
                    },
                ],
            },
        ),
        (
            "Remap",
            CtlMsg::Remap {
                round: 5,
                mapper: vec![0, 0, 1, 0, 0, 0],
                aggs: vec!["agg-0".to_string(), "agg-2".to_string()],
            },
        ),
        ("Replay", CtlMsg::Replay { round: 5 }),
        ("Reopen", CtlMsg::Reopen { round: 6 }),
        (
            "Deregister",
            CtlMsg::Deregister {
                party: "party-3".to_string(),
            },
        ),
        (
            "Topology",
            CtlMsg::Topology {
                initiator: "agg-2".to_string(),
                aggs: vec!["agg-2".to_string(), "agg-0#r1".to_string()],
            },
        ),
    ]
}

fn frame_rows() -> Vec<(&'static str, SocketFrame)> {
    let windows = vec![
        ("party-0".to_string(), "agg-0".to_string(), 3),
        ("party-0".to_string(), "agg-1".to_string(), 0),
    ];
    vec![
        (
            "Data",
            SocketFrame::Data {
                src: "party-0".to_string(),
                dst: "agg-1".to_string(),
                seq: 17,
                payload: vec![7, 8, 9],
            },
        ),
        (
            "Close",
            SocketFrame::Close {
                name: "agg-1".to_string(),
            },
        ),
        ("Challenge", SocketFrame::Challenge { nonce: [0x11; 32] }),
        (
            "AuthProof",
            SocketFrame::AuthProof {
                name: "party-2".to_string(),
                sig: vec![0xee; 4],
            },
        ),
        ("Welcome", SocketFrame::Welcome),
        ("Bye", SocketFrame::Bye),
        (
            "ClockProbe",
            SocketFrame::ClockProbe {
                t_hub_ns: 123_456_789,
            },
        ),
        (
            "ClockEcho",
            SocketFrame::ClockEcho {
                t_hub_ns: 123_456_789,
                t_peer_ns: 987_654_321,
            },
        ),
        (
            "TraceShip",
            SocketFrame::TraceShip {
                name: "agg-0".to_string(),
                dropped: 2,
                jsonl: b"{}\n".to_vec(),
            },
        ),
        (
            "Resume",
            SocketFrame::Resume {
                src: "party-0".to_string(),
                windows: windows.clone(),
            },
        ),
        ("ResumeAck", SocketFrame::ResumeAck { windows }),
    ]
}

#[test]
fn msg_encodings_are_pinned() {
    let golden = [
        "0103000000010203",
        "02020000000405",
        "0304000000deadbeef",
        "040700000070617274792d310000c03f",
        "05",
        "060700000000000000a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5",
        "070300000000000000030000000000803f000020c00000003e",
        "0b0200000000000000280000000000000003000000020000000102000000000100000003",
        "080300000000000000020000000000003f00000080",
        "0c0300000000000000100000000000000004000000000000000200000003000000ffffff0100000010",
        "0901000000000000003c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c",
        "0a0900000000000000",
    ];
    let rows = msg_rows();
    assert_eq!(rows.len(), 12, "one row per Msg variant");
    pin(
        &rows,
        &golden,
        |m| m.encode().expect("encode"),
        |b| Msg::decode(b).ok(),
    );
}

#[test]
fn ctl_encodings_are_pinned() {
    let golden = [
        "01",
        "020a0000006167672d3120646f776e",
        "032a00000000000000",
        "0407000000000000005a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a",
        "0503000000000000000100",
        "060300000000000000010000803e000000000000f83f000000000000c03f000000000000004001020000000000803f000020c0",
        "070300000000000000000000000000e03f",
        "08",
        "090200000002000000080000006167672d32237231040000000102030400000000080000006167672d30237233050000000909090909",
        "0a05000000000000000600000000000100000002000000050000006167672d30050000006167672d32",
        "0b0500000000000000",
        "0c0600000000000000",
        "0e0700000070617274792d33",
        "0d050000006167672d3202000000050000006167672d32080000006167672d30237231",
    ];
    let rows = ctl_rows();
    assert_eq!(rows.len(), 14, "one row per CtlMsg variant");
    pin(
        &rows,
        &golden,
        |m| m.encode().expect("encode"),
        |b| CtlMsg::decode(b).ok(),
    );
}

#[test]
fn socket_frame_encodings_are_pinned() {
    let golden = [
        "01070070617274792d3005006167672d31110000000000000003000000070809",
        "0205006167672d31",
        "031111111111111111111111111111111111111111111111111111111111111111",
        "04070070617274792d3204000000eeeeeeee",
        "05",
        "06",
        "0715cd5b0700000000",
        "0815cd5b0700000000b168de3a00000000",
        "0905006167672d300200000000000000030000007b7d0a",
        "0a070070617274792d3002000000070070617274792d3005006167672d300300000000000000\
         070070617274792d3005006167672d310000000000000000",
        "0b02000000070070617274792d3005006167672d300300000000000000\
         070070617274792d3005006167672d310000000000000000",
    ];
    let rows = frame_rows();
    assert_eq!(rows.len(), 11, "one row per SocketFrame variant");
    pin(&rows, &golden, SocketFrame::encode, SocketFrame::decode);
}

/// The guest memory an aggregator holds after one round with two
/// parties: one `(u32-prefixed party name, u32-prefixed Upload)` record
/// per party, in name order.
const BREACH_GOLDEN: &str = "\
    0700000070617274792d30250000000701000000000000000600000\
    0f5b1c03ef4b1c0be000aa7bea43f4d3d010aa73ea03f4dbd\
    0700000070617274792d31250000000701000000000000000600000\
    0789ece3d779ecebd8063843c9f4e25bf706384bc9f4e253f";

#[test]
fn breach_memory_record_is_pinned() {
    // A 2-input, 2-output linear model keeps the fragment at 6 values.
    let data = |x: [f32; 4], labels: Vec<usize>| {
        LabeledData::new(Tensor::from_vec(x.to_vec(), &[2, 2]), labels)
    };
    let shards = vec![
        data([1.0, 0.0, 0.0, 1.0], vec![0, 1]),
        data([0.5, 0.5, -1.0, 0.25], vec![1, 0]),
    ];
    let mut cfg = DetaConfig::deta(2, 1);
    cfg.n_aggregators = 1;
    cfg.transform = TransformConfig::full();
    cfg.mode = SyncMode::FedSgd;
    cfg.seed = 11;
    let mut session = DetaSession::setup(cfg, &|rng| mlp(&[2, 2], rng), shards).expect("setup");
    session.step(&data([1.0, 1.0, 0.0, 0.0], vec![0, 1]));
    let memory = session.breach_aggregator(0).memory;
    assert_eq!(hex(&memory), BREACH_GOLDEN, "breach record layout changed");

    let records = parse_breached_memory(&unhex(BREACH_GOLDEN));
    let names: Vec<(&str, u64, usize)> = records
        .iter()
        .map(|(n, r, f)| (n.as_str(), *r, f.len()))
        .collect();
    assert_eq!(names, [("party-0", 1, 6), ("party-1", 1, 6)]);
}
