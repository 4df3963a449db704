//! Property tests for the wire codec and transform pipeline.

use deta_core::mapper::ModelMapper;
use deta_core::shuffle::RoundPermutation;
use deta_core::wire::Msg;
use deta_crypto::DetRng;
use deta_proptest::{cases, Gen};

fn arb_msg(g: &mut Gen) -> Msg {
    match g.usize_in(0, 12) {
        0 => Msg::Hello {
            handshake: g.bytes(0, 128),
        },
        1 => Msg::HelloReply {
            handshake: g.bytes(0, 128),
        },
        2 => Msg::Record {
            sealed: g.bytes(0, 256),
        },
        3 => Msg::Register {
            party: g.string_of("abcdefghijklmnopqrstuvwxyz0123456789-", 0, 21),
            weight: g.f32_any(),
        },
        4 => Msg::RegisterAck,
        5 => Msg::RoundStart {
            round: g.u64(),
            training_id: g.array::<16>(),
        },
        6 => Msg::Upload {
            round: g.u64(),
            fragment: g.vec_of(0, 64, Gen::f32_any),
        },
        7 => Msg::Aggregated {
            round: g.u64(),
            fragment: g.vec_of(0, 64, Gen::f32_any),
        },
        8 => Msg::UploadEncrypted {
            round: g.u64(),
            ciphertexts: g.vec_of(0, 8, |g| g.bytes(0, 32)),
            value_count: g.u64(),
        },
        9 => Msg::AggregatedEncrypted {
            round: g.u64(),
            ciphertexts: g.vec_of(0, 8, |g| g.bytes(0, 32)),
            value_count: g.u64(),
            summands: g.u64(),
        },
        10 => Msg::SyncRound {
            round: g.u64(),
            training_id: g.array::<16>(),
        },
        _ => Msg::SyncDone { round: g.u64() },
    }
}

#[test]
fn codec_roundtrips_all_messages() {
    cases("codec_roundtrips_all_messages", 256, |g| {
        let msg = arb_msg(g);
        // NaN payloads break PartialEq; compare re-encoded bytes instead.
        let bytes = msg.encode().expect("encode");
        let decoded = Msg::decode(&bytes).expect("decode");
        assert_eq!(decoded.encode().expect("re-encode"), bytes);
    });
}

#[test]
fn decoder_never_panics_on_garbage() {
    cases("decoder_never_panics_on_garbage", 256, |g| {
        let bytes = g.bytes(0, 256);
        let _ = Msg::decode(&bytes);
    });
}

#[test]
fn decoder_rejects_any_truncation() {
    cases("decoder_rejects_any_truncation", 128, |g| {
        let bytes = arb_msg(g).encode().expect("encode");
        for cut in 0..bytes.len() {
            assert!(Msg::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
    });
}

#[test]
fn permutation_roundtrip() {
    cases("permutation_roundtrip", 256, |g| {
        let key = g.array::<32>();
        let tid = g.array::<16>();
        let frag = g.u32();
        let data = g.vec_of(0, 200, Gen::f32_any);
        let p = RoundPermutation::derive(&key, &tid, frag, data.len());
        let shuffled = p.apply(&data);
        // NaNs are not PartialEq-reflexive; compare bit patterns.
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&p.invert(&shuffled)), bits(&data));
    });
}

#[test]
fn mapper_roundtrip_arbitrary_proportions() {
    cases("mapper_roundtrip_arbitrary_proportions", 128, |g| {
        let n = g.usize_in(1, 300);
        let raw_props = g.vec_of(1, 5, |g| g.f32_in(0.05, 1.0));
        let k = raw_props.len();
        let mapper = ModelMapper::generate(n, k, Some(&raw_props), &mut DetRng::from_u64(g.u64()));
        let update: Vec<f32> = (0..n).map(|i| i as f32).collect();
        assert_eq!(mapper.merge(&mapper.partition(&update)), update);
        // Serialization roundtrip too.
        let back = ModelMapper::from_bytes(&mapper.to_bytes()).unwrap();
        assert_eq!(back, mapper);
    });
}
