//! Rounds start only from the session driver.
//!
//! Parties derive each round's keyed shuffle from the training id in
//! the initiator's `RoundStart`, and the paper makes that id a key-broker
//! value. A `SyncRound` that reaches the initiator from any other
//! sender must therefore never start a round: otherwise one party could
//! choose the id every other party shuffles with.

use deta::core::wire::Msg;
use deta::core::{fingerprint, DetaConfig, DetaSession};
use deta::datasets::{iid_partition, DatasetSpec};
use deta::nn::models::mlp;
use deta::nn::train::LabeledData;

fn session() -> (DetaSession, LabeledData) {
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let train = spec.generate(80, 1);
    let test = spec.generate(40, 2);
    let (dim, classes) = (spec.dim(), spec.classes);
    let mut cfg = DetaConfig::deta(2, 1);
    cfg.n_aggregators = 2;
    cfg.seed = 5;
    let s = DetaSession::setup(
        cfg,
        &move |rng| mlp(&[dim, 16, classes], rng),
        iid_partition(&train, 2, 3),
    )
    .expect("setup");
    (s, test)
}

#[test]
fn a_party_sync_round_does_not_start_a_round() {
    let (mut spoofed, test) = session();
    let forged = Msg::SyncRound {
        round: 1,
        training_id: [7; 16],
    }
    .encode()
    .expect("encode");
    spoofed
        .party_mut(0)
        .endpoint()
        .send("agg-0", forged)
        .expect("send");
    spoofed.aggregator_mut(0).pump();
    assert_eq!(
        spoofed.party_mut(1).poll_round_start(),
        None,
        "a party's SyncRound must not reach other parties as a round start"
    );

    let (mut clean, _) = session();
    assert_eq!(
        fingerprint(&[spoofed.step(&test)]),
        fingerprint(&[clean.step(&test)]),
        "the next driver-started round must be undisturbed"
    );
}
