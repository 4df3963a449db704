//! The benchmark's contract: `BENCHMARK.json` is what the tables
//! define, every name and unit is well formed, and a short run of each
//! workload passes its own correctness checks.

use deta_perfbench::metrics::{self, Spec};
use deta_perfbench::workloads::{self, Deployment, WORKLOADS};
use deta_perfbench::{deploy, e2e, layers, reference};
use std::collections::HashSet;
use std::path::Path;

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn benchmark_json_is_generated_from_the_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    assert_eq!(
        committed,
        metrics::benchmark_json(),
        "BENCHMARK.json is stale: regenerate it with `deta-perfbench spec > BENCHMARK.json`"
    );
}

#[test]
fn names_units_and_bounds_are_well_formed() {
    let e2e = metrics::end_to_end();
    let per_layer = metrics::per_layer();
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!((2..=8).contains(&workloads::listed().count()));
    let mut seen = HashSet::new();
    for w in &WORKLOADS {
        assert!(is_name(w.name), "workload name {}", w.name);
        assert!(seen.insert(w.name.to_string()), "duplicate {}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {}",
            w.name
        );
    }
    let mut seen = HashSet::new();
    for m in e2e.iter().chain(&per_layer) {
        assert!(is_name(&m.name), "metric name {}", m.name);
        assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        assert!(is_unit(m.unit), "unit {} of {}", m.unit, m.name);
        assert!(matches!(m.better, "higher" | "lower"), "{}", m.name);
    }
    for m in &e2e {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
    }
    assert!(per_layer.iter().all(|m| m.bound.is_none()));
    let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    let largest = e2e.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s gets the largest bound");
}

#[test]
fn every_named_layer_metric_is_reported() {
    let names: HashSet<String> = metrics::per_layer().into_iter().map(|m| m.name).collect();
    for name in [
        "nn.local_train_ms",
        "nn.evaluate_ms",
        "shuffle.derive_ms",
        "transform.forward_ms",
        "transform.inverse_ms",
        "wire.encode_mb_s",
        "wire.decode_mb_s",
        "secure.seal_mb_s",
        "secure.open_mb_s",
        "agg.median_ms",
        "agg.avg_ms",
        "socket.frame_mb_s",
        "socket.rtt_small_us",
        "socket.stream_mb_s",
        "socket.tax_s_per_round",
        "setup.attest_ms",
        "setup.handshake_ms",
        "setup.mapper_ms",
        "runtime.failovers",
        "runtime.dropped_parties",
        "net.messages_per_round",
        "deta.overhead_s_per_round",
        "trace.overhead",
        "cp.local_train",
        "cp.transform",
        "cp.seal",
        "cp.handle_wire",
        "cp.transport_queue",
        "cp.aggregate",
        "cp.idle",
        "cp.attributed",
    ] {
        assert!(names.contains(name), "{name} is not a per-layer metric");
    }
}

/// Every metric of `specs` that `report` measured, as in the result
/// line; fails on a missing one.
fn assert_reports_all(report: &mut deta_perfbench::metrics::Report, specs: &[Spec]) {
    let line = report.to_json(specs);
    assert!(
        report.correct(),
        "run failed its checks: {:?}",
        report.problems
    );
    for m in specs {
        assert!(
            line.contains(&format!("\"{}\":", m.name)),
            "{} missing",
            m.name
        );
    }
}

#[test]
fn smoke_timed_pass_of_every_workload() {
    for w in &WORKLOADS {
        let mut report = e2e::run(w, 1, 0.0);
        assert!(report.attempted > 0);
        assert_eq!(report.failed, 0, "{}", w.name);
        assert_reports_all(&mut report, &metrics::end_to_end());
    }
}

#[test]
fn smoke_reference_pairs_and_layers_of_every_workload() {
    for w in &WORKLOADS {
        let inputs = w.inputs(2);
        let mut report = metrics::Report::default();
        let ffl = reference::deta_vs_ffl(w, &inputs, &mut report);
        assert_eq!(ffl.base.len(), reference::PAIRS);
        let tcp = reference::tcp_vs_in_process(w, &inputs, &mut report);
        assert_eq!(tcp.rates.with.len(), reference::PAIRS);
        // Every fragment message is a data-plane message.
        let fragments = (2 * w.parties * w.aggregators) as f64;
        assert!(tcp.messages_per_round > fragments, "{}", w.name);
        layers::report_layers(w, &inputs, 2, tcp.messages_per_round, &mut report);
        assert!(
            report.problems.is_empty(),
            "{}: {:?}",
            w.name,
            report.problems
        );
        assert_eq!(report.failed, 0);
        let timed = metrics::TIMED_LAYERS.len() * 3;
        assert_eq!(report.values.len(), timed, "{}", w.name);
    }
}

#[test]
fn ffl_leg_matches_run_ffl() {
    let w = WORKLOADS
        .iter()
        .find(|w| w.deployment == Deployment::BridgedTcp)
        .expect("a TCP workload");
    let inputs = w.inputs(3);
    let cfg = w.config(3);
    let via_run_ffl = deta_core::baseline::run_ffl(
        cfg.clone(),
        &|rng| w.build_model(rng),
        inputs.shards.clone(),
        &inputs.test,
    )
    .expect("run_ffl");
    let ours = deploy::sequential(w, &inputs, deploy::ffl_config(cfg)).expect("ffl session");
    assert_eq!(
        deploy::fingerprint(&via_run_ffl),
        deploy::fingerprint(&ours.metrics)
    );
}
