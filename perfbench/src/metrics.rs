//! Metric definitions and the result line.
//!
//! `BENCHMARK.json` is generated from these tables (`deta-perfbench
//! spec`), and a test keeps the committed file equal to the output.

use crate::workloads;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug)]
pub struct Spec {
    pub name: String,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Allowed regression as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn spec(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> Spec {
    Spec {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 45;

/// The metrics a user of the system sees; every one is taken with
/// tracing off.
pub fn end_to_end() -> Vec<Spec> {
    vec![
        spec("rounds_per_s", "rounds/s", "higher", Some(0.25)),
        spec("setup_s", "s", "lower", Some(0.25)),
        spec("cpu_s_per_round", "s", "lower", Some(0.25)),
        spec("peak_rss_mb", "MiB", "lower", Some(0.25)),
        spec("bytes_per_round", "B", "lower", Some(0.01)),
        spec("final_test_loss", "nats", "lower", Some(0.25)),
    ]
}

/// A layer timed by the per-layer pass: a per-call median, a per-round
/// (or per-setup) call count derived from the workload, and their
/// product as busy time.
pub struct TimedLayer {
    /// Metric name of the per-call figure.
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// `true` for set-up layers, counted per set-up rather than per
    /// round.
    pub per_setup: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> TimedLayer {
    TimedLayer {
        name,
        unit,
        better,
        per_setup: false,
    }
}

const fn setup_layer(name: &'static str) -> TimedLayer {
    TimedLayer {
        name,
        unit: "ms",
        better: "lower",
        per_setup: true,
    }
}

pub const TIMED_LAYERS: [TimedLayer; 17] = [
    layer("nn.local_train_ms", "ms", "lower"),
    layer("nn.evaluate_ms", "ms", "lower"),
    layer("shuffle.derive_ms", "ms", "lower"),
    layer("transform.forward_ms", "ms", "lower"),
    layer("transform.inverse_ms", "ms", "lower"),
    layer("wire.encode_mb_s", "MB/s", "higher"),
    layer("wire.decode_mb_s", "MB/s", "higher"),
    layer("secure.seal_mb_s", "MB/s", "higher"),
    layer("secure.open_mb_s", "MB/s", "higher"),
    layer("agg.median_ms", "ms", "lower"),
    layer("agg.avg_ms", "ms", "lower"),
    layer("socket.frame_mb_s", "MB/s", "higher"),
    layer("socket.rtt_small_us", "us", "lower"),
    layer("socket.stream_mb_s", "MB/s", "higher"),
    setup_layer("setup.attest_ms"),
    setup_layer("setup.handshake_ms"),
    setup_layer("setup.mapper_ms"),
];

impl TimedLayer {
    /// `nn.local_train_ms` → `nn.local_train`.
    pub fn base(&self) -> &'static str {
        let cut = self.name.rfind('_').unwrap_or(self.name.len());
        let base = &self.name[..cut];
        // `*_mb_s` drops two suffix words.
        base.strip_suffix("_mb").unwrap_or(base)
    }

    pub fn count_name(&self) -> String {
        let per = if self.per_setup { "setup" } else { "round" };
        format!("{}.calls_per_{per}", self.base())
    }

    pub fn busy_name(&self) -> String {
        let per = if self.per_setup { "setup" } else { "round" };
        format!("{}.busy_ms_per_{per}", self.base())
    }
}

/// Critical-path buckets of the traced run, as `(metric, span or
/// bucket label)`; `cp.other` takes every other label.
pub const CP_BUCKETS: [(&str, &str); 9] = [
    ("cp.local_train", "local_train"),
    ("cp.transform", "transform"),
    ("cp.seal", "seal"),
    ("cp.handle_wire", "handle_wire"),
    ("cp.transport_queue", deta_obs::report::TRANSPORT),
    ("cp.aggregate", "aggregate"),
    ("cp.unshuffle", "unshuffle"),
    ("cp.eval", "eval"),
    ("cp.idle", deta_obs::report::IDLE),
];

/// The metrics of a `--trace 1` run: the per-layer pass, the reference
/// runs and the traced run.
pub fn per_layer() -> Vec<Spec> {
    let mut out = Vec::new();
    for l in &TIMED_LAYERS {
        out.push(spec(l.name, l.unit, l.better, None));
        out.push(spec(&l.count_name(), "count", "lower", None));
        out.push(spec(&l.busy_name(), "ms", "lower", None));
    }
    for (name, unit, better) in [
        ("socket.tax_s_per_round", "s", "lower"),
        ("socket.tax_iqr_s", "s", "lower"),
        ("socket.tcp_vs_inproc_x", "x", "higher"),
        ("deta.overhead_s_per_round", "s", "lower"),
        ("deta.overhead_iqr_s", "s", "lower"),
        ("deta.overhead_x", "x", "lower"),
        ("runtime.failovers", "count", "lower"),
        ("runtime.dropped_parties", "count", "lower"),
        ("net.messages_per_round", "count", "lower"),
        ("trace.overhead", "x", "lower"),
        ("trace.noise_floor", "x", "lower"),
    ] {
        out.push(spec(name, unit, better, None));
    }
    for (name, _) in CP_BUCKETS {
        let better = if name == "cp.local_train" {
            "higher"
        } else {
            "lower"
        };
        out.push(spec(name, "share", better, None));
    }
    out.push(spec("cp.other", "share", "lower", None));
    out.push(spec("cp.attributed", "share", "higher", None));
    out
}

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"command\": [\"python3\", \"perfbench/run.py\"],");
    let _ = writeln!(s, "  \"paths\": [\"perfbench\"],");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    let _ = writeln!(s, "  \"workloads\": [");
    let listed: Vec<_> = workloads::listed().collect();
    for (i, w) in listed.iter().enumerate() {
        let comma = if i + 1 < listed.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"end_to_end\": [");
    let e2e = end_to_end();
    for (i, m) in e2e.iter().enumerate() {
        let comma = if i + 1 < e2e.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better,
            m.bound.unwrap_or(0.0)
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"per_layer\": [");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// The result of one run: the last line of standard output.
#[derive(Debug, Default)]
pub struct Report {
    /// Rounds attempted and rounds failed (session error, missed
    /// deadline or parity mismatch).
    pub attempted: u64,
    pub failed: u64,
    /// Problems found by the run's own checks.
    pub problems: Vec<String>,
    pub values: Vec<(String, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    pub fn fail(&mut self, problem: String) {
        eprintln!("check failed: {problem}");
        self.problems.push(problem);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The JSON line, carrying exactly the metrics of `specs`. A metric
    /// the run could not produce is a failed check.
    pub fn to_json(&mut self, specs: &[Spec]) -> String {
        let mut metrics = Vec::new();
        for m in specs {
            let value = self
                .values
                .iter()
                .rev()
                .find(|(n, _)| *n == m.name)
                .map(|(_, v)| *v);
            let value = match value {
                Some(v) if v.is_finite() => v,
                _ => {
                    self.fail(format!("metric {} was not measured", m.name));
                    0.0
                }
            };
            metrics.push(format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
