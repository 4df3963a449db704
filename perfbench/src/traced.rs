//! The traced run: the workload's sessions with the telemetry sink on,
//! in a process of its own because `deta_telemetry::enable()` cannot be
//! undone. It reports each session's rounds/s and the critical-path
//! share of every bucket.

use crate::deploy::{self, Bridged};
use crate::metrics::CP_BUCKETS;
use crate::workloads::{Deployment, Inputs, Workload};
use deta_obs::{ObsRecord, ProcessTrace, IDLE};
use deta_telemetry::FlightRecorder;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;

/// Traced sessions per run.
pub const SESSIONS: usize = 3;
/// Flight-recorder depth: a whole session, not a post-mortem window.
const RING: usize = 1 << 16;

/// `(cp.* metric, share of round wall time)` pairs.
pub type Shares = Vec<(String, f64)>;

/// What the traced run measured.
#[derive(Debug, Default)]
pub struct Traced {
    /// Rounds/s of each traced session.
    pub rates: Vec<f64>,
    /// Critical-path nanoseconds per bucket label, over every round.
    pub buckets: BTreeMap<String, u64>,
    /// Round wall time those buckets divide.
    pub wall_ns: u64,
}

impl Traced {
    /// Share of round wall time per `cp.*` metric, `cp.other` and
    /// `cp.attributed` included.
    pub fn shares(&self) -> Shares {
        let wall = self.wall_ns.max(1) as f64;
        let share = |label: &str| self.buckets.get(label).copied().unwrap_or(0) as f64 / wall;
        let mut out: Vec<(String, f64)> = CP_BUCKETS
            .iter()
            .map(|(metric, label)| (metric.to_string(), share(label)))
            .collect();
        let named: u64 = CP_BUCKETS
            .iter()
            .filter_map(|(_, label)| self.buckets.get(*label))
            .sum();
        let total: u64 = self.buckets.values().sum();
        out.push(("cp.other".to_string(), (total - named) as f64 / wall));
        out.push(("cp.attributed".to_string(), 1.0 - share(IDLE)));
        out
    }

    fn absorb(&mut self, label: &str, ns: u64) {
        *self.buckets.entry(label.to_string()).or_insert(0) += ns;
    }
}

/// Attributes a single-threaded timeline: each instant of `[lo, hi)`
/// goes to the innermost span covering it, the rest to idle.
fn attribute_single_thread(spans: &[ObsRecord], lo: i64, hi: i64, out: &mut Traced) {
    let mut cuts: Vec<i64> = vec![lo, hi];
    for s in spans {
        cuts.extend(
            [s.t_ns, s.end_ns()]
                .into_iter()
                .filter(|t| *t > lo && *t < hi),
        );
    }
    cuts.sort_unstable();
    cuts.dedup();
    for w in cuts.windows(2) {
        let mid = w[0] + (w[1] - w[0]) / 2;
        let label = spans
            .iter()
            .filter(|s| s.t_ns <= mid && mid < s.end_ns())
            .max_by_key(|s| s.t_ns)
            .map_or(IDLE, |s| s.name.as_str());
        out.absorb(label, (w[1] - w[0]) as u64);
    }
}

/// One traced sequential session: the driver thread's ring holds every
/// node's spans.
fn sequential_session(w: &Workload, inputs: &Inputs, out: &mut Traced) -> Result<(), String> {
    let rec = FlightRecorder::new("sequential", RING);
    let guard = deta_telemetry::attach(Arc::clone(&rec));
    let s = deploy::sequential(w, inputs, w.config(w.session_rounds))?;
    drop(guard);
    let (records, dropped) = rec.drain();
    if dropped > 0 {
        return Err(format!("flight recorder dropped {dropped} records"));
    }
    let jsonl: String = records
        .iter()
        .map(|r| r.to_json("sequential") + "\n")
        .collect();
    let spans: Vec<ObsRecord> = deta_obs::parse_jsonl(&jsonl)
        .records
        .into_iter()
        .filter(|r| r.span)
        .collect();
    let (Some(lo), Some(hi)) = (
        spans.iter().map(|s| s.t_ns).min(),
        spans.iter().map(ObsRecord::end_ns).max(),
    ) else {
        return Err("the traced session recorded no spans".to_string());
    };
    // The step loop's wall time, of which the spans cover a part.
    let wall = (s.run_s * 1e9) as u64;
    attribute_single_thread(&spans, lo, hi, out);
    out.absorb(IDLE, wall.saturating_sub((hi - lo) as u64));
    out.wall_ns += wall;
    out.rates.push(s.rounds_per_s());
    Ok(())
}

/// One traced TCP session: merge the coordinator's ring with every
/// node's shipped ring, then walk each round's critical path.
fn bridged_session(
    w: &Workload,
    inputs: &Inputs,
    dir: &Path,
    out: &mut Traced,
) -> Result<(), String> {
    let mut rt = deploy::runtime_config();
    rt.telemetry.enabled = true;
    rt.telemetry.ring_capacity = RING;
    rt.telemetry.trace_dir = dir.to_path_buf();
    let Bridged {
        session,
        harvest,
        coordinator_trace,
    } = deploy::bridged(w, inputs, w.config(w.session_rounds), rt)?;
    let coordinator = coordinator_trace.ok_or("no coordinator trace")?;
    let mut procs = vec![ProcessTrace {
        label: "coordinator".to_string(),
        offset_ns: 0,
        records: deta_obs::parse_jsonl(&coordinator).records,
    }];
    let mut shipped: Vec<(String, (String, u64))> = harvest.traces.into_iter().collect();
    shipped.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, (jsonl, dropped)) in shipped {
        if dropped > 0 {
            return Err(format!("{name} dropped {dropped} trace records"));
        }
        procs.push(ProcessTrace {
            offset_ns: harvest.offsets.get(&name).copied().unwrap_or(0),
            label: name,
            records: deta_obs::parse_jsonl(&jsonl).records,
        });
    }
    let reports = deta_obs::round_reports(&deta_obs::merge(procs));
    if reports.len() != w.session_rounds {
        return Err(format!(
            "critical path covers {} of {} rounds",
            reports.len(),
            w.session_rounds
        ));
    }
    for r in &reports {
        for (label, ns) in &r.critical {
            out.absorb(label, *ns);
        }
        out.wall_ns += r.wall_ns;
    }
    out.rates.push(session.rounds_per_s());
    Ok(())
}

/// Turns the telemetry sink on for good and runs [`SESSIONS`] traced
/// sessions; flight-recorder dumps go to `dir`.
pub fn measure(w: &Workload, seed: u64, dir: &Path) -> Result<Traced, String> {
    deta_telemetry::enable();
    let inputs = w.inputs(seed);
    let mut out = Traced::default();
    for _ in 0..SESSIONS {
        match w.deployment {
            Deployment::Sequential => sequential_session(w, &inputs, &mut out)?,
            Deployment::BridgedTcp => bridged_session(w, &inputs, dir, &mut out)?,
        }
    }
    Ok(out)
}

/// Body of the traced child process: prints `rate <r>` per session and
/// `<metric> <share>` per bucket.
pub fn child(w: &Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let out = measure(w, seed, dir)?;
    for r in &out.rates {
        println!("rate {r:?}");
    }
    for (metric, share) in out.shares() {
        println!("{metric} {share:?}");
    }
    Ok(())
}

/// Runs the traced child process and parses what it printed: the
/// session rates and the `cp.*` shares.
pub fn spawn(w: &Workload, seed: u64) -> Result<(Vec<f64>, Shares), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // Dumps land next to the binary, inside the build directory.
    let dir: PathBuf = exe
        .parent()
        .ok_or("executable has no directory")?
        .join(format!("perfbench-traces-{}", std::process::id()));
    let output = Command::new(&exe)
        .args(["traced", w.name, &seed.to_string()])
        .arg(&dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("traced run: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    let output = output?;
    if !output.status.success() {
        return Err(format!("traced run exited with {}", output.status));
    }
    let mut rates = Vec::new();
    let mut shares = Vec::new();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let Some((key, value)) = line.split_once(' ') else {
            continue;
        };
        let value: f64 = value
            .parse()
            .map_err(|_| format!("traced run printed {line:?}"))?;
        if key == "rate" {
            rates.push(value);
        } else {
            shares.push((key.to_string(), value));
        }
    }
    Ok((rates, shares))
}
