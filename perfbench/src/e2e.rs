//! The timed pass: the end-to-end metrics, taken with tracing off.

use crate::deploy::{self, fingerprint, Fingerprint, Session};
use crate::metrics::Report;
use crate::stats::{median, peak_rss_mib, quartiles};
use crate::workloads::{Deployment, Inputs, Workload};
use std::time::Instant;

/// Sessions a run times at least, whatever `--seconds` says.
const MIN_SESSIONS: usize = 3;

/// Set-ups a run takes at least; set-up-only sessions make up the
/// difference when the timed sessions are too few.
fn min_setups(w: &Workload) -> usize {
    match w.deployment {
        Deployment::Sequential => 31,
        Deployment::BridgedTcp => 7,
    }
}

/// Runs one session of `rounds` rounds on the workload's deployment.
pub fn session(w: &Workload, inputs: &Inputs, rounds: usize) -> Result<Session, String> {
    let cfg = w.config(rounds);
    match w.deployment {
        Deployment::Sequential => deploy::sequential(w, inputs, cfg),
        Deployment::BridgedTcp => {
            deploy::bridged(w, inputs, cfg, deploy::runtime_config()).map(|b| b.session)
        }
    }
}

/// The fingerprint every session of this run must reproduce: the
/// in-process `ThreadedSession` on the same inputs for the TCP
/// deployment, the first session itself for the sequential one.
pub fn reference(
    w: &Workload,
    inputs: &Inputs,
    rounds: usize,
) -> Result<Option<Fingerprint>, String> {
    match w.deployment {
        Deployment::Sequential => Ok(None),
        Deployment::BridgedTcp => {
            let cfg = w.config(rounds);
            let s = deploy::in_process(w, inputs, cfg, deploy::runtime_config())?;
            Ok(Some(fingerprint(&s.metrics)))
        }
    }
}

/// Counts a session's rounds into `report` and checks its fingerprint
/// against `expected` (adopting it when there is none yet). Returns the
/// session when it passed.
pub fn check_session(
    report: &mut Report,
    expected: &mut Option<Fingerprint>,
    rounds: usize,
    outcome: Result<Session, String>,
) -> Option<Session> {
    report.attempted += rounds as u64;
    let s = match outcome {
        Ok(s) => s,
        Err(e) => {
            report.failed += rounds as u64;
            report.fail(e);
            return None;
        }
    };
    let got = fingerprint(&s.metrics);
    match expected {
        Some(want) if *want != got => {
            report.failed += rounds as u64;
            report.fail(format!(
                "round fingerprint differs from the reference over {rounds} rounds"
            ));
            None
        }
        Some(_) => Some(s),
        None => {
            *expected = Some(got);
            Some(s)
        }
    }
}

/// Times sessions for `seconds` and reports the end-to-end metrics.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Report {
    let inputs = w.inputs(seed);
    let rounds = w.session_rounds;
    let mut report = Report::default();
    let mut expected = match reference(w, &inputs, rounds) {
        Ok(fp) => fp,
        Err(e) => {
            report.fail(format!("reference run: {e}"));
            None
        }
    };

    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut cpu = Vec::new();
    let mut last: Option<Session> = None;
    let start = Instant::now();
    let mut sessions = 0;
    while sessions < MIN_SESSIONS || start.elapsed().as_secs_f64() < seconds {
        sessions += 1;
        let outcome = session(w, &inputs, rounds);
        if let Some(s) = check_session(&mut report, &mut expected, rounds, outcome) {
            setups.push(s.setup_s);
            if s.steps.is_empty() {
                rates.push(s.rounds_per_s());
                cpu.push(s.cpu_s / rounds as f64);
            } else {
                // One sample per `step` call: more samples, same rate.
                rates.extend(s.steps.iter().map(|(wall, _)| 1.0 / wall));
                cpu.extend(s.steps.iter().map(|(_, cpu)| cpu));
            }
            last = Some(s);
        }
    }
    while setups.len() < min_setups(w) {
        match session(w, &inputs, 0) {
            Ok(s) => setups.push(s.setup_s),
            Err(e) => {
                report.fail(format!("set-up only session: {e}"));
                break;
            }
        }
    }
    let (q1, q3) = quartiles(&rates);
    eprintln!(
        "{}: {sessions} sessions of {rounds} rounds in {:.1} s on {} CPUs; \
         {} rate samples, quartiles {q1:.3}..{q3:.3} rounds/s; {} set-ups",
        w.name,
        start.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(0, usize::from),
        rates.len(),
        setups.len(),
    );

    report.set("rounds_per_s", median(&rates));
    report.set("setup_s", median(&setups));
    report.set("cpu_s_per_round", median(&cpu));
    report.set("peak_rss_mb", peak_rss_mib());
    if let Some(s) = last {
        let bytes: u64 = s
            .metrics
            .iter()
            .map(|m| m.upload_bytes + m.download_bytes)
            .sum();
        report.set("bytes_per_round", bytes as f64 / rounds as f64);
        if let Some(m) = s.metrics.last() {
            report.set("final_test_loss", f64::from(m.test_loss));
        }
    }
    report
}
