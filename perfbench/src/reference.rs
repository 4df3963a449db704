//! Reference runs: the same inputs on a second deployment, run in
//! interleaved pairs so load drift cancels inside each pair.
//!
//! - DeTA vs the FFL baseline, both on the sequential session, gives
//!   `deta.overhead_*`.
//! - The in-process `ThreadedSession` vs the bridged TCP deployment
//!   gives `socket.tax_*`, and checks every TCP session bit for bit.

use crate::deploy::{self, ffl_config};
use crate::e2e::check_session;
use crate::metrics::Report;
use crate::workloads::{Inputs, Workload};

/// Pairs per comparison.
pub const PAIRS: usize = 3;

/// One comparison: `base` and `with` rounds/s of each pair.
#[derive(Debug, Default)]
pub struct Paired {
    pub base: Vec<f64>,
    pub with: Vec<f64>,
}

impl Paired {
    /// Extra seconds per round of `with` over `base`, pair by pair.
    pub fn extra_s_per_round(&self) -> Vec<f64> {
        self.base
            .iter()
            .zip(&self.with)
            .map(|(b, w)| 1.0 / w - 1.0 / b)
            .collect()
    }

    /// `with`'s rounds/s over `base`'s, pair by pair.
    pub fn speed_ratio(&self) -> Vec<f64> {
        self.base
            .iter()
            .zip(&self.with)
            .map(|(b, w)| w / b)
            .collect()
    }
}

/// DeTA (`with`) against FFL (`base`) on the sequential session.
pub fn deta_vs_ffl(w: &Workload, inputs: &Inputs, report: &mut Report) -> Paired {
    let rounds = w.session_rounds;
    let (mut deta_fp, mut ffl_fp) = (None, None);
    let mut out = Paired::default();
    for _ in 0..PAIRS {
        let ffl = deploy::sequential(w, inputs, ffl_config(w.config(rounds)));
        let deta = deploy::sequential(w, inputs, w.config(rounds));
        let ffl = check_session(report, &mut ffl_fp, rounds, ffl);
        let deta = check_session(report, &mut deta_fp, rounds, deta);
        if let (Some(f), Some(d)) = (ffl, deta) {
            out.base.push(f.rounds_per_s());
            out.with.push(d.rounds_per_s());
        }
    }
    out
}

/// What the in-process vs TCP pairs found besides their rates.
#[derive(Debug, Default)]
pub struct TcpPairs {
    pub rates: Paired,
    /// Data-plane messages per round.
    pub messages_per_round: f64,
    pub failovers: u64,
    pub dropped_parties: usize,
}

/// The bridged TCP deployment (`with`) against the in-process one
/// (`base`); every TCP session must match the in-process fingerprint.
pub fn tcp_vs_in_process(w: &Workload, inputs: &Inputs, report: &mut Report) -> TcpPairs {
    let rounds = w.session_rounds;
    let mut expected = None;
    let mut out = TcpPairs::default();
    let mut messages = Vec::new();
    for _ in 0..PAIRS {
        let cfg = w.config(rounds);
        let local = deploy::in_process(w, inputs, cfg.clone(), deploy::runtime_config());
        let local = check_session(report, &mut expected, rounds, local);
        let tcp = deploy::bridged(w, inputs, cfg, deploy::runtime_config()).map(|b| b.session);
        let tcp = check_session(report, &mut expected, rounds, tcp);
        for s in local.iter().chain(tcp.iter()) {
            out.failovers += s.failovers;
            out.dropped_parties += s.dropped_parties;
            if let Some(m) = s.messages {
                messages.push(m);
            }
        }
        if let (Some(l), Some(t)) = (local, tcp) {
            out.rates.base.push(l.rounds_per_s());
            out.rates.with.push(t.rounds_per_s());
        }
    }
    messages.dedup();
    match messages.as_slice() {
        [m] => out.messages_per_round = *m as f64 / rounds as f64,
        other => report.fail(format!(
            "data-plane message counts differ between sessions: {other:?}"
        )),
    }
    out
}
