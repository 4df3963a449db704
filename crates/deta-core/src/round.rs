//! One round's plan and bill, shared by every session driver.
//!
//! [`RoundPlan::for_round`] decides who trains and who reports in a
//! round; [`RoundLedger`] turns what the round measured into its
//! [`RoundMetrics`]. The sequential [`DetaSession`] and the threaded
//! runtime both call them, so the two deployments agree on every
//! selection and every billed byte because they run the same code: the
//! drivers only pump nodes or exchange control messages (DESIGN.md §7).
//!
//! [`DetaSession`]: crate::session::DetaSession

use crate::latency::{LatencyModel, RoundInputs};
use crate::party::PartyTimers;
use crate::session::{DetaConfig, RoundMetrics};
use deta_crypto::DetRng;
use deta_transport::Network;
use std::collections::{BTreeMap, HashMap};

/// Who trains and who reports in one round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundPlan {
    /// Party indices that train and upload this round, ascending; every
    /// other present party only synchronizes with the aggregate.
    pub trainers: Vec<usize>,
    /// The party that reports the synchronized parameters (the first
    /// present party); `None` only when no party is present.
    pub reporter: Option<usize>,
}

impl RoundPlan {
    /// The plan for `round`. The trainers are a quorum of
    /// `cfg.participation` drawn from `pool` by a seeded shuffle (the
    /// whole pool when no quorum is set or the pool is no larger),
    /// limited to `present`; the reporter is the first entry of
    /// `present`, which lists party indices in ascending order.
    ///
    /// The pool is the caller's choice. The sequential session passes
    /// its online parties as both pool and present: a drop there is an
    /// explicit call at a round boundary, so the pool is deterministic.
    /// The threaded runtime passes every party index as the pool and
    /// its non-dropped parties as present: a drop there follows a lost
    /// link, whose timing must not move which parties train.
    pub fn for_round(
        cfg: &DetaConfig,
        round: u64,
        mut pool: Vec<usize>,
        present: &[usize],
    ) -> RoundPlan {
        if let Some(q) = cfg.participation.filter(|&q| q < pool.len()) {
            let mut rng = DetRng::from_u64(cfg.seed).fork_indexed(b"participation", round);
            rng.shuffle(&mut pool);
            pool.truncate(q);
        }
        pool.retain(|i| present.contains(i));
        pool.sort_unstable();
        RoundPlan {
            trainers: pool,
            reporter: present.first().copied(),
        }
    }

    /// Whether party `i` trains this round.
    pub fn trains(&self, i: usize) -> bool {
        self.trainers.binary_search(&i).is_ok()
    }
}

/// Every node's cumulative compute timers at the end of a round, keyed
/// by endpoint name. The keys also name the round's parties and
/// aggregators for byte billing.
#[derive(Clone, Debug, Default)]
pub struct NodeTimers {
    /// Party timers.
    pub parties: BTreeMap<String, PartyTimers>,
    /// Aggregator aggregation time in seconds.
    pub aggregators: BTreeMap<String, f64>,
}

/// Bills each round of one session: bytes from the transport's per-link
/// counters, compute from timer deltas, latency from the session's
/// [`LatencyModel`].
pub struct RoundLedger {
    model: LatencyModel,
    round: u64,
    links: BTreeMap<(String, String), u64>,
    prev_party_timers: HashMap<String, PartyTimers>,
    prev_agg_times: HashMap<String, f64>,
    cumulative_latency_s: f64,
}

impl RoundLedger {
    /// A ledger for a session of `cfg`, with the latency model matching
    /// `cfg.cc_protected`.
    pub fn new(cfg: &DetaConfig) -> RoundLedger {
        let model = if cfg.cc_protected {
            LatencyModel::deta_default(cfg.link)
        } else {
            LatencyModel::ffl_default(cfg.link)
        };
        RoundLedger {
            model,
            round: 0,
            links: BTreeMap::new(),
            prev_party_timers: HashMap::new(),
            prev_agg_times: HashMap::new(),
            cumulative_latency_s: 0.0,
        }
    }

    /// Opens the billing window of `round`: snapshots the per-link
    /// delivered-byte counters before any of the round's traffic.
    pub fn open(&mut self, round: u64, network: &Network) {
        self.round = round;
        self.links = network.link_bytes();
    }

    /// Closes the window opened last and returns the round's metrics.
    ///
    /// - Upload bytes are the party→aggregator link delta and download
    ///   bytes the aggregator→party delta, with parties and aggregators
    ///   named by the keys of `timers`. Control-plane and
    ///   inter-aggregator traffic rides other links and is never billed.
    /// - Compute terms are the largest per-node timer deltas since the
    ///   previous round.
    /// - `losses` are the trainers' losses in party-index order; the
    ///   train loss is their mean, summed in that order.
    /// - Per-party byte figures average over the `active` parties.
    /// - `eval` is the `(test_loss, test_accuracy)` of the synchronized
    ///   model.
    pub fn close(
        &mut self,
        network: &Network,
        timers: &NodeTimers,
        losses: &[f32],
        active: usize,
        eval: (f32, f32),
    ) -> RoundMetrics {
        let (parties, aggs) = (&timers.parties, &timers.aggregators);
        let (mut upload_bytes, mut download_bytes) = (0u64, 0u64);
        for (link, bytes) in &network.link_bytes() {
            let (from, to) = link;
            let delta = bytes - self.links.get(link).copied().unwrap_or(0);
            if parties.contains_key(from) && aggs.contains_key(to) {
                upload_bytes += delta;
            } else if aggs.contains_key(from) && parties.contains_key(to) {
                download_bytes += delta;
            }
        }

        let mut party = PartyTimers::default();
        for (name, cum) in parties {
            let prev = self.prev_party_timers.insert(name.clone(), *cum);
            let prev = prev.unwrap_or_default();
            party.train_s = party.train_s.max(cum.train_s - prev.train_s);
            party.transform_s = party.transform_s.max(cum.transform_s - prev.transform_s);
            party.crypto_s = party.crypto_s.max(cum.crypto_s - prev.crypto_s);
        }
        let mut max_aggregate_s = 0.0f64;
        for (name, &cum) in aggs {
            let prev = self.prev_agg_times.insert(name.clone(), cum);
            max_aggregate_s = max_aggregate_s.max(cum - prev.unwrap_or_default());
        }

        let active = active.max(1) as u64;
        let latency = self.model.round(&RoundInputs {
            max_party_train_s: party.train_s,
            max_party_transform_s: party.transform_s,
            max_party_crypto_s: party.crypto_s,
            upload_bytes_per_party: upload_bytes / active,
            download_bytes_per_party: download_bytes / active,
            max_aggregate_s,
            n_aggregators: aggs.len(),
        });
        let round_latency_s = latency.total();
        self.cumulative_latency_s += round_latency_s;
        // Folded from +0.0: `Sum` starts from -0.0, which would make a
        // round without trainers report a train loss of -0.0.
        let loss_sum = losses.iter().fold(0.0f32, |sum, l| sum + l);
        RoundMetrics {
            round: self.round,
            train_loss: loss_sum / losses.len().max(1) as f32,
            test_loss: eval.0,
            test_accuracy: eval.1,
            latency,
            round_latency_s,
            cumulative_latency_s: self.cumulative_latency_s,
            upload_bytes,
            download_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(participation: Option<usize>) -> DetaConfig {
        DetaConfig {
            participation,
            seed: 7,
            ..DetaConfig::deta(6, 1)
        }
    }

    #[test]
    fn full_participation_trains_every_present_party() {
        let plan = RoundPlan::for_round(&cfg(None), 3, (0..6).collect(), &[1, 2, 4]);
        assert_eq!(plan.trainers, vec![1, 2, 4]);
        assert_eq!(plan.reporter, Some(1));
        assert!(plan.trains(2) && !plan.trains(0));
    }

    #[test]
    fn quorum_draw_is_deterministic_and_limited_to_present() {
        let all: Vec<usize> = (0..6).collect();
        let a = RoundPlan::for_round(&cfg(Some(3)), 5, all.clone(), &all);
        assert_eq!(a, RoundPlan::for_round(&cfg(Some(3)), 5, all.clone(), &all));
        assert_eq!(a.trainers.len(), 3);
        // Dropping a party after the draw removes it from the trainers
        // without redrawing the others.
        let gone = a.trainers[0];
        let present: Vec<usize> = all.iter().copied().filter(|&i| i != gone).collect();
        let b = RoundPlan::for_round(&cfg(Some(3)), 5, all, &present);
        assert_eq!(b.trainers, a.trainers[1..].to_vec());
    }

    #[test]
    fn ledger_bills_party_aggregator_links_only() {
        let net = Network::new();
        let p = net.register("party-0");
        let a = net.register("agg-0");
        let f = net.register("agg-1");
        let mut ledger = RoundLedger::new(&cfg(None));
        p.send("agg-0", vec![0u8; 100]).unwrap();
        ledger.open(1, &net);
        p.send("agg-0", vec![0u8; 40]).unwrap();
        a.send("party-0", vec![0u8; 30]).unwrap();
        f.send("agg-0", vec![0u8; 500]).unwrap();
        let timers = NodeTimers {
            parties: [("party-0".to_string(), PartyTimers::default())].into(),
            aggregators: [("agg-0".to_string(), 0.5), ("agg-1".to_string(), 0.25)].into(),
        };
        let m = ledger.close(&net, &timers, &[1.0, 2.0], 1, (0.5, 0.75));
        assert_eq!((m.round, m.upload_bytes, m.download_bytes), (1, 40, 30));
        assert_eq!(
            (m.train_loss, m.test_loss, m.test_accuracy),
            (1.5, 0.5, 0.75)
        );
        assert_eq!(m.latency.aggregate_s, 0.5 * 1.08);
        assert_eq!(m.cumulative_latency_s, m.round_latency_s);
        // The next round bills timer deltas, not cumulative timers.
        ledger.open(2, &net);
        let m2 = ledger.close(&net, &timers, &[], 1, (0.0, 0.0));
        assert_eq!(
            (m2.upload_bytes, m2.latency.aggregate_s, m2.train_loss),
            (0, 0.0, 0.0)
        );
        assert_eq!(
            m2.cumulative_latency_s,
            m.round_latency_s + m2.round_latency_s
        );
    }
}
