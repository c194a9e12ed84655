//! Fault-tolerant execution of one partial synchronization over a ring
//! (paper §III-D and Fig. 2b).
//!
//! The selected devices exchange parameters scatter-gather style. If a
//! member disconnected since planning, its downstream neighbour times
//! out, handshakes to confirm the death, warns the upstream neighbour,
//! and the ring bypasses the dead device ([`crate::topology::Ring::bypass`]).

use std::collections::BTreeMap;

use hadfl_simnet::{DeviceId, FaultPlan, LinkModel, VirtualTime};
use serde::{Deserialize, Serialize};

use crate::aggregate::{
    average_params, record_gossip_traffic, ring_allreduce_cost, weighted_average_params,
};
use crate::error::HadflError;
use crate::topology::Ring;

/// The result of one partial synchronization attempt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyncOutcome {
    /// The merged (averaged) parameter vector every survivor now holds.
    pub merged: Vec<f32>,
    /// Ring members that survived and contributed, sorted by id.
    pub participants: Vec<DeviceId>,
    /// Members found dead and bypassed.
    pub bypassed: Vec<DeviceId>,
    /// Virtual seconds the synchronization took, including timeout and
    /// handshake penalties for each bypass.
    pub comm_secs: f64,
    /// `true` when fewer than two members survived, so no exchange
    /// actually happened (the "merged" model is the lone survivor's).
    pub dissolved: bool,
}

/// Executes one partial synchronization over `ring` at time `at`.
///
/// `model_bytes` sets the transfer time of the synchronization while
/// `wire_bytes` sets the volume of the transfers handed to `send` (see
/// [`record_gossip_traffic`]); they are equal
/// unless an experiment overrides the reported wire size
/// (`SimOptions::wire_model_bytes`), which must not alter timing.
///
/// `params` maps each ring member to its current parameter vector;
/// liveness is checked against `faults` at `at`. Per dead member the
/// surviving downstream pays `handshake_timeout_secs` of waiting plus two
/// link latencies (handshake to the dead device, warning to the
/// upstream), after which the ring is bypassed.
///
/// When `weights` is supplied (shard sizes, the Eq. (2) `n_k/N`
/// weighting for non-IID data), the merge is a weighted average over the
/// survivors; otherwise it is uniform.
///
/// # Errors
///
/// Returns [`HadflError::InvalidConfig`] if a ring member has no entry in
/// `params` or parameter lengths disagree, and
/// [`HadflError::ClusterDead`] (round 0 placeholder, re-tagged by the
/// driver) if *no* member survives.
#[allow(clippy::too_many_arguments)]
pub fn run_partial_sync(
    ring: &Ring,
    params: &BTreeMap<DeviceId, Vec<f32>>,
    weights: Option<&BTreeMap<DeviceId, f64>>,
    faults: &FaultPlan,
    at: VirtualTime,
    link: &LinkModel,
    handshake_timeout_secs: f64,
    model_bytes: u64,
    wire_bytes: u64,
    send: impl FnMut(DeviceId, DeviceId, u64),
) -> Result<SyncOutcome, HadflError> {
    for member in ring.members() {
        if !params.contains_key(member) {
            return Err(HadflError::InvalidConfig(format!(
                "no parameters for ring member {member}"
            )));
        }
    }

    let mut live = ring.clone();
    let mut bypassed = Vec::new();
    let mut penalty_secs = 0.0;
    // Walk members in ring order so each bypass reflects the paper's
    // downstream-detects-upstream procedure.
    for &member in ring.members() {
        if faults.is_up(member, at) {
            continue;
        }
        bypassed.push(member);
        // Downstream waits, handshakes the dead device, then warns the
        // dead device's upstream: timeout + 2 one-way latencies.
        penalty_secs += handshake_timeout_secs + 2.0 * link.latency_secs();
        live = match live.bypass(member) {
            Some(next) => next,
            None => {
                // Fewer than 2 members remain: aggregation dissolves.
                let survivor = ring
                    .members()
                    .iter()
                    .copied()
                    .find(|&d| faults.is_up(d, at));
                let Some(survivor) = survivor else {
                    return Err(HadflError::ClusterDead { round: 0 });
                };
                return Ok(SyncOutcome {
                    merged: params[&survivor].clone(),
                    participants: vec![survivor],
                    bypassed,
                    comm_secs: penalty_secs,
                    dissolved: true,
                });
            }
        };
    }

    // Time is driven by the bytes actually moved (`model_bytes`); the
    // ledger is driven by `wire_bytes`, which experiments may override to
    // paper-scale model sizes without perturbing the learning dynamics.
    let secs = ring_allreduce_cost(live.members().len(), model_bytes, link)?.secs;
    record_gossip_traffic(live.members(), wire_bytes, link, send)?;
    let vectors: Vec<&[f32]> = live
        .members()
        .iter()
        .map(|d| params[d].as_slice())
        .collect();
    let merged = match weights {
        Some(w) => {
            let member_weights: Vec<f64> = live
                .members()
                .iter()
                .map(|d| w.get(d).copied().unwrap_or(1.0))
                .collect();
            weighted_average_params(&vectors, &member_weights)?
        }
        None => average_params(&vectors)?,
    };
    let mut participants = live.members().to_vec();
    participants.sort_unstable();
    Ok(SyncOutcome {
        merged,
        participants,
        bypassed,
        comm_secs: penalty_secs + secs,
        dissolved: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadfl_simnet::Outage;

    fn t(s: f64) -> VirtualTime {
        VirtualTime::from_secs(s)
    }

    fn params_for(ids: &[usize], value: f32) -> BTreeMap<DeviceId, Vec<f32>> {
        ids.iter()
            .map(|&i| (DeviceId(i), vec![value * (i as f32 + 1.0); 4]))
            .collect()
    }

    fn ring_of(ids: &[usize]) -> Ring {
        Ring::from_order(ids.iter().copied().map(DeviceId).collect()).unwrap()
    }

    #[test]
    fn healthy_ring_averages_everyone() {
        let ring = ring_of(&[0, 1]);
        let mut params = BTreeMap::new();
        params.insert(DeviceId(0), vec![0.0; 3]);
        params.insert(DeviceId(1), vec![2.0; 3]);
        let mut sent = Vec::new();
        let out = run_partial_sync(
            &ring,
            &params,
            None,
            &FaultPlan::none(),
            t(1.0),
            &LinkModel::default(),
            0.05,
            12,
            12,
            |from, to, bytes| sent.push((from, to, bytes)),
        )
        .unwrap();
        assert_eq!(out.merged, vec![1.0; 3]);
        assert_eq!(out.participants, vec![DeviceId(0), DeviceId(1)]);
        assert!(out.bypassed.is_empty());
        assert!(!out.dissolved);
        assert!(out.comm_secs > 0.0);
        assert_eq!(
            sent,
            vec![
                (DeviceId(0), DeviceId(1), 12),
                (DeviceId(1), DeviceId(0), 12)
            ]
        );
    }

    #[test]
    fn weighted_merge_follows_shard_sizes() {
        let ring = ring_of(&[0, 1]);
        let mut params = BTreeMap::new();
        params.insert(DeviceId(0), vec![0.0; 2]);
        params.insert(DeviceId(1), vec![4.0; 2]);
        let mut weights = BTreeMap::new();
        weights.insert(DeviceId(0), 3.0);
        weights.insert(DeviceId(1), 1.0);
        let out = run_partial_sync(
            &ring,
            &params,
            Some(&weights),
            &FaultPlan::none(),
            t(0.0),
            &LinkModel::default(),
            0.05,
            8,
            8,
            |_, _, _| {},
        )
        .unwrap();
        // 0.75·0 + 0.25·4 = 1
        assert_eq!(out.merged, vec![1.0; 2]);
    }

    #[test]
    fn dead_member_is_bypassed_with_penalty() {
        // The paper's Fig. 2b walkthrough: device 2 dies, 1→2→3 becomes 1→3.
        let ring = ring_of(&[1, 2, 3]);
        let params = params_for(&[1, 2, 3], 1.0);
        let faults = FaultPlan::new(vec![Outage::crash(DeviceId(2), t(0.5))]).unwrap();
        let link = LinkModel::new(0.001, 1e9).unwrap();
        let mut sent = Vec::new();
        let out = run_partial_sync(
            &ring,
            &params,
            None,
            &faults,
            t(1.0),
            &link,
            0.05,
            100,
            100,
            |from, to, bytes| sent.push((from, to, bytes)),
        )
        .unwrap();
        assert_eq!(out.bypassed, vec![DeviceId(2)]);
        assert_eq!(out.participants, vec![DeviceId(1), DeviceId(3)]);
        // merged = avg of devices 1 and 3 params = avg(2.0, 4.0) = 3.0
        assert_eq!(out.merged, vec![3.0; 4]);
        // penalty: timeout + 2 latency = 0.052, plus the 2-ring gossip
        assert!(out.comm_secs > 0.052, "penalty missing: {}", out.comm_secs);
        // the dead device moved no bytes
        assert!(sent
            .iter()
            .all(|&(from, to, _)| from != DeviceId(2) && to != DeviceId(2)));
    }

    #[test]
    fn two_ring_with_one_death_dissolves() {
        let ring = ring_of(&[0, 1]);
        let params = params_for(&[0, 1], 1.0);
        let faults = FaultPlan::new(vec![Outage::crash(DeviceId(1), t(0.0))]).unwrap();
        let mut sent = Vec::new();
        let out = run_partial_sync(
            &ring,
            &params,
            None,
            &faults,
            t(1.0),
            &LinkModel::default(),
            0.05,
            100,
            100,
            |from, to, bytes| sent.push((from, to, bytes)),
        )
        .unwrap();
        assert!(out.dissolved);
        assert_eq!(out.participants, vec![DeviceId(0)]);
        assert_eq!(out.merged, params[&DeviceId(0)]);
        assert!(sent.is_empty(), "no exchange when dissolved");
    }

    #[test]
    fn all_dead_is_cluster_death() {
        let ring = ring_of(&[0, 1]);
        let params = params_for(&[0, 1], 1.0);
        let faults = FaultPlan::new(vec![
            Outage::crash(DeviceId(0), t(0.0)),
            Outage::crash(DeviceId(1), t(0.0)),
        ])
        .unwrap();
        let err = run_partial_sync(
            &ring,
            &params,
            None,
            &faults,
            t(1.0),
            &LinkModel::default(),
            0.05,
            100,
            100,
            |_, _, _| {},
        )
        .unwrap_err();
        assert!(matches!(err, HadflError::ClusterDead { .. }));
    }

    #[test]
    fn missing_params_are_rejected() {
        let ring = ring_of(&[0, 1]);
        let params = params_for(&[0], 1.0);
        assert!(run_partial_sync(
            &ring,
            &params,
            None,
            &FaultPlan::none(),
            t(0.0),
            &LinkModel::default(),
            0.05,
            100,
            100,
            |_, _, _| {},
        )
        .is_err());
    }

    #[test]
    fn multiple_deaths_accumulate_penalties() {
        let ring = ring_of(&[0, 1, 2, 3]);
        let params = params_for(&[0, 1, 2, 3], 1.0);
        let faults = FaultPlan::new(vec![
            Outage::crash(DeviceId(1), t(0.0)),
            Outage::crash(DeviceId(3), t(0.0)),
        ])
        .unwrap();
        let link = LinkModel::new(0.001, 1e9).unwrap();
        let out = run_partial_sync(
            &ring,
            &params,
            None,
            &faults,
            t(1.0),
            &link,
            0.05,
            100,
            100,
            |_, _, _| {},
        )
        .unwrap();
        assert_eq!(out.bypassed.len(), 2);
        assert_eq!(out.participants, vec![DeviceId(0), DeviceId(2)]);
        assert!(out.comm_secs > 2.0 * 0.052);
    }
}
