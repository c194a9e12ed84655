//! Partial model aggregation math and gossip communication costs
//! (paper §III-D).
//!
//! The selected devices exchange parameters in a scatter-gather ring
//! (Horovod-style): each of the `n` members splits its vector into `n`
//! chunks and, over `2(n−1)` steps, every chunk is reduced and then
//! redistributed. The merged model is the *average* of the members'
//! models (Eq. 5 over the selected set).

use hadfl_simnet::{BandwidthMatrix, DeviceId, LinkModel};
use serde::{Deserialize, Serialize};

use crate::error::HadflError;

/// Averages parameter vectors elementwise (Eq. 5 restricted to the
/// selected set — see DESIGN.md §6 on the `1/N_p` normalization).
///
/// # Errors
///
/// Returns [`HadflError::InvalidConfig`] if no vectors are given or their
/// lengths disagree.
///
/// # Example
///
/// ```
/// use hadfl::aggregate::average_params;
///
/// # fn main() -> Result<(), hadfl::HadflError> {
/// let merged = average_params(&[&[1.0, 3.0][..], &[3.0, 5.0][..]])?;
/// assert_eq!(merged, vec![2.0, 4.0]);
/// # Ok(())
/// # }
/// ```
pub fn average_params(params: &[&[f32]]) -> Result<Vec<f32>, HadflError> {
    let first = params
        .first()
        .ok_or_else(|| HadflError::InvalidConfig("averaging zero models".into()))?;
    let len = first.len();
    if params.iter().any(|p| p.len() != len) {
        return Err(HadflError::InvalidConfig(
            "parameter vectors differ in length".into(),
        ));
    }
    let scale = 1.0 / params.len() as f32;
    let _prof = hadfl_prof::scope_bytes("average_params", 4 * (len * params.len()) as u64);
    let mut out = vec![0.0f32; len];
    // Parallel over fixed element chunks; each element still sums the
    // models in ascending order and scales last, exactly like the
    // serial loop, so the merge is bit-identical at any thread count.
    let work = (len as u64) * (params.len() as u64);
    hadfl_par::plan(work).chunks_mut(&mut out, hadfl_par::F32_CHUNK, |chunk, ochunk| {
        let base = chunk * hadfl_par::F32_CHUNK;
        for p in params {
            let pchunk = &p[base..base + ochunk.len()];
            for (o, &v) in ochunk.iter_mut().zip(pchunk) {
                *o += v;
            }
        }
        for o in ochunk {
            *o *= scale;
        }
    });
    Ok(out)
}

/// Elementwise `acc[i] += src[i]` — the running-sum step of the
/// token-pass ring reduce, parallel over fixed element chunks.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn accumulate_params(acc: &mut [f32], src: &[f32]) {
    assert_eq!(acc.len(), src.len(), "accumulate length mismatch");
    let _prof = hadfl_prof::scope_bytes("accumulate_params", 8 * acc.len() as u64);
    hadfl_par::par_chunks_mut(acc, hadfl_par::F32_CHUNK, |chunk, achunk| {
        let base = chunk * hadfl_par::F32_CHUNK;
        let schunk = &src[base..base + achunk.len()];
        for (a, &s) in achunk.iter_mut().zip(schunk) {
            *a += s;
        }
    });
}

/// Elementwise `params[i] *= k` — the final `1/n` normalization of the
/// ring reduce, parallel over fixed element chunks.
pub fn scale_params(params: &mut [f32], k: f32) {
    let _prof = hadfl_prof::scope_bytes("scale_params", 4 * params.len() as u64);
    hadfl_par::par_chunks_mut(params, hadfl_par::F32_CHUNK, |_, chunk| {
        for p in chunk {
            *p *= k;
        }
    });
}

/// Elementwise `acc[i] = (acc[i] + src[i]) * k` — the ring reduce's
/// closing hop in one pass over the model instead of
/// [`accumulate_params`] then [`scale_params`]. Each element takes the
/// same two separately rounded `f32` operations in the same order (Rust
/// never contracts them into a fused multiply-add), so the result is
/// bit-identical to the two-pass form at any thread count.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn accumulate_scaled_params(acc: &mut [f32], src: &[f32], k: f32) {
    assert_eq!(acc.len(), src.len(), "accumulate length mismatch");
    let _prof = hadfl_prof::scope_bytes("accumulate_scaled_params", 8 * acc.len() as u64);
    hadfl_par::par_chunks_mut(acc, hadfl_par::F32_CHUNK, |chunk, achunk| {
        let base = chunk * hadfl_par::F32_CHUNK;
        let schunk = &src[base..base + achunk.len()];
        for (a, &s) in achunk.iter_mut().zip(schunk) {
            *a = (*a + s) * k;
        }
    });
}

/// Weighted elementwise average of parameter vectors — the Eq. (2)
/// `n_k / N` weighting for non-IID shards (the paper's future-work
/// "data distribution" optimization).
///
/// Weights need not be normalized; they are divided by their sum.
///
/// # Errors
///
/// Returns [`HadflError::InvalidConfig`] if inputs are empty, lengths
/// disagree, or weights are non-positive/non-finite.
///
/// # Example
///
/// ```
/// use hadfl::aggregate::weighted_average_params;
///
/// # fn main() -> Result<(), hadfl::HadflError> {
/// // Device 0 holds 3x the data of device 1.
/// let merged = weighted_average_params(&[&[0.0][..], &[4.0][..]], &[3.0, 1.0])?;
/// assert_eq!(merged, vec![1.0]);
/// # Ok(())
/// # }
/// ```
pub fn weighted_average_params(params: &[&[f32]], weights: &[f64]) -> Result<Vec<f32>, HadflError> {
    let first = params
        .first()
        .ok_or_else(|| HadflError::InvalidConfig("averaging zero models".into()))?;
    let len = first.len();
    if params.iter().any(|p| p.len() != len) {
        return Err(HadflError::InvalidConfig(
            "parameter vectors differ in length".into(),
        ));
    }
    if weights.len() != params.len() {
        return Err(HadflError::InvalidConfig(format!(
            "{} weights for {} models",
            weights.len(),
            params.len()
        )));
    }
    if weights.iter().any(|&w| !(w > 0.0) || !w.is_finite()) {
        return Err(HadflError::InvalidConfig(format!(
            "invalid weights {weights:?}"
        )));
    }
    // lint:allow(float-reduce-order): f64 total of one weight per member (a handful of
    // values, always serial) — the chunked discipline applies to the param vectors below
    let total: f64 = weights.iter().sum();
    let scales: Vec<f32> = weights.iter().map(|&w| (w / total) as f32).collect();
    let mut out = vec![0.0f32; len];
    // Same chunking discipline as [`average_params`]: ascending model
    // order per element, fixed chunk boundaries.
    let work = (len as u64) * (params.len() as u64);
    hadfl_par::plan(work).chunks_mut(&mut out, hadfl_par::F32_CHUNK, |chunk, ochunk| {
        let base = chunk * hadfl_par::F32_CHUNK;
        for (p, &scale) in params.iter().zip(&scales) {
            let pchunk = &p[base..base + ochunk.len()];
            for (o, &v) in ochunk.iter_mut().zip(pchunk) {
                *o += scale * v;
            }
        }
    });
    Ok(out)
}

/// Blends a broadcast model into a local one:
/// `local ← β·incoming + (1−β)·local` — what unselected devices do with
/// the model they receive ("integrate the received model parameters with
/// local parameters", §III-D).
///
/// # Errors
///
/// Returns [`HadflError::InvalidConfig`] if the lengths differ or β is
/// outside `[0, 1]`.
pub fn blend_params(local: &mut [f32], incoming: &[f32], beta: f32) -> Result<(), HadflError> {
    if local.len() != incoming.len() {
        return Err(HadflError::InvalidConfig(format!(
            "blend length mismatch: {} vs {}",
            local.len(),
            incoming.len()
        )));
    }
    if !(0.0..=1.0).contains(&beta) {
        return Err(HadflError::InvalidConfig(format!(
            "blend beta {beta} outside [0, 1]"
        )));
    }
    let _prof = hadfl_prof::scope_bytes("blend_params", 8 * local.len() as u64);
    hadfl_par::par_chunks_mut(local, hadfl_par::F32_CHUNK, |chunk, lchunk| {
        let base = chunk * hadfl_par::F32_CHUNK;
        let ichunk = &incoming[base..base + lchunk.len()];
        for (l, &inc) in lchunk.iter_mut().zip(ichunk) {
            *l = beta * inc + (1.0 - beta) * *l;
        }
    });
    Ok(())
}

/// The communication cost of one ring scatter-gather over `n` members
/// with a model of `model_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GossipCost {
    /// Virtual seconds until every member holds the merged model.
    pub secs: f64,
    /// Bytes each member sends (equals bytes each member receives).
    pub bytes_per_member: u64,
}

/// Cost of a ring scatter-gather all-reduce: `2(n−1)` pipeline steps,
/// each moving a `model_bytes / n` chunk per member.
///
/// For `n = 1` the cost is zero (a degenerate "ring" after every peer
/// died has nothing to exchange).
///
/// # Errors
///
/// Returns [`HadflError::InvalidConfig`] if `n` is zero.
pub fn ring_allreduce_cost(
    n: usize,
    model_bytes: u64,
    link: &LinkModel,
) -> Result<GossipCost, HadflError> {
    if n == 0 {
        return Err(HadflError::InvalidConfig(
            "all-reduce over zero members".into(),
        ));
    }
    if n == 1 {
        return Ok(GossipCost {
            secs: 0.0,
            bytes_per_member: 0,
        });
    }
    let chunk = (model_bytes as f64 / n as f64).ceil() as u64;
    let steps = 2 * (n - 1);
    let secs = steps as f64 * link.transfer_time(chunk);
    Ok(GossipCost {
        secs,
        bytes_per_member: steps as u64 * chunk,
    })
}

/// Sequential token-pass ring aggregation cost under a heterogeneous
/// network: a running sum travels the ring once (reduce) and the merged
/// model travels it once more (distribute), each hop carrying the full
/// model — the scheme [`crate::exec`] implements. Unlike a pipelined
/// all-reduce, which only its slowest link paces, *every* link's speed
/// contributes, so ring ordering matters (see
/// [`crate::topology::Ring::greedy_bandwidth`]) even when the
/// bottleneck is unavoidable.
///
/// # Errors
///
/// Returns [`HadflError::InvalidConfig`] for fewer than 2 members and
/// propagates matrix errors for out-of-range devices.
pub fn ring_token_pass_cost(
    order: &[DeviceId],
    model_bytes: u64,
    net: &BandwidthMatrix,
) -> Result<GossipCost, HadflError> {
    if order.len() < 2 {
        return Err(HadflError::InvalidConfig(format!(
            "token-pass ring needs at least 2 members, got {}",
            order.len()
        )));
    }
    let mut secs = 0.0;
    for (i, &from) in order.iter().enumerate() {
        let to = order[(i + 1) % order.len()];
        secs += 2.0 * net.transfer_time(from, to, model_bytes)?;
    }
    Ok(GossipCost {
        secs,
        bytes_per_member: 2 * model_bytes,
    })
}

/// Hands the gossip traffic of one partial synchronization to `send`,
/// one `(from, to, bytes)` transfer per ring member: each member sends
/// its chunks to its downstream neighbour.
///
/// `ring_order` is the members in ring order; traffic is
/// device-to-device only — no server is involved, which is the
/// decentralization claim the communication-volume experiment checks.
///
/// # Errors
///
/// Returns [`HadflError::InvalidConfig`] if `ring_order` is empty.
pub fn record_gossip_traffic(
    ring_order: &[DeviceId],
    model_bytes: u64,
    link: &LinkModel,
    mut send: impl FnMut(DeviceId, DeviceId, u64),
) -> Result<GossipCost, HadflError> {
    let cost = ring_allreduce_cost(ring_order.len(), model_bytes, link)?;
    if ring_order.len() >= 2 {
        for (i, &from) in ring_order.iter().enumerate() {
            let to = ring_order[(i + 1) % ring_order.len()];
            send(from, to, cost.bytes_per_member);
        }
    }
    Ok(cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_is_elementwise_mean() {
        let merged =
            average_params(&[&[0.0, 10.0][..], &[10.0, 20.0][..], &[20.0, 30.0][..]]).unwrap();
        assert_eq!(merged, vec![10.0, 20.0]);
    }

    #[test]
    fn average_of_one_is_identity() {
        assert_eq!(
            average_params(&[&[1.5, -2.0][..]]).unwrap(),
            vec![1.5, -2.0]
        );
    }

    #[test]
    fn average_validates() {
        assert!(average_params(&[]).is_err());
        assert!(average_params(&[&[1.0][..], &[1.0, 2.0][..]]).is_err());
    }

    #[test]
    fn weighted_average_reduces_to_uniform_for_equal_weights() {
        let refs: Vec<&[f32]> = vec![&[1.0, 5.0], &[3.0, 7.0]];
        let uniform = average_params(&refs).unwrap();
        let weighted = weighted_average_params(&refs, &[2.0, 2.0]).unwrap();
        assert_eq!(uniform, weighted);
    }

    #[test]
    fn weighted_average_follows_weights() {
        let merged = weighted_average_params(&[&[0.0][..], &[10.0][..]], &[9.0, 1.0]).unwrap();
        assert!((merged[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_average_validates() {
        assert!(weighted_average_params(&[], &[]).is_err());
        assert!(weighted_average_params(&[&[1.0][..]], &[1.0, 2.0]).is_err());
        assert!(weighted_average_params(&[&[1.0][..]], &[0.0]).is_err());
        assert!(weighted_average_params(&[&[1.0][..]], &[f64::NAN]).is_err());
        assert!(weighted_average_params(&[&[1.0][..], &[1.0, 2.0][..]], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn blend_interpolates() {
        let mut local = vec![0.0, 10.0];
        blend_params(&mut local, &[10.0, 0.0], 0.25).unwrap();
        assert_eq!(local, vec![2.5, 7.5]);
    }

    #[test]
    fn blend_beta_one_overwrites_and_zero_keeps() {
        let mut a = vec![1.0];
        blend_params(&mut a, &[9.0], 1.0).unwrap();
        assert_eq!(a, vec![9.0]);
        let mut b = vec![1.0];
        blend_params(&mut b, &[9.0], 0.0).unwrap();
        assert_eq!(b, vec![1.0]);
    }

    #[test]
    fn blend_validates() {
        let mut a = vec![1.0];
        assert!(blend_params(&mut a, &[1.0, 2.0], 0.5).is_err());
        assert!(blend_params(&mut a, &[1.0], 1.5).is_err());
        assert!(blend_params(&mut a, &[1.0], -0.1).is_err());
    }

    #[test]
    fn allreduce_cost_scales_with_members() {
        let link = LinkModel::new(0.0, 1000.0).unwrap();
        // n=2: 2 steps of 500-byte chunks = 2 * 0.5 s
        let c2 = ring_allreduce_cost(2, 1000, &link).unwrap();
        assert!((c2.secs - 1.0).abs() < 1e-9);
        assert_eq!(c2.bytes_per_member, 1000);
        // n=4: 6 steps of 250-byte chunks = 1.5 s
        let c4 = ring_allreduce_cost(4, 1000, &link).unwrap();
        assert!((c4.secs - 1.5).abs() < 1e-9);
        assert_eq!(c4.bytes_per_member, 1500);
    }

    #[test]
    fn allreduce_degenerate_cases() {
        let link = LinkModel::default();
        assert!(ring_allreduce_cost(0, 1000, &link).is_err());
        let c1 = ring_allreduce_cost(1, 1000, &link).unwrap();
        assert_eq!((c1.secs, c1.bytes_per_member), (0.0, 0));
    }

    #[test]
    fn token_pass_cost_counts_every_link() {
        let net = BandwidthMatrix::two_clusters(4, 2, 0.0, 1e9, 1e6).unwrap();
        let good = [DeviceId(0), DeviceId(1), DeviceId(2), DeviceId(3)]; // 2 crossings
        let bad = [DeviceId(0), DeviceId(2), DeviceId(1), DeviceId(3)]; // 4 crossings
        let g = ring_token_pass_cost(&good, 1_000_000, &net).unwrap();
        let b = ring_token_pass_cost(&bad, 1_000_000, &net).unwrap();
        assert!(b.secs > 1.9 * g.secs, "good {} bad {}", g.secs, b.secs);
        assert_eq!(g.bytes_per_member, 2_000_000);
        assert!(ring_token_pass_cost(&good[..1], 100, &net).is_err());
    }

    #[test]
    fn gossip_traffic_is_device_to_device_only() {
        let link = LinkModel::default();
        let mut sent = Vec::new();
        let ring = [DeviceId(0), DeviceId(2), DeviceId(3)];
        let cost = record_gossip_traffic(&ring, 3000, &link, |from, to, bytes| {
            sent.push((from, to, bytes))
        })
        .unwrap();
        // every member sends its downstream neighbour the same volume
        let each = cost.bytes_per_member;
        assert!(each > 0);
        assert_eq!(
            sent,
            vec![
                (DeviceId(0), DeviceId(2), each),
                (DeviceId(2), DeviceId(3), each),
                (DeviceId(3), DeviceId(0), each),
            ]
        );
    }
}
