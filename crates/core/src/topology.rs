//! Partial-synchronization topology: a random directed ring over the
//! selected devices (paper §III-C), with the §III-D bypass operation for
//! fault tolerance.

use hadfl_simnet::{BandwidthMatrix, DeviceId};
use hadfl_tensor::SeedStream;
use serde::{Deserialize, Serialize};

use crate::error::HadflError;

/// A directed ring over the devices selected for partial synchronization.
///
/// Device order is random (the strategy generator "randomly determines a
/// directed ring"); each member sends to its downstream neighbour during
/// the gossip scatter-gather.
///
/// # Example
///
/// ```
/// use hadfl::topology::Ring;
/// use hadfl_simnet::DeviceId;
/// use hadfl_tensor::SeedStream;
///
/// # fn main() -> Result<(), hadfl::HadflError> {
/// let members = vec![DeviceId(0), DeviceId(2), DeviceId(3)];
/// let ring = Ring::random(&members, &mut SeedStream::new(7))?;
/// assert_eq!(ring.len(), 3);
/// let down = ring.downstream_of(DeviceId(2)).expect("member");
/// assert_ne!(down, DeviceId(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ring {
    order: Vec<DeviceId>,
}

impl Ring {
    /// Builds a ring in the given (already randomized) order.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] for fewer than 2 members or
    /// duplicate members.
    pub fn from_order(order: Vec<DeviceId>) -> Result<Self, HadflError> {
        if order.len() < 2 {
            return Err(HadflError::InvalidConfig(format!(
                "a ring needs at least 2 members, got {}",
                order.len()
            )));
        }
        let mut dedup = order.clone();
        dedup.sort_unstable();
        dedup.dedup();
        if dedup.len() != order.len() {
            return Err(HadflError::InvalidConfig(format!(
                "duplicate members in ring {order:?}"
            )));
        }
        Ok(Ring { order })
    }

    /// Builds a uniformly random directed ring over `members`.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] for fewer than 2 members or
    /// duplicates.
    pub fn random(members: &[DeviceId], rng: &mut SeedStream) -> Result<Self, HadflError> {
        let mut order = members.to_vec();
        rng.shuffle(&mut order);
        Ring::from_order(order)
    }

    /// Builds a bandwidth-aware ring over `members` under a
    /// heterogeneous network (the paper's future-work optimization):
    /// a greedy nearest-neighbour order, always hopping to the unvisited
    /// member with the highest outgoing bandwidth. On clustered networks
    /// this keeps the ring inside fast domains and crosses slow uplinks
    /// only the unavoidable minimum number of times.
    ///
    /// The start member is randomized so repeated rounds still vary.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] for fewer than 2 members or
    /// duplicates, and [`HadflError::Sim`] for members outside the
    /// matrix.
    pub fn greedy_bandwidth(
        members: &[DeviceId],
        net: &BandwidthMatrix,
        rng: &mut SeedStream,
    ) -> Result<Self, HadflError> {
        if members.len() < 2 {
            return Err(HadflError::InvalidConfig(format!(
                "a ring needs at least 2 members, got {}",
                members.len()
            )));
        }
        let mut remaining = members.to_vec();
        let start = remaining.swap_remove(rng.index(remaining.len()));
        let mut order = vec![start];
        while !remaining.is_empty() {
            let current = *order.last().expect("order starts non-empty");
            let mut best = 0;
            let mut best_bw = -1.0f64;
            for (i, &candidate) in remaining.iter().enumerate() {
                let bw = net.bandwidth(current, candidate)?;
                // Ties break toward the lower device id for determinism.
                if bw > best_bw || (bw == best_bw && candidate < remaining[best]) {
                    best = i;
                    best_bw = bw;
                }
            }
            order.push(remaining.swap_remove(best));
        }
        Ring::from_order(order)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` when the ring has no members (never true for a
    /// constructed ring; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The members in ring order.
    pub fn members(&self) -> &[DeviceId] {
        &self.order
    }

    /// Is `device` part of the ring?
    pub fn contains(&self, device: DeviceId) -> bool {
        self.order.contains(&device)
    }

    /// The device `device` sends to.
    pub fn downstream_of(&self, device: DeviceId) -> Option<DeviceId> {
        let i = self.order.iter().position(|&d| d == device)?;
        Some(self.order[(i + 1) % self.order.len()])
    }

    /// Removes a dead member, reconnecting its upstream directly to its
    /// downstream — the paper's §III-D bypass. Returns the shrunken ring,
    /// or `None` if fewer than 2 members would remain (the ring dissolves
    /// and aggregation this round degenerates to the survivor's model).
    pub fn bypass(&self, dead: DeviceId) -> Option<Ring> {
        if !self.contains(dead) {
            return Some(self.clone());
        }
        if self.order.len() <= 2 {
            return None;
        }
        let order: Vec<DeviceId> = self.order.iter().copied().filter(|&d| d != dead).collect();
        Some(Ring { order })
    }
}

impl std::fmt::Display for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, d) in self.order.iter().enumerate() {
            if i > 0 {
                write!(f, "→")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "→{}", self.order[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[usize]) -> Vec<DeviceId> {
        xs.iter().copied().map(DeviceId).collect()
    }

    #[test]
    fn neighbours_wrap_around() {
        let ring = Ring::from_order(ids(&[3, 1, 4])).unwrap();
        assert_eq!(ring.downstream_of(DeviceId(3)), Some(DeviceId(1)));
        assert_eq!(ring.downstream_of(DeviceId(4)), Some(DeviceId(3)));
        assert_eq!(ring.downstream_of(DeviceId(9)), None);
    }

    #[test]
    fn random_ring_is_a_permutation_of_members() {
        let members = ids(&[0, 1, 2, 3, 4]);
        let ring = Ring::random(&members, &mut SeedStream::new(1)).unwrap();
        let mut sorted = ring.members().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, members);
    }

    #[test]
    fn random_rings_differ_across_seeds() {
        let members = ids(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let a = Ring::random(&members, &mut SeedStream::new(1)).unwrap();
        let b = Ring::random(&members, &mut SeedStream::new(2)).unwrap();
        assert_ne!(a, b, "8! orderings; a collision is astronomically unlikely");
        let a2 = Ring::random(&members, &mut SeedStream::new(1)).unwrap();
        assert_eq!(a, a2, "same seed must reproduce the ring");
    }

    #[test]
    fn bypass_removes_and_reconnects() {
        // 1→2→3→1; device 2 dies; 1 must now send to 3 (the paper's Fig. 2b).
        let ring = Ring::from_order(ids(&[1, 2, 3])).unwrap();
        let fixed = ring.bypass(DeviceId(2)).expect("3-ring survives one death");
        assert_eq!(fixed.members(), ids(&[1, 3]).as_slice());
        assert_eq!(fixed.downstream_of(DeviceId(1)), Some(DeviceId(3)));
    }

    #[test]
    fn bypass_of_nonmember_is_identity() {
        let ring = Ring::from_order(ids(&[1, 2])).unwrap();
        assert_eq!(ring.bypass(DeviceId(9)), Some(ring.clone()));
    }

    #[test]
    fn two_ring_dissolves_on_death() {
        let ring = Ring::from_order(ids(&[1, 2])).unwrap();
        assert_eq!(ring.bypass(DeviceId(1)), None);
    }

    #[test]
    fn rejects_degenerate_rings() {
        assert!(Ring::from_order(ids(&[1])).is_err());
        assert!(Ring::from_order(ids(&[])).is_err());
        assert!(Ring::from_order(ids(&[1, 1, 2])).is_err());
    }

    #[test]
    fn greedy_ring_minimizes_slow_crossings() {
        // Two 2-device clusters: fast inside, slow across. Any ring over
        // all four must cross the boundary exactly twice; the naive
        // alternating order crosses four times.
        let net = BandwidthMatrix::two_clusters(4, 2, 0.0, 1e9, 1e6).unwrap();
        let members = ids(&[0, 1, 2, 3]);
        let slow_links = |ring: &Ring| {
            ring.members()
                .iter()
                .enumerate()
                .filter(|&(i, &from)| {
                    let to = ring.members()[(i + 1) % ring.len()];
                    net.bandwidth(from, to).unwrap() < 1e9
                })
                .count()
        };
        let alternating = Ring::from_order(ids(&[0, 2, 1, 3])).unwrap();
        assert_eq!(slow_links(&alternating), 4);
        for seed in 0..8 {
            let greedy =
                Ring::greedy_bandwidth(&members, &net, &mut SeedStream::new(seed)).unwrap();
            assert_eq!(slow_links(&greedy), 2, "seed {seed}: {greedy}");
        }
    }

    #[test]
    fn greedy_ring_is_a_permutation() {
        let net = BandwidthMatrix::uniform(5, 0.0, 1e9).unwrap();
        let members = ids(&[0, 1, 2, 3, 4]);
        let ring = Ring::greedy_bandwidth(&members, &net, &mut SeedStream::new(3)).unwrap();
        let mut sorted = ring.members().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, members);
    }

    #[test]
    fn greedy_ring_validates() {
        let net = BandwidthMatrix::uniform(2, 0.0, 1e9).unwrap();
        assert!(Ring::greedy_bandwidth(&ids(&[0]), &net, &mut SeedStream::new(0)).is_err());
        // member outside the matrix
        assert!(Ring::greedy_bandwidth(&ids(&[0, 5]), &net, &mut SeedStream::new(0)).is_err());
    }

    #[test]
    fn display_shows_cycle() {
        let ring = Ring::from_order(ids(&[0, 2])).unwrap();
        assert_eq!(ring.to_string(), "dev0→dev2→dev0");
    }
}
