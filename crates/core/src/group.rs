//! Hierarchical device grouping (paper §III-C, Fig. 2a): the partition.
//!
//! With many devices the coordinator splits them into groups. What the
//! groups then do — a ring per group every round, a ring of one
//! representative per group every `inter_group_every` rounds — is the
//! same round loop as the flat framework and lives in
//! [`crate::driver::run_hadfl`]; `HadflConfig::group_size` selects it.

use hadfl_simnet::DeviceId;

use crate::error::HadflError;

/// A partition of `0..devices` into contiguous groups of at most
/// `group_size` members.
///
/// # Example
///
/// ```
/// use hadfl::group::partition_groups;
///
/// # fn main() -> Result<(), hadfl::HadflError> {
/// let groups = partition_groups(7, 3)?;
/// assert_eq!(groups.len(), 3);
/// assert_eq!(groups[0].len(), 3);
/// assert_eq!(groups[2].len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn partition_groups(
    devices: usize,
    group_size: usize,
) -> Result<Vec<Vec<DeviceId>>, HadflError> {
    if group_size == 0 {
        return Err(HadflError::InvalidConfig(
            "group size must be positive".into(),
        ));
    }
    if devices == 0 {
        return Err(HadflError::InvalidConfig("no devices to group".into()));
    }
    Ok((0..devices)
        .map(DeviceId)
        .collect::<Vec<_>>()
        .chunks(group_size)
        .map(<[DeviceId]>::to_vec)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_all_devices() {
        let groups = partition_groups(10, 4).unwrap();
        assert_eq!(groups.len(), 3);
        let flat: Vec<usize> = groups.iter().flatten().map(|d| d.index()).collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn partition_validates() {
        assert!(partition_groups(0, 2).is_err());
        assert!(partition_groups(4, 0).is_err());
    }
}
