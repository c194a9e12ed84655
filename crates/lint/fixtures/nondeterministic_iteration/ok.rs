//! Known-clean for `nondeterministic-iteration`: point lookups,
//! ordered maps, and test-only iteration.

use std::collections::{BTreeMap, HashMap};

/// Point operations never observe hash order.
pub fn lookups(m: &mut HashMap<u32, u64>, k: u32) -> u64 {
    m.insert(k, 1);
    let mut total = m.len() as u64;
    if m.contains_key(&k) {
        total += m.get(&k).copied().unwrap_or(0);
    }
    m.remove(&k);
    total
}

/// BTreeMap iterates in key order — deterministic by construction.
pub fn ordered_digest(m: &BTreeMap<u32, u64>) -> u64 {
    let mut acc = 0u64;
    for (k, v) in m {
        acc = acc.wrapping_mul(31).wrapping_add(*k as u64 ^ *v);
    }
    acc
}

/// A point lookup through a poison-ignoring guard never observes
/// hash order.
pub fn lookup_poison_ignored(conns: &std::sync::Mutex<HashMap<u32, u64>>, k: u32) -> u64 {
    let live = conns.lock().unwrap_or_else(PoisonError::into_inner);
    live.get(&k).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn order_free_assertions_may_iterate() {
        let m: HashMap<u32, u64> = HashMap::new();
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.values().sum::<u64>(), 0);
    }
}
