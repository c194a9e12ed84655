//! Seeded violations for `nondeterministic-iteration`: hash-ordered
//! iteration whose order escapes into digests and wire traffic.

use std::collections::{HashMap, HashSet};

pub struct Book {
    pages: HashMap<u32, String>,
}

pub fn digest(book: &Book) -> u64 {
    let mut acc = 0u64;
    for (id, text) in &book.pages { //~ nondeterministic-iteration
        acc = acc.wrapping_mul(31).wrapping_add(*id as u64 + text.len() as u64);
    }
    acc
}

pub fn keys_escape(m: &HashMap<u32, u64>) -> Vec<u32> {
    m.keys().copied().collect() //~ nondeterministic-iteration
}

/// A map behind a lock: it reaches the loop through a guard binding
/// (`let live = conns.lock();`).
pub fn ping_all(conns: &Mutex<HashMap<u32, Conn>>) {
    let mut live = conns.lock();
    for (peer, conn) in live.iter_mut() { //~ nondeterministic-iteration
        conn.ping(*peer);
    }
}

pub fn choose(candidates: HashSet<u32>) -> Vec<u32> {
    let mut out: Vec<u32> = candidates.into_iter().collect(); //~ nondeterministic-iteration
    out.sort_unstable();
    out
}

/// The poison-ignoring `std::sync::Mutex` idiom passes the map
/// through to its guard binding just like `lock()` alone.
pub fn ping_all_poison_ignored(conns: &std::sync::Mutex<HashMap<u32, Conn>>) {
    let live = conns.lock().unwrap_or_else(PoisonError::into_inner);
    for peer in live.keys() { //~ nondeterministic-iteration
        ping(*peer);
    }
}
