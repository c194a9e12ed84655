//! Known-clean for `thread-scratch`: caches leased from the scratch
//! module, and thread-local talk in comments, strings and names only.

/// Lease from the training scratch, never a `thread_local!` of your own:
///
/// ```
/// let mask = scratch::lease_vec::<bool>(len);
/// ```
pub fn leased(len: usize) -> Vec<bool> {
    crate::scratch::lease_vec(len)
}

pub fn thread_local_like(thread_local_count: u32) -> u32 {
    // "thread_local!" inside a string or an identifier is not a cache.
    let note = "thread_local! is banned outside scratch.rs";
    let _ = note;
    thread_local_count
}
