//! Outside every protocol rule's scope (only the workspace-wide
//! `retired` bans reach it): the model checker may read real time
//! (it measures its own exploration, not protocol behavior).

pub fn exploration_started() -> std::time::Instant {
    std::time::Instant::now()
}
