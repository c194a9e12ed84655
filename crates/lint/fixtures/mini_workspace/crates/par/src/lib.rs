//! Stub: a path a rule's scope names, present so that every scope
//! resolves (a missing one is a `missing-path` finding).
