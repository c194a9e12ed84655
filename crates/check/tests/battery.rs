//! The standard battery as tests: every configuration must close its
//! state space with no violation, and exploration must be
//! deterministic (the digest-keyed BFS has no ambient entropy).

use hadfl_check::{explore, standard_battery};

#[test]
fn standard_battery_holds_every_invariant() {
    for (name, cfg) in standard_battery() {
        let report = explore(&cfg).expect("battery configs are valid");
        assert!(
            report.counterexample.is_none(),
            "{name}: violation {:?}",
            report.counterexample
        );
        assert!(
            !report.truncated,
            "{name}: must explore to closure so liveness is checked"
        );
        assert!(report.states > 1, "{name}: exploration went nowhere");
        assert!(
            report.terminals > 0,
            "{name}: no quiescent state — the run never completed"
        );
    }
}

/// Exploration is deterministic, and each configuration's state space
/// is pinned: a change to what the actors' digests cover moves these
/// counts, so it cannot pass silently. The coordinator's
/// `RuntimeSupervisor` stays out of `digest_into` without splitting or
/// merging states: its state is a function of the reported versions
/// `rounds_log` already digests, and `FixedPlanner` ignores versions.
#[test]
fn exploration_is_deterministic() {
    let pinned = [
        (58, 101),
        (94, 158),
        (295, 749),
        (219, 531),
        (2384, 6443),
        (1226, 3398),
        (3777, 13434),
        (9691, 29679),
        (23231, 83195),
        (50607, 190053),
    ];
    let battery = standard_battery();
    assert_eq!(battery.len(), pinned.len());
    for ((name, cfg), (states, transitions)) in battery.into_iter().zip(pinned) {
        let a = explore(&cfg).expect("valid config");
        assert_eq!(
            (a.states, a.transitions),
            (states, transitions),
            "{name}: state space moved"
        );
        let b = explore(&cfg).expect("valid config");
        assert_eq!(a.states, b.states, "{name}: state count diverged");
        assert_eq!(
            a.transitions, b.transitions,
            "{name}: transition count diverged"
        );
        assert_eq!(a.max_depth, b.max_depth, "{name}: depth diverged");
    }
}

#[test]
fn depth_bound_truncates_and_reports_it() {
    let (_, mut cfg) = standard_battery().remove(2);
    cfg.max_depth = Some(3);
    let report = explore(&cfg).expect("valid config");
    assert!(report.truncated, "a depth bound of 3 cannot reach closure");
    assert!(
        report.counterexample.is_none(),
        "truncated exploration must not fabricate a liveness verdict"
    );
}

#[test]
fn invalid_configs_are_rejected() {
    let (_, mut cfg) = standard_battery().remove(0);
    cfg.devices = 1;
    assert!(explore(&cfg).is_err(), "1 device cannot form a ring");
    let (_, mut cfg) = standard_battery().remove(0);
    cfg.select = 1;
    assert!(explore(&cfg).is_err(), "ring of 1 is not a ring");
    let (_, mut cfg) = standard_battery().remove(0);
    cfg.devices = 7;
    assert!(explore(&cfg).is_err(), "beyond the modeled 2-6 devices");
}
