//! The banned-token table: every rule that reads "these code-token
//! sequences may not appear in these paths" is one row here, with its
//! reason in the summary and its one matcher below.
//!
//! A row's sequences are written as Rust source, separated by `|` as in
//! the grep alternations they replace (`"Instant::now() | SystemTime::now()"`),
//! and lexed like the file they are matched against. So they match code
//! tokens only: a mention in a comment, a string or a doc example never
//! does, and neither does a longer identifier (`unwrap_or` is not
//! `.unwrap(`, `next_step_due_at` is not `next_step_due`). A finding
//! anchors at its sequence's first identifier.
//!
//! Two ids gather the former CI greps: `layering` keeps a pure or
//! lower layer from naming the layers above it, and `retired` keeps a
//! deleted API deleted.

use super::{finding, Check, FileCx, Rule, Scope};
use crate::lexer::{lex, TokKind};
use crate::report::Finding;

/// What one row bans.
pub struct Ban {
    /// The banned code-token sequences, `|`-separated Rust source.
    pub tokens: &'static str,
    /// Whether `#[cfg(test)]` items and `#[test]` fns are exempt.
    pub skip_tests: bool,
    /// Functions whose bodies are exempt (the innermost enclosing fn).
    pub exempt_fns: &'static [&'static str],
}

impl Ban {
    /// A ban that holds in test code too and exempts no function.
    pub const fn of(tokens: &'static str) -> Check {
        Check::Banned(Ban {
            tokens,
            skip_tests: false,
            exempt_fns: &[],
        })
    }
}

/// Every occurrence of one of `ban`'s sequences in `cx`'s code tokens,
/// outside the exempt regions.
pub(crate) fn run(cx: &FileCx, rule: &Rule, ban: &Ban) -> Vec<Finding> {
    let src = cx.src;
    let toks = lex(ban.tokens);
    let mut out = Vec::new();
    for want in toks.split(|t| t.kind == TokKind::Punct && t.text(ban.tokens) == "|") {
        let (Some(first), Some(last)) = (want.first(), want.last()) else {
            continue;
        };
        let name = &ban.tokens[first.start..last.end];
        let anchor = want.iter().position(|t| t.kind == TokKind::Ident);
        for i in 0..src.len() {
            let hit = want.iter().enumerate().all(|(k, t)| {
                i + k < src.len()
                    && src.tok(i + k).kind == t.kind
                    && src.text_of(i + k) == t.text(ban.tokens)
            });
            if !hit
                || (ban.skip_tests && cx.scopes.in_test(i))
                || cx
                    .scopes
                    .enclosing_fn(i)
                    .is_some_and(|f| ban.exempt_fns.contains(&f.name.as_str()))
            {
                continue;
            }
            out.push(finding(
                cx,
                i + anchor.unwrap_or(0),
                rule.id,
                format!("`{name}` is banned here: {}", rule.summary),
            ));
        }
    }
    out
}

/// The rows, grouped by id.
pub static TABLE: [Rule; 19] = [
    Rule {
        id: "ambient-clock",
        summary: "no Instant::now()/SystemTime::now() in protocol paths — time goes \
                  through the hadfl::clock::Clock seam so hadfl-check stays sound",
        scope: Scope::of(&["crates/core/src/", "crates/net/src/"]),
        check: Ban::of("Instant::now() | SystemTime::now()"),
    },
    Rule {
        id: "print-in-protocol",
        summary: "no print!/println!/eprint!/eprintln!/dbg! in protocol paths — \
                  observability goes through hadfl-telemetry events",
        scope: Scope {
            include: &["crates/core/src/", "crates/net/src/"],
            exclude: &[(
                "crates/net/src/bin/",
                "a CLI binary's stdout/stderr is its user interface",
            )],
        },
        check: Ban::of("print! | println! | eprint! | eprintln! | dbg!"),
    },
    Rule {
        id: "raw-frame",
        summary: "no Message::encode()/decode() (or their encode_head/encode_into halves) \
                  outside wire::seal/wire::open and the split forms seal_split/split_frame \
                  — every on-wire frame must carry a causal stamp",
        scope: Scope {
            include: &["crates/core/src/", "crates/net/src/"],
            exclude: &[(
                "crates/core/src/wire.rs",
                "the defining module: seal/open and their split forms are built from \
                 encode/decode here",
            )],
        },
        check: Check::Banned(Ban {
            tokens: ".encode() | .encode_head( | .encode_into( | .decode( | ::decode(",
            skip_tests: false,
            // A model-checker digest, not a wire frame.
            exempt_fns: &["digest_msg"],
        }),
    },
    Rule {
        id: "raw-spawn",
        summary: "no raw thread spawns in the compute kernels — parallelism flows \
                  through hadfl-par's fixed chunk boundaries (crates/par itself is \
                  the one sanctioned spawner and is outside this scope)",
        scope: Scope::of(&[
            "crates/tensor/src/",
            "crates/nn/src/",
            "crates/core/src/aggregate.rs",
        ]),
        check: Ban::of("thread::spawn | .spawn("),
    },
    Rule {
        id: "thread-scratch",
        summary: "no thread_local! in crates/nn outside scratch.rs — every cache a \
                  training forward leaves for its backward is a lease on its tape, \
                  taken from the one per-thread training scratch (DESIGN §10)",
        scope: Scope {
            include: &["crates/nn/src/"],
            exclude: &[(
                "crates/nn/src/scratch.rs",
                "the defining module: the spare lists and the miss counter live here",
            )],
        },
        check: Ban::of("thread_local!"),
    },
    Rule {
        id: "unwrap-in-protocol",
        summary: "no unwrap/expect/panic!/unreachable! in non-test protocol code — a \
                  panic kills a reader or driver thread silently and wedges the node",
        scope: Scope {
            include: &[
                "crates/net/src/",
                "crates/core/src/exec/",
                "crates/core/src/transport.rs",
                "crates/core/src/wire.rs",
                "crates/core/src/coordinator.rs",
                "crates/core/src/gossip.rs",
                "crates/core/src/driver.rs",
            ],
            exclude: &[(
                "crates/core/src/exec/tests.rs",
                "the body of exec's `#[cfg(test)] mod tests;` — test code, but the \
                 attribute that says so sits in mod.rs, out of a per-file analysis' sight",
            )],
        },
        check: Check::Banned(Ban {
            tokens: ".unwrap( | .expect( | .unwrap_err( | .expect_err( \
                     | panic! | unreachable! | todo! | unimplemented!",
            skip_tests: true,
            exempt_fns: &[],
        }),
    },
    Rule {
        id: "nonblocking-listener",
        summary: "no set_nonblocking(true) outside tests — with std alone and no \
                  readiness API a nonblocking socket is a sleep-poll; block in \
                  accept_until and wake it with stop_accept",
        scope: Scope::of(&[
            "crates/core/src/",
            "crates/net/src/",
            "crates/telemetry/src/",
        ]),
        check: Check::Banned(Ban {
            tokens: "set_nonblocking(true) | set_nonblocking(true,",
            skip_tests: true,
            exempt_fns: &[],
        }),
    },
    Rule {
        id: "layering",
        summary: "the cost-model crate names no telemetry — events are emitted by a \
                  port, the actor behind it, or a closed-form loop recording its own \
                  run (DESIGN §9)",
        scope: Scope::of(&["crates/simnet/src/"]),
        check: Ban::of("hadfl_telemetry"),
    },
    Rule {
        id: "layering",
        summary: "the closed-form ring and grouping name no telemetry — they hand \
                  their transfers to their caller (DESIGN §9)",
        scope: Scope::of(&["crates/core/src/gossip.rs", "crates/core/src/group.rs"]),
        check: Ban::of("hadfl_telemetry | Telemetry"),
    },
    Rule {
        id: "layering",
        summary: "the §III-D ring is a pure state machine — the device actor maps its \
                  actions onto the port, the model and the telemetry",
        scope: Scope::of(&["crates/core/src/exec/ring.rs"]),
        check: Ban::of(PURE_CORE),
    },
    Rule {
        id: "layering",
        summary: "the coordinator's round script is a pure state machine — its actor \
                  maps the script's outputs onto the port and the telemetry",
        scope: Scope::of(&["crates/core/src/exec/script.rs"]),
        check: Ban::of(PURE_CORE),
    },
    Rule {
        id: "layering",
        summary: "the executors read only each actor's `wake` — no hints, no pacing",
        scope: Scope::of(&["crates/core/src/exec/run.rs"]),
        check: Ban::of("DeviceHint | .hint( | next_step_due"),
    },
    Rule {
        id: "retired",
        summary: "a Trace is the fold of an event stream (Trace::from_events), Eq. 6 \
                  is Strategy::local_steps alone, Fig. 1's schemes share one timeline \
                  builder, and an optimizer has a plain learning rate",
        scope: Scope::of(&ALL_RUST),
        check: Ban::of(
            "Trace::new | set_comm | expected_version | distributed_timeline \
             | fedavg_timeline | LrSchedule | set_schedule",
        ),
    },
    Rule {
        id: "retired",
        summary: "the transport has no heartbeat and no liveness view of its own — \
                  dead peers are the protocol's §III-D path (DESIGN §7)",
        scope: Scope::of(&["crates/*/src/"]),
        check: Ban::of("Message::Heartbeat | heartbeat_interval | fn is_live"),
    },
    Rule {
        id: "retired",
        summary: "one time seam (the Clock the protocol runs on feeds the profiler \
                  too) and one Eq. 8 scaling (versions always z-scored)",
        scope: Scope::of(&["crates/*/src/", "examples/"]),
        check: Ban::of(
            "TimeSource | ManualTime | WallTime | profiler_time | VersionScale | version_scale",
        ),
    },
    Rule {
        id: "retired",
        summary: "one dial policy (PeerLink's fixed schedule) and no reader polls — \
                  the removed TcpOptions knobs and the resume-on-timeout cursor",
        scope: Scope::of(&["crates/*/src/", "crates/*/tests/", "examples/"]),
        check: Ban::of(
            "read_timeout: | backoff_base | backoff_cap | max_dial_attempts | fn read_full",
        ),
    },
    Rule {
        id: "retired",
        summary: "one seeded RNG — every stream is hadfl_tensor::SeedStream's own \
                  ChaCha8, pinned by its known-answer test; the rand and rand_chacha \
                  stand-ins are retired (their manifests are held by the CI lint job)",
        scope: Scope::of(&[
            "crates/*/src/",
            "crates/*/tests/",
            "src/",
            "tests/",
            "examples/",
            "vendor/proptest/src/",
        ]),
        check: Ban::of("rand:: | rand_chacha | ChaCha8Rng"),
    },
    Rule {
        id: "retired",
        summary: "a backward takes the tape its training forward returned, so a \
                  backward without a forward does not compile and has no run-time \
                  error (DESIGN §10)",
        scope: Scope::of(&[
            "crates/*/src/",
            "crates/*/tests/",
            "src/",
            "tests/",
            "examples/",
        ]),
        check: Ban::of("BackwardBeforeForward"),
    },
    Rule {
        id: "retired",
        summary: "one evaluation path: a model state goes into a model of the \
                  evaluation's own (BuiltWorkload::evaluate_params), never into a \
                  device's replica saved and restored around it (DESIGN §10)",
        scope: Scope::of(&ALL_RUST),
        check: Ban::of("evaluate_with"),
    },
];

/// What a pure state machine in `exec/` may not name.
const PURE_CORE: &str = "Port | Telemetry | TrainState | Clock | hadfl_prof | hadfl_telemetry";

/// Every first-party Rust source tree.
const ALL_RUST: [&str; 5] = [
    "crates/*/src/",
    "crates/*/tests/",
    "src/",
    "tests/",
    "examples/",
];
