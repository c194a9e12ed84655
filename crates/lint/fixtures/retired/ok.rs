//! Known-clean for `retired`: every retired name — Trace::new,
//! set_comm, expected_version, distributed_timeline, fedavg_timeline,
//! LrSchedule, set_schedule, Message::Heartbeat, heartbeat_interval,
//! fn is_live, TimeSource, ManualTime, WallTime, profiler_time,
//! VersionScale, version_scale, read_timeout:, backoff_base,
//! backoff_cap, max_dial_attempts, fn read_full, rand::, rand_chacha,
//! ChaCha8Rng, BackwardBeforeForward and evaluate_with — in a comment,
//! in a string, in a doc example and as the prefix of a longer
//! identifier.

/// The retired surface, for the record:
///
/// ```
/// let mut trace = Trace::new();
/// trace.set_comm(1, 2);
/// let v = strategy.expected_version(3);
/// let t = distributed_timeline().len() + fedavg_timeline().len();
/// opt.set_schedule(LrSchedule::Constant);
/// let live = matches!(m, Message::Heartbeat) && opts.heartbeat_interval > 0;
/// fn is_live() {}
/// let s: &dyn TimeSource = &ManualTime::default();
/// let w = profiler_time(WallTime::default());
/// let z = version_scale(VersionScale::ZScore);
/// let o = TcpOptions { read_timeout: 1, backoff_base: 2, backoff_cap: 3, max_dial_attempts: 4 };
/// fn read_full() {}
/// let rng = rand_chacha::ChaCha8Rng::seed_from_u64(rand::random());
/// let e = NnError::BackwardBeforeForward("Relu");
/// let m = evaluate_with(&mut model, &test, &params, 16);
/// ```
pub fn named_in_text() -> &'static str {
    // Trace::new, set_comm, expected_version, distributed_timeline,
    // fedavg_timeline, LrSchedule, set_schedule, Message::Heartbeat,
    // heartbeat_interval, fn is_live, TimeSource, ManualTime, WallTime,
    // profiler_time, VersionScale, version_scale, read_timeout:,
    // backoff_base, backoff_cap, max_dial_attempts, fn read_full,
    // rand::, rand_chacha, ChaCha8Rng, BackwardBeforeForward and
    // evaluate_with, in a comment.
    "Trace::new set_comm expected_version distributed_timeline fedavg_timeline \
     LrSchedule set_schedule Message::Heartbeat heartbeat_interval fn is_live \
     TimeSource ManualTime WallTime profiler_time VersionScale version_scale \
     read_timeout: backoff_base backoff_cap max_dial_attempts fn read_full \
     rand:: rand_chacha ChaCha8Rng BackwardBeforeForward evaluate_with"
}

/* A block comment naming Trace::new, rand::Rng and ChaCha8Rng. */
pub struct Lookalikes {
    pub set_comm_bytes: u64,
    pub expected_version_gap: u64,
    pub distributed_timeline_len: usize,
    pub fedavg_timeline_len: usize,
    pub schedule: LrScheduleless,
    pub heartbeat_interval_ms: u64,
    pub source: TimeSourceless,
    pub manual: ManualTimeline,
    pub wall: WallTimer,
    pub profiler_time_ns: u64,
    pub scale: VersionScaled,
    pub version_scale_bits: u32,
    pub read_timeout_ms: u64,
    pub backoff_base_ms: u64,
    pub backoff_cap_ms: u64,
    pub max_dial_attempts_total: u32,
    pub rng: ChaCha8Rngs,
    pub misuse: BackwardBeforeForwardCount,
    pub evaluate_with_scratch: bool,
}

pub fn longer_names(trace: &Trace, message: &Message) -> bool {
    // The fold that replaced the hand-built constructor, and the frames
    // that remain.
    let folded = Trace::from_events(trace.events()).new_rounds();
    let _ = Trace::new_from_events;
    matches!(message, Message::HeartbeatAck) && folded > 0
}

pub fn is_lively(rand_chacha_seed: u64, randomized: u64) -> u64 {
    set_schedule_len(rand_chacha_seed) + randomized
}

fn read_fully(buf: &mut [u8]) -> usize {
    buf.len()
}
