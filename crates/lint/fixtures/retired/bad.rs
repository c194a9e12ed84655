//! Seeded violations for `retired`: deleted APIs named again.

// A Trace is the fold of an event stream.
pub fn hand_built() -> Trace {
    let mut trace = Trace::new(); //~ retired
    trace.set_comm(1, 2); //~ retired
    trace
}

// Eq. 6 is `Strategy::local_steps` alone.
pub fn predicted(strategy: &Strategy) -> u64 {
    strategy.expected_version(3) //~ retired
}

// Fig. 1's schemes share one timeline builder.
pub fn timelines() -> usize {
    distributed_timeline().len() //~ retired
        + fedavg_timeline().len() //~ retired
}

// An optimizer has a plain learning rate.
pub fn scheduled(opt: &mut Sgd, schedule: LrSchedule) { //~ retired
    opt.set_schedule(schedule); //~ retired
}

// No transport heartbeat and no liveness view.
pub fn beat(message: &Message) -> bool {
    matches!(message, Message::Heartbeat) //~ retired
}

pub struct Liveness {
    pub heartbeat_interval: u64, //~ retired
}

impl Liveness {
    pub fn is_live(&self) -> bool { //~ retired
        self.heartbeat_interval > 0 //~ retired
    }
}

// One time seam and one Eq. 8 scaling.
pub fn timed(source: &dyn TimeSource) -> u64 { //~ retired
    source.now()
}

pub fn manual() -> ManualTime { //~ retired
    ManualTime::default() //~ retired
}

pub fn wall() -> WallTime { //~ retired
    profiler_time(WallTime::default()) //~ retired //~ retired
}

pub fn scaled(scale: VersionScale) -> f64 { //~ retired
    version_scale(scale) //~ retired
}

// One dial policy and no reader polls.
pub struct TcpOptions {
    pub read_timeout: u64, //~ retired
    pub backoff_base: u64, //~ retired
    pub backoff_cap: u64, //~ retired
    pub max_dial_attempts: u32, //~ retired
}

fn read_full(stream: &mut Stream, buf: &mut [u8]) -> usize { //~ retired
    stream.read(buf)
}

// One seeded RNG.
use rand::Rng; //~ retired

pub fn seeded(seed: u64) -> rand_chacha::ChaCha8Rng { //~ retired //~ retired
    SeedableRng::seed_from_u64(seed)
}

// A backward without a forward does not compile.
pub fn misuse(err: &NnError) -> bool {
    matches!(err, NnError::BackwardBeforeForward(_)) //~ retired
}

// One evaluation path, on a model of the evaluation's own.
pub fn scratch(model: &mut Model, test: &Dataset, params: &[f32]) -> Metrics {
    evaluate_with(model, test, params, 16) //~ retired
}
