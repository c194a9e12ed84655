//! Known-clean for `layering`: every banned name — Port, Telemetry,
//! TrainState, Clock, hadfl_prof, hadfl_telemetry, DeviceHint,
//! `.hint(` and next_step_due — in a comment, in a string, in a doc
//! example and as the prefix of a longer identifier.

/// The pure core hands these to its shell:
///
/// ```
/// let port: &mut dyn Port = shell.port();
/// let sink: Telemetry = hadfl_telemetry::Telemetry::off();
/// let _scope = hadfl_prof::scope("step");
/// let state: &TrainState = shell.state();
/// let clock: &dyn Clock = shell.clock();
/// let hint: DeviceHint = actor.hint();
/// let due = actor.next_step_due;
/// ```
pub fn named_in_text() -> &'static str {
    // Port, Telemetry, TrainState, Clock, hadfl_prof, hadfl_telemetry,
    // DeviceHint, actor.hint() and next_step_due, in a comment.
    "Port Telemetry TrainState Clock hadfl_prof hadfl_telemetry DeviceHint actor.hint() next_step_due"
}

/* A block comment naming Port, Clock and hadfl_telemetry::Event. */
pub struct Lookalikes {
    pub id: PortId,
    pub sink: TelemetryConfig,
    pub states: TrainStates,
    pub skew: ClockSkew,
    pub hints: DeviceHints,
    pub next_step_due_at: u64,
}

pub fn longer_names(actor: &Actor) -> bool {
    actor.hinted() && hadfl_profile::enabled() && hadfl_telemetry_off()
}
