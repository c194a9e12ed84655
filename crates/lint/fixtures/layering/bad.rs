//! Seeded violations for `layering`: each line names what one row's
//! file may not. The harness forces every row on at once, so a name
//! that several rows ban is found once per row: `hadfl_telemetry` by the
//! cost model, the closed-form ring and grouping, and both pure state
//! machines; `Telemetry` by the last three; the other pure-core names
//! by the ring and the round script.

// The cost model (crates/simnet) names no telemetry crate.
use hadfl_telemetry::Event; //~ layering //~ layering //~ layering //~ layering

// The closed-form ring and grouping take no telemetry handle.
pub fn record(sink: &Telemetry, event: Event) { //~ layering //~ layering //~ layering
    sink.emit(event);
}

// The §III-D ring and the round script are pure state machines.
pub fn step(port: &mut dyn Port) -> usize { //~ layering //~ layering
    port.pending()
}

pub fn train(state: &mut TrainState) { //~ layering //~ layering
    state.step();
}

pub fn at(clock: &dyn Clock) -> u64 { //~ layering //~ layering
    clock.millis()
}

pub fn profiled() {
    let _scope = hadfl_prof::scope("step"); //~ layering //~ layering
}

// The executors read only each actor's `wake`.
pub fn paced(actor: &DeviceActor) -> Option<DeviceHint> { //~ layering
    actor.hint() //~ layering
}

pub fn due(actor: &DeviceActor) -> u64 {
    actor.next_step_due //~ layering
}
