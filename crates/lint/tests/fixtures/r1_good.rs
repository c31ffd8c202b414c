// Fixture: rule R1 must stay quiet — a host that runs handlers through
// the driver and names `Action` only in comments, docs and tests.
// Linted as `crates/sim/src/fixture.rs`.
use iabc_runtime::{Driver, Effects};

/// Charges CPU work (see [`Action::Work`]).
fn deliver(driver: &mut Driver<N>, fx: &mut impl Effects<Msg, Out>, from: ProcessId, msg: Msg) {
    // Not `Action::Send`: the driver delivers self-sends itself.
    driver.on_message(from, msg, fx);
}

#[cfg(test)]
mod tests {
    fn sends(actions: Vec<Action<Msg, Out>>) -> usize {
        actions.iter().filter(|a| matches!(a, Action::Send { .. })).count()
    }
}
