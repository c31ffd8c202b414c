// Fixture: rule R1 must fire — a host interpreting `Action`s itself.
// Linted as `crates/sim/src/fixture.rs`.
use iabc_runtime::Action;

fn apply(host: &mut Host, actions: Vec<Action<Msg, Out>>) {
    for action in actions {
        match action {
            Action::Send { to, msg } => host.send(to, msg),
            Action::SetTimer { delay, timer } => host.arm(delay, timer),
            Action::Work { duration } => host.charge(duration),
            iabc_runtime::Action::Output(out) => host.emit(out),
        }
    }
}
