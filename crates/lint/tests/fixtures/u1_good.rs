//! U1 fixture: every bare `pub` item is reached.

/// Named by `u1_user.rs`.
pub fn used_elsewhere() -> Report {
    Report(private_helper())
}

/// Named only in the signature of `used_elsewhere`, which is reached.
pub struct Report(pub u32);

fn private_helper() -> u32 {
    0
}

pub(crate) fn crate_visible_is_out_of_scope() {}

// lint:allow(U1): kept for its doc example
pub fn documented_tool() {}
