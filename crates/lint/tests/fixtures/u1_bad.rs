//! U1 fixture: library items that no other corpus file names.

/// Named nowhere else.
pub fn orphan() -> u32 {
    1
}

/// Named by `u1_user.rs` only in `use` items and a comment, which do not
/// count.
pub struct ReExported;

/// An allow without a reason suppresses nothing (and is itself an A1).
// lint:allow(U1)
pub const UNEXPLAINED: u32 = 3;

#[cfg(test)]
mod tests {
    pub fn test_helpers_are_out_of_scope() {}
}
