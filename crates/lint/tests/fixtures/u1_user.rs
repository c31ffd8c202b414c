//! U1 fixture: the second corpus file, naming items of the library one.

use demo::{used_elsewhere, ReExported};

pub use demo::ReExported as Again;

fn main() {
    // ReExported is named in this comment and in the `use` items only.
    let report = used_elsewhere();
    assert_eq!(report.0, 0);
}
