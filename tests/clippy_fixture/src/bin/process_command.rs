//! rejected by: clippy::disallowed_types

use std::process::Command;

fn main() {
    println!("{}", std::mem::size_of::<Command>());
}
