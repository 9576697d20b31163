//! rejected by: clippy::disallowed_methods clippy::disallowed_types

fn main() {
    println!("{:?}", std::time::SystemTime::now());
}
