//! rejected by: clippy::disallowed_methods

fn main() {
    println!("{:?}", std::env::var("HOME").is_ok());
}
