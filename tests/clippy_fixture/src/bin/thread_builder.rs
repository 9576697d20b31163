//! rejected by: clippy::disallowed_methods clippy::disallowed_types

fn main() {
    let builder = std::thread::Builder::new().name("worker".into());
    println!("{}", builder.spawn(|| 1).is_ok());
}
