//! rejected by: clippy::disallowed_methods

fn main() {
    std::thread::scope(|s| {
        s.spawn(|| println!("scoped"));
    });
}
