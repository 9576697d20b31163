//! rejected by: clippy::disallowed_methods

fn main() {
    let start = std::time::Instant::now();
    println!("{:?}", start.elapsed());
}
