//! rejected by: clippy::unwrap_used

fn main() {
    let n: Option<u8> = std::hint::black_box(None);
    println!("{}", n.unwrap());
}
