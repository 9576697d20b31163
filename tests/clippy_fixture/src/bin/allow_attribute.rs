//! rejected by: clippy::allow_attributes

#[allow(
    clippy::unwrap_used,
    reason = "an allow cannot go stale; an expect can"
)]
fn first(n: Option<u8>) -> u8 {
    n.unwrap()
}

fn main() {
    println!("{}", first(std::hint::black_box(Some(1))));
}
