//! rejected by: unknown_lints

#[expect(clippy::unwrap_usd, reason = "a typo in the lint name")]
fn first(n: Option<u8>) -> u8 {
    n.unwrap_or(0)
}

fn main() {
    println!("{}", first(std::hint::black_box(Some(1))));
}
