//! rejected by: clippy::allow_attributes_without_reason

#[expect(clippy::unwrap_used)]
fn first(n: Option<u8>) -> u8 {
    n.unwrap()
}

fn main() {
    println!("{}", first(std::hint::black_box(Some(1))));
}
