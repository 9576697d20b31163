//! rejected by: unfulfilled_lint_expectations

#[expect(clippy::unwrap_used, reason = "the unwrap it covered is gone")]
fn first(n: Option<u8>) -> u8 {
    n.unwrap_or(0)
}

fn main() {
    println!("{}", first(std::hint::black_box(Some(1))));
}
