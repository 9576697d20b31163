//! accepted: a reasoned #[expect] that is fulfilled, and an unwrap in
//! test code.

#[expect(
    clippy::unwrap_used,
    reason = "the caller checked the value is present"
)]
fn first(n: Option<u8>) -> u8 {
    n.unwrap()
}

fn main() {
    println!("{}", first(std::hint::black_box(Some(1))));
}

#[cfg(test)]
mod tests {
    #[test]
    fn first_reads_the_value() {
        assert_eq!(super::first(Some(1)), 1);
        assert_eq!(Some(2).unwrap(), 2);
    }
}
