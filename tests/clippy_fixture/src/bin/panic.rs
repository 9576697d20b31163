//! rejected by: clippy::panic

fn main() {
    if std::hint::black_box(false) {
        panic!("library code returns an error instead");
    }
}
