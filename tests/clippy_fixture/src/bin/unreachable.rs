//! rejected by: clippy::unreachable

fn main() {
    if std::hint::black_box(false) {
        unreachable!("library code returns an error instead");
    }
}
