//! rejected by: clippy::todo

fn main() {
    if std::hint::black_box(false) {
        todo!();
    }
}
