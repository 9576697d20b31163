//! rejected by: clippy::disallowed_methods

fn main() {
    let handle = std::thread::spawn(|| 1);
    println!("{:?}", handle.join().is_ok());
}
