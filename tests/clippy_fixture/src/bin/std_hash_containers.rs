//! rejected by: clippy::disallowed_types

use std::collections::{HashMap, HashSet};

fn main() {
    let map: HashMap<u64, u64> = HashMap::new();
    let set: HashSet<u64> = HashSet::new();
    println!("{} {}", map.len(), set.len());
}
