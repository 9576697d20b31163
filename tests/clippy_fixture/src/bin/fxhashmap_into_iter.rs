//! rejected by: E0599

use inferturbo_common::FxHashMap;

fn main() {
    let mut map: FxHashMap<u64, u64> = FxHashMap::default();
    map.insert(1, 2);
    let pairs: Vec<(u64, u64)> = map.into_iter().collect();
    println!("{pairs:?}");
}
