//! rejected by: E0277

use inferturbo_common::FxHashMap;

fn main() {
    let mut map: FxHashMap<u64, u64> = FxHashMap::default();
    map.insert(1, 2);
    for (k, v) in map {
        println!("{k} {v}");
    }
}
