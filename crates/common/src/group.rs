//! Counting-sort grouping — the workspace's canonical implementation of
//! the "offsets double as scatter cursor" idiom.
//!
//! Several hot paths group records by a small integer key (CSR adjacency
//! by endpoint, segment reductions by destination node, inbox arenas by
//! vertex slot). They all want the same two artifacts:
//!
//! - `order`: input indices permuted so each bucket's members are
//!   contiguous, **in ascending input order** (counting sort is stable) —
//!   this is what makes grouped reductions bit-identical to a serial
//!   sweep;
//! - `offsets`: `n_buckets + 1` prefix offsets, bucket `b` occupying
//!   `order[offsets[b]..offsets[b+1]]`.
//!
//! The implementation allocates no cursor array: after the scatter,
//! `offsets[b]` holds end-of-`b`, and one `copy_within` right shift turns
//! the ends back into starts. [`counting_sort`] is that loop, written
//! once: [`group_by_key_into`] scatters input indices through it, and the
//! inbox seal ([`crate::rows::seal_order`]) each row's source.

/// Group `0..keys.len()` by `keys[i]`, returning `(order, offsets)`.
///
/// Panics (via indexing) if any key is `>= n_buckets`. `u32` everywhere:
/// callers index billions of edges at most per partition, and halving the
/// offset width halves the footprint of the hottest side tables.
pub fn group_by_key(keys: &[u32], n_buckets: usize) -> (Vec<u32>, Vec<u32>) {
    let mut order = Vec::new();
    let mut offsets = Vec::new();
    group_by_key_into(keys, n_buckets, &mut order, &mut offsets);
    (order, offsets)
}

/// [`group_by_key`] into caller-provided buffers, so hot paths (the
/// per-call segment kernels, the inbox seal) can reuse their grouping
/// scratch instead of re-allocating every call. Buffers are cleared and
/// resized as needed; capacity is kept.
pub fn group_by_key_into(
    keys: &[u32],
    n_buckets: usize,
    order: &mut Vec<u32>,
    offsets: &mut Vec<u32>,
) {
    // u32 counts wrap silently in release; fail loudly instead.
    assert!(
        keys.len() <= u32::MAX as usize,
        "group_by_key overflow: {} keys",
        keys.len()
    );
    let items = keys.iter().enumerate().map(|(i, &k)| (k, i as u32));
    counting_sort(n_buckets, keys.len(), items, offsets, order);
}

/// The stable counting sort: `items` yields each of the `len` inputs'
/// `(bucket < n_buckets, value)` in input order and is walked twice (count,
/// then scatter). `offsets` gets the bucket ranges and `sorted` the values
/// in bucket order; both are cleared first. The caller checks that `len`
/// fits the `u32` offsets.
pub fn counting_sort<S: Copy + Default>(
    n_buckets: usize,
    len: usize,
    items: impl Iterator<Item = (u32, S)> + Clone,
    offsets: &mut Vec<u32>,
    sorted: &mut Vec<S>,
) {
    offsets.clear();
    offsets.resize(n_buckets + 1, 0);
    for (b, _) in items.clone() {
        offsets[b as usize + 1] += 1;
    }
    for i in 0..n_buckets {
        offsets[i + 1] += offsets[i];
    }
    debug_assert_eq!(offsets[n_buckets] as usize, len);
    sorted.clear();
    sorted.resize(len, S::default());
    for (b, v) in items {
        let at = &mut offsets[b as usize];
        sorted[*at as usize] = v;
        *at += 1;
    }
    offsets.copy_within(0..n_buckets, 1);
    offsets[0] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_are_contiguous_stable_and_complete() {
        let keys = [2u32, 0, 2, 1, 0, 2];
        let (order, offsets) = group_by_key(&keys, 4);
        assert_eq!(offsets, vec![0, 2, 3, 6, 6]);
        // stable: ascending input index within each bucket
        assert_eq!(&order[0..2], &[1, 4]); // key 0
        assert_eq!(&order[2..3], &[3]); // key 1
        assert_eq!(&order[3..6], &[0, 2, 5]); // key 2
    }

    #[test]
    fn empty_input_and_empty_buckets() {
        let (order, offsets) = group_by_key(&[], 3);
        assert!(order.is_empty());
        assert_eq!(offsets, vec![0, 0, 0, 0]);
    }
}
