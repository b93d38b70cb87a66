//! The one ordered fan-out every parallel region of the workspace uses.
//!
//! Generic-join top-level candidates, bag jobs and PANDA and DDR degree
//! branches all have the same shape: apply a pure function to each
//! item of a slice and merge the results in input order.  [`ordered_map`]
//! is that shape, once.  Because the merge order is the input order, its
//! output equals `items.iter().map(f).collect()` at every thread count —
//! which is what makes every evaluator built on it bit-identical to its
//! sequential run.

// panda-lint: allow-file(D2) -- this file IS the deterministic fan-out:
// each scoped thread maps one contiguous chunk and the chunk results are
// concatenated in input order, so scheduling can change wall-clock time
// but can never reach an output.

/// Maps `f` over `items` on up to `threads` threads and returns the
/// results in input order.
///
/// `items` is cut into `min(threads, items.len())` balanced contiguous
/// chunks; the caller's thread maps the first chunk while one
/// [`std::thread::scope`] thread maps each of the others.  With
/// `threads <= 1` or fewer than two items no thread is spawned and this is
/// the plain sequential loop.  Nested calls do not share a budget: a
/// caller that fans out passes `1` to whatever runs inside `f`.
///
/// # Panics
///
/// A panic in `f` on any thread is re-raised on the caller once every
/// chunk has finished.
///
/// # Examples
///
/// ```
/// use panda_relation::fan_out::ordered_map;
///
/// let squares = ordered_map(4, &[1u64, 2, 3, 4, 5], |x| x * x);
/// assert_eq!(squares, [1, 4, 9, 16, 25]);
/// ```
pub fn ordered_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let k = threads.min(items.len());
    if k <= 1 {
        return items.iter().map(f).collect();
    }
    // Chunk `i` of `k` is `[len * i / k, len * (i + 1) / k)`: the chunks tile
    // `items` in order and their sizes differ by at most one.
    let map_chunk = |i: usize| -> Vec<R> {
        let (lo, hi) = (items.len() * i / k, items.len() * (i + 1) / k);
        // panda-lint: allow(P1) -- `i < k`, so `lo <= hi <= items.len()`.
        items[lo..hi].iter().map(&f).collect()
    };
    std::thread::scope(|scope| {
        let map_chunk = &map_chunk;
        let workers: Vec<_> = (1..k).map(|i| scope.spawn(move || map_chunk(i))).collect();
        let mut out = Vec::with_capacity(items.len());
        out.extend(map_chunk(0));
        for worker in workers {
            match worker.join() {
                Ok(piece) => out.extend(piece),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::ordered_map;

    #[test]
    fn equals_the_sequential_map_at_every_thread_count() {
        for len in [0usize, 1, 2, 7, 1000] {
            let items: Vec<u64> = (0..len as u64).collect();
            let expected: Vec<String> = items.iter().map(|x| (x * 3).to_string()).collect();
            for threads in [0, 1, 2, 5, 8, len + 3] {
                let got = ordered_map(threads, &items, |x| (x * 3).to_string());
                assert_eq!(got, expected, "len = {len}, threads = {threads}");
            }
        }
    }

    #[test]
    fn spawns_only_when_there_is_something_to_split() {
        let caller = std::thread::current().id();
        let ids = |threads: usize, len: usize| {
            ordered_map(threads, &vec![(); len], |()| std::thread::current().id())
        };
        assert!(ids(1, 16).iter().all(|&id| id == caller));
        assert!(ids(8, 1).iter().all(|&id| id == caller));
        // The caller maps the first chunk itself; every other chunk is on
        // a thread of its own.
        let fanned = ids(4, 16);
        assert!(fanned[..4].iter().all(|&id| id == caller));
        assert!(fanned[4..].iter().all(|&id| id != caller));
    }

    #[test]
    #[should_panic(expected = "item 5 is poisoned")]
    fn a_panicking_item_panics_the_caller() {
        let items: Vec<u32> = (0..8).collect();
        let _ = ordered_map(4, &items, |&x| {
            assert!(x != 5, "item {x} is poisoned");
            x
        });
    }
}
