//! Deterministic fork-join helper for sweep drivers.
//!
//! A thin order-preserving `map` over `std::thread::scope` workers:
//! items are split into contiguous chunks, each worker fills its chunk's
//! output slots, and results come back in input order — so parallel sweeps
//! return exactly what their serial loops returned.

/// Map `f` over `items` on up to `available_parallelism` scoped workers,
/// preserving input order. With one worker to use (one CPU, or at most
/// one item) it is a plain serial map and starts no thread.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    par_map_on(workers, items, f)
}

/// [`par_map`] on up to `workers` scoped workers.
fn par_map_on<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let f = &f;
    // Join each worker explicitly so a panic can be attributed to its
    // chunk (and the original payload preserved) instead of surfacing as
    // an anonymous scope error.
    let joined: Vec<Result<(), Box<dyn std::any::Any + Send>>> = std::thread::scope(|s| {
        let handles: Vec<_> = out
            .chunks_mut(chunk)
            .zip(items.chunks(chunk))
            .map(|(slot_chunk, item_chunk)| {
                s.spawn(move || {
                    for (slot, item) in slot_chunk.iter_mut().zip(item_chunk) {
                        *slot = Some(f(item));
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    for (i, r) in joined.iter().enumerate() {
        if let Err(payload) = r {
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("<non-string panic payload>");
            panic!(
                "par_map worker for chunk {i} (items {}..{}) panicked: {msg}",
                i * chunk,
                ((i + 1) * chunk).min(items.len())
            );
        }
    }
    out.into_iter()
        .map(|r| r.expect("every slot filled by its worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(par_map(&items, |&x| x * x), serial);
        for workers in [1, 2, 4] {
            assert_eq!(par_map_on(workers, &items, |&x| x * x), serial);
        }
    }

    #[test]
    fn handles_empty_input() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map(&none, |&x| x).is_empty());
    }

    #[test]
    fn handles_single_item_without_spawning() {
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "chunk 0")]
    fn worker_panic_reports_originating_chunk() {
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map_on(4, &items, |&x| {
            assert!(x != 0, "poisoned item");
            x
        });
    }

    #[test]
    #[should_panic(expected = "poisoned item")]
    fn worker_panic_preserves_the_original_message() {
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map_on(4, &items, |&x| {
            assert!(x != 1, "poisoned item");
            x
        });
    }

    #[test]
    #[should_panic(expected = "poisoned item")]
    fn one_worker_panics_with_the_items_own_message() {
        // One worker maps serially on the caller's thread: no chunk to
        // name, the item's panic comes through as it is.
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map_on(1, &items, |&x| {
            assert!(x != 1, "poisoned item");
            x
        });
    }

    #[test]
    fn matches_serial_map_for_awkward_sizes() {
        // Sizes around worker-count boundaries exercise chunk remainders.
        for n in [2usize, 3, 5, 7, 13, 17, 31] {
            let items: Vec<usize> = (0..n).collect();
            let serial: Vec<usize> = items.iter().map(|&x| x.wrapping_mul(2654435761)).collect();
            for workers in [2, 3, 4] {
                let out = par_map_on(workers, &items, |&x| x.wrapping_mul(2654435761));
                assert_eq!(out, serial, "n={n} workers={workers}");
            }
        }
    }
}
