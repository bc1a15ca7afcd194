//! # graphalytics-parallel
//!
//! A deterministic parallel runtime: scoped threads with **fixed chunk
//! assignment** and no work stealing, so every parallel computation built on
//! it is a pure function of its input — never of scheduling order, core
//! count, or load.
//!
//! ## The determinism contract
//!
//! The reference ("oracle") implementations validate every platform run
//! (paper §2.4), so their outputs must be bit-reproducible. Parallelism is
//! allowed to change *how fast* an oracle answer arrives, never *which*
//! answer. The primitives here make that property compositional:
//!
//! * **Fixed assignment** — [`chunk_ranges`] splits `0..n` into contiguous
//!   ranges computed only from `(n, parts)`; worker `i` always processes
//!   range `i`. There is no stealing and no shared queue, so the
//!   element-to-worker mapping is reproducible. [`weighted_ranges`] is the
//!   same contract for skewed work: boundaries computed only from a work
//!   prefix sum and `parts`, run by [`map_ranges`].
//! * **Ordered combination** — [`map_chunks`] and [`map_blocks`] return
//!   per-part results *in part order*, regardless of which worker finished
//!   first. Reductions over them are therefore performed in a fixed order.
//! * **Thread-count invariance** — chunk boundaries do depend on the thread
//!   count, so a kernel that needs byte-identical output at any thread
//!   count must either (a) combine per-chunk results with an associative,
//!   commutative operation (integer sums, min, max, saturating or), or
//!   (b) reduce over [`map_blocks`] with a *fixed* block size, which keeps
//!   the floating-point association independent of the thread count.
//!
//! Kernels additionally may race only through idempotent atomic writes
//! (e.g. BFS level claims where every contender writes the same value) —
//! the winning thread may differ between runs, the stored value may not.
//!
//! Every primitive here, and every platform engine's and the generator's
//! worker fan-out, is a call to one fork-join, [`try_map_each`], which also
//! states what happens to a worker's panic.
//!
//! The crate is zero-dependency (`std` scoped threads only) and contains
//! no clocks and no entropy, the same invariants `graphalytics-lint`
//! enforces for the kernel crates built on top of it.

use std::ops::Range;

/// Default block size for [`map_blocks`]: big enough to
/// amortize dispatch, small enough to load-balance skewed work.
pub const DEFAULT_BLOCK: usize = 4096;

/// Number of worker threads to use when the caller did not specify one:
/// `GX_THREADS` from the environment, else the machine's available
/// parallelism, else 1.
pub fn default_threads() -> usize {
    std::env::var("GX_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
}

/// Resolves an optional thread-count request: `None` ⇒ [`default_threads`],
/// `Some(0)` is clamped to 1.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    match requested {
        Some(t) => t.max(1),
        None => default_threads(),
    }
}

/// Splits `0..n` into at most `parts` contiguous, near-equal ranges — a
/// pure function of `(n, parts)`. Earlier ranges are one element longer
/// when `n` does not divide evenly. Empty ranges are never produced; with
/// `n < parts` fewer than `parts` ranges are returned.
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(n.max(1));
    if n == 0 {
        return Vec::new();
    }
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// The crate's one fork-join, and the only place it creates threads: runs
/// `f(index, item)` for every item on its own scoped worker and returns the
/// results **in item order**, whichever worker finished first. A single
/// item (or none) runs inline on the calling thread.
///
/// A panic in `f` never unwinds out of here. Every worker has finished
/// first — so the side effects of the panicking worker's siblings are
/// complete and visible — and then the payload of the first panicking
/// item, in item order, comes back as `Err`. Callers that measure someone
/// else's code (the platform engines) turn it into a failed run; callers
/// that own `f` use [`map_each`], which re-raises it.
pub fn try_map_each<I, T, F>(items: I, f: F) -> std::thread::Result<Vec<T>>
where
    I: IntoIterator,
    I::Item: Send,
    T: Send,
    F: Fn(usize, I::Item) -> T + Sync,
{
    let run = |i, item| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, item)));
    let items: Vec<I::Item> = items.into_iter().collect();
    if items.len() <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| run(i, item))
            .collect();
    }
    // Each worker parks its caught result in its own slot and the scope
    // waits for the workers to finish. Joining the handles would also wait
    // for every OS thread to exit, once per fan-out on the critical path.
    let mut slots: Vec<Option<std::thread::Result<T>>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        for ((i, item), slot) in items.into_iter().enumerate().zip(&mut slots) {
            let run = &run;
            scope.spawn(move || *slot = Some(run(i, item)));
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("the scope waits for every worker"))
        .collect()
}

/// [`try_map_each`] for callers whose `f` is their own code: a worker's
/// panic resumes on the calling thread with its original payload.
pub fn map_each<I, T, F>(items: I, f: F) -> Vec<T>
where
    I: IntoIterator,
    I::Item: Send,
    T: Send,
    F: Fn(usize, I::Item) -> T + Sync,
{
    try_map_each(items, f).unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Runs `f(part_index, range)` over the fixed chunking of `0..n` on up to
/// `threads` scoped workers and collects each chunk's result **in chunk
/// order**, independent of completion order. Worker `i` owns exactly chunk
/// `i`; with `threads <= 1` (or a single chunk) everything runs inline on
/// the calling thread. Panics in workers propagate to the caller.
pub fn map_chunks<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    map_ranges(chunk_ranges(n, threads), f)
}

/// Splits `0..n` (`prefix` has `n + 1` ascending entries, `prefix[v]` = the
/// work before element `v`) into at most `parts` contiguous ranges of
/// near-equal *work* rather than near-equal length: range `i` ends at the
/// first element whose prefix reaches `i/parts` of the total. A pure
/// function of `(prefix, parts)`; empty ranges are never produced.
pub fn weighted_ranges(prefix: &[usize], parts: usize) -> Vec<Range<usize>> {
    let n = prefix.len().saturating_sub(1);
    let total = prefix.last().copied().unwrap_or(0);
    let parts = parts.max(1);
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 1..parts {
        let target = (total as u128 * i as u128 / parts as u128) as usize;
        let end = prefix.partition_point(|&p| p < target);
        if end > start {
            out.push(start..end);
            start = end;
        }
    }
    if n > start {
        out.push(start..n);
    }
    out
}

/// Runs `f(part_index, range)` for each of the caller's `ranges` on its own
/// scoped worker and returns the results **in range order**. A single
/// range (or none) runs inline on the calling thread. Panics in workers
/// propagate to the caller.
pub fn map_ranges<T, F>(ranges: Vec<Range<usize>>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    map_each(ranges, f)
}

/// Evaluates `f` over fixed-size blocks of `0..n` (the last block may be
/// short) and returns the per-block results **in block order**. Block
/// boundaries depend only on `(n, block)`, never on `threads`, so a fold
/// over the returned vector associates floating-point operations
/// identically at every thread count.
pub fn map_blocks<T, F>(threads: usize, n: usize, block: usize, f: F) -> Vec<T>
where
    T: Send + Default,
    F: Fn(Range<usize>) -> T + Sync,
{
    let block = block.max(1);
    let nblocks = n.div_ceil(block);
    let mut out: Vec<T> = std::iter::repeat_with(T::default).take(nblocks).collect();
    for_each_chunk_mut(threads, &mut out, |_, first_block, slots| {
        for (off, slot) in slots.iter_mut().enumerate() {
            let b = first_block + off;
            let lo = b * block;
            let hi = n.min(lo + block);
            *slot = f(lo..hi);
        }
    });
    out
}

/// Splits `data` into the fixed chunking of its index space and hands each
/// worker `(part_index, chunk_start, &mut chunk)` — safe disjoint mutation
/// with no interior mutability.
pub fn for_each_chunk_mut<T, F>(threads: usize, data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let ranges = chunk_ranges(data.len(), threads);
    let mut parts = Vec::with_capacity(ranges.len());
    let mut rest = data;
    for range in ranges {
        let (part, tail) = rest.split_at_mut(range.len());
        rest = tail;
        parts.push((range.start, part));
    }
    map_each(parts, |i, (start, part)| f(i, start, part));
}

/// A raw view of a mutable slice that lets multiple workers write
/// **disjoint** indices concurrently — the deterministic scatter primitive
/// (CSR placement writes each arc to a slot no other worker touches).
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY[4809a84b]: the slice is only accessed through `write`, whose
// contract requires callers to touch disjoint indices from different
// threads; with that upheld there is no aliased mutation, so sharing the
// view across threads is sound for any Send element type.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}
// SAFETY[c0981114]: same reasoning — the view carries no thread-affine state.
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wraps a mutable slice for disjoint concurrent writes.
    pub fn new(data: &'a mut [T]) -> Self {
        Self {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Slot count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` into slot `idx`.
    ///
    /// # Safety
    ///
    /// While the view is shared across threads, no two `write` calls may
    /// target the same `idx`, and nothing may read the slice until all
    /// writers are joined. `idx` must be in bounds (checked in debug
    /// builds).
    // SAFETY[6c7b54b3]: callers uphold the bounds + disjointness contract
    // above.
    pub unsafe fn write(&self, idx: usize, value: T) {
        debug_assert!(idx < self.len, "SharedSlice write out of bounds");
        // SAFETY[a2cd072f]: `idx < len` per the caller contract
        // (debug-asserted), and the disjointness contract guarantees this
        // slot has no concurrent reader or writer.
        unsafe { self.ptr.add(idx).write(value) };
    }

    /// Reads slot `idx`.
    ///
    /// # Safety
    ///
    /// `idx` must be in bounds (checked in debug builds) and, while the
    /// view is shared across threads, slot `idx` must be accessed by only
    /// one worker — the column-ownership discipline of the CSR cursor
    /// passes.
    // SAFETY[950f03ee]: callers uphold the bounds + single-owner contract
    // above.
    pub unsafe fn read(&self, idx: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(idx < self.len, "SharedSlice read out of bounds");
        // SAFETY[38689708]: `idx < len` per the caller contract
        // (debug-asserted), and the single-owner contract rules out a
        // concurrent writer.
        unsafe { self.ptr.add(idx).read() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 1000] {
                let ranges = chunk_ranges(n, parts);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect, "gap at {n}/{parts}");
                    assert!(r.end > r.start, "empty chunk at {n}/{parts}");
                    expect = r.end;
                }
                assert_eq!(expect, n, "coverage at {n}/{parts}");
                assert!(ranges.len() <= parts.max(1));
                // Near-equal: lengths differ by at most one.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn chunk_ranges_are_a_pure_function() {
        assert_eq!(chunk_ranges(10, 4), chunk_ranges(10, 4));
        assert_eq!(chunk_ranges(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
    }

    #[test]
    fn map_chunks_visits_every_index_once() {
        for threads in [1usize, 2, 8] {
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            map_chunks(threads, hits.len(), |_, range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn map_chunks_preserves_part_order() {
        let parts = map_chunks(4, 100, |i, range| (i, range.start));
        assert_eq!(parts, vec![(0, 0), (1, 25), (2, 50), (3, 75)]);
        let empty: Vec<usize> = map_chunks(4, 0, |_, _| 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn weighted_ranges_balance_work_and_cover_exactly() {
        // Element weights 9, 1, 1, 1, 0, 0, 6: total 18.
        let prefix = [0usize, 9, 10, 11, 12, 12, 12, 18];
        assert_eq!(weighted_ranges(&prefix, 1), vec![0..7]);
        assert_eq!(weighted_ranges(&prefix, 2), vec![0..1, 1..7]);
        assert_eq!(weighted_ranges(&prefix, 3), vec![0..1, 1..4, 4..7]);
        // More parts than weighted elements: no empty range, full coverage.
        for parts in [4usize, 8, 100] {
            let ranges = weighted_ranges(&prefix, parts);
            assert!(ranges.len() <= parts);
            assert!(ranges.iter().all(|r| r.end > r.start));
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(7));
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        }
        // No work at all: one range; no elements: none.
        assert_eq!(weighted_ranges(&[0, 0, 0], 4), vec![0..2]);
        assert!(weighted_ranges(&[0], 4).is_empty());
        assert!(weighted_ranges(&[], 4).is_empty());
    }

    #[test]
    fn map_ranges_preserves_range_order() {
        let parts = map_ranges(vec![0..1, 1..7, 7..9], |i, range| (i, range.len()));
        assert_eq!(parts, vec![(0, 1), (1, 6), (2, 2)]);
    }

    #[test]
    fn block_sums_are_thread_count_invariant() {
        // An ill-conditioned sum whose value depends on association order:
        // identical partials at every thread count proves the fixed-block
        // association.
        let values: Vec<f64> = (0..10_000)
            .map(|i| if i % 2 == 0 { 1e16 } else { 1.0 + i as f64 })
            .collect();
        let sums: Vec<f64> = [1usize, 2, 3, 8]
            .iter()
            .map(|&t| {
                map_blocks(t, values.len(), 128, |r| r.map(|i| values[i]).sum::<f64>())
                    .into_iter()
                    .sum::<f64>()
            })
            .collect();
        assert!(sums.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()));
    }

    #[test]
    fn map_blocks_ignores_thread_count_for_boundaries() {
        let a = map_blocks(1, 1000, 64, |r| r.len());
        let b = map_blocks(7, 1000, 64, |r| r.len());
        assert_eq!(a, b);
        assert_eq!(a.iter().sum::<usize>(), 1000);
        assert_eq!(a.len(), 1000usize.div_ceil(64));
    }

    #[test]
    fn for_each_chunk_mut_writes_disjointly() {
        let mut data = vec![0usize; 103];
        for_each_chunk_mut(5, &mut data, |part, start, slice| {
            for (off, slot) in slice.iter_mut().enumerate() {
                *slot = part * 1000 + start + off;
            }
        });
        let bounds: Vec<usize> = chunk_ranges(103, 5).into_iter().map(|r| r.end).collect();
        let mut part = 0;
        for (i, &v) in data.iter().enumerate() {
            if i >= bounds[part] {
                part += 1;
            }
            assert_eq!(v, part * 1000 + i);
        }
    }

    #[test]
    fn shared_slice_scatter() {
        let mut data = vec![0u64; 1000];
        {
            let view = SharedSlice::new(&mut data);
            map_chunks(8, view.len(), |_, range| {
                for i in range {
                    // SAFETY: each index is visited by exactly one chunk.
                    unsafe { view.write(i, (i * 3) as u64) };
                }
            });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == (i * 3) as u64));
    }

    #[test]
    fn worker_panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            map_chunks(4, 100, |_, range| {
                if range.contains(&60) {
                    panic!("worker failure");
                }
            });
        });
        // The worker's own payload, re-raised by `map_each`.
        assert_eq!(
            caught.unwrap_err().downcast_ref::<&str>(),
            Some(&"worker failure")
        );
    }

    fn wait_for(flag: &AtomicUsize) {
        while flag.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn try_map_each_keeps_item_order_when_later_items_finish_first() {
        // Item i returns only after item i + 1 has: completion order is the
        // reverse of item order, and the items must run concurrently.
        let done: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let out = try_map_each(["a", "b", "c", "d"], |i, item| {
            if let Some(next) = done.get(i + 1) {
                wait_for(next);
            }
            done[i].store(1, Ordering::Release);
            (i, item)
        });
        assert_eq!(out.unwrap(), vec![(0, "a"), (1, "b"), (2, "c"), (3, "d")]);
        assert!(try_map_each(0..0, |_, x| x).unwrap().is_empty());
    }

    #[test]
    fn a_single_item_runs_on_the_calling_thread() {
        let here = std::thread::current().id();
        let ran_on = try_map_each([()], |_, ()| std::thread::current().id()).unwrap();
        assert_eq!(ran_on, vec![here]);
        let ran_on = try_map_each([(), ()], |_, ()| std::thread::current().id()).unwrap();
        assert!(ran_on.iter().all(|&id| id != here));
        // Inline or not, a panic is an `Err`, never an unwind.
        let err = try_map_each([()], |_, ()| panic!("alone")).unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"alone"));
    }

    /// Raised while its owner unwinds: orders other workers strictly after
    /// a panic has begun.
    struct RaisedOnDrop<'a>(&'a AtomicUsize);

    impl Drop for RaisedOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(1, Ordering::Release);
        }
    }

    #[test]
    fn a_panic_is_reported_after_every_worker_finished_and_first_in_item_order_wins() {
        let unwinding = AtomicUsize::new(0);
        let siblings_finished = AtomicUsize::new(0);
        let err = try_map_each(0..4usize, |_, item| {
            if item == 3 {
                let _raised = RaisedOnDrop(&unwinding);
                panic!("item {item} failed");
            }
            // Everyone else finishes only after item 3's panic is under way.
            wait_for(&unwinding);
            if item == 1 {
                panic!("item {item} failed");
            }
            siblings_finished.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap_err();
        assert_eq!(siblings_finished.load(Ordering::SeqCst), 2);
        let message = err.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("item 1 failed"));
    }

    #[test]
    fn resolve_threads_clamps_and_defaults() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert!(resolve_threads(None) >= 1);
    }
}
