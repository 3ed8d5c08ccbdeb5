//! Deterministic fork-join data parallelism for the HEAP reproduction.
//!
//! The paper's central observation is that the `N` blind rotations of a
//! bootstrap have no data dependencies and can be spread over compute nodes
//! (eight FPGAs in HEAP, §V) and, inside a node, over its functional units.
//! This crate is the software analogue of the within-node level (the node
//! level is `heap-runtime`'s `Scheduler`): a rayon-style fork-join engine
//! built directly on `std::thread::scope` (the build environment vendors no
//! external crates), exposing
//!
//! - [`par_map`] / [`par_map_init`] / [`par_chunks_init`] —
//!   ciphertext-level parallelism with optional per-worker scratch state
//!   (allocation-free hot loops), item by item or a worker's chunk at once;
//! - [`Parallelism`] — the `threads` knob plumbed through `BootstrapConfig`
//!   and owned by each service node.
//!
//! # Determinism
//!
//! All helpers partition work into contiguous index ranges and return
//! results in input order, so outputs are **bit-identical for every
//! thread count, including 1** — scheduling never reorders arithmetic. The
//! tests assert this; `heap-core` relies on it to keep serial and parallel
//! bootstraps interchangeable.
//!
//! Fork-join (threads spawned per region) was chosen over a persistent pool
//! deliberately: regions in this workload run for milliseconds to minutes,
//! so spawn cost is noise, and scoped threads let workers borrow inputs and
//! scratch without `'static` gymnastics or unsafe erasure.

/// Smallest batch worth splitting; shorter batches run inline.
const MIN_PAR_BATCH: usize = 2;

/// Degree-of-parallelism configuration.
///
/// `threads == 1` (or a batch of fewer than two items) runs inline on the
/// caller's thread with no spawning at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads per parallel region (`1` = serial).
    pub threads: usize,
}

impl Parallelism {
    /// Strictly serial execution.
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// `threads` workers (at least one).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// One worker per available hardware thread.
    pub fn max() -> Self {
        Self::with_threads(available_threads())
    }

    /// Effective worker count for a batch of `len` items.
    pub fn workers_for(&self, len: usize) -> usize {
        if len < MIN_PAR_BATCH {
            1
        } else {
            self.threads.min(len).max(1)
        }
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::max()
    }
}

/// Hardware threads visible to the process.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` with `par.threads` workers, preserving order.
///
/// Output `i` is always `f(i, &items[i])`; partitioning is contiguous and
/// results land in their input slots, so the result is independent of the
/// thread count.
pub fn par_map<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_init(par, items, || (), |(), i, t| f(i, t))
}

/// [`par_map`] with per-worker scratch state.
///
/// `init` runs once per worker; `f` receives the worker's scratch, the item
/// index, and the item. This is the `map_init` pattern: scratch buffers are
/// allocated once per thread, keeping the per-item path allocation-free.
pub fn par_map_init<T, U, S, I, F>(par: Parallelism, items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    par_chunks_init(par, items, init, |scratch, base, chunk| {
        let each = chunk.iter().enumerate();
        each.map(|(j, t)| f(scratch, base + j, t)).collect()
    })
}

/// The chunk-level form of [`par_map_init`]: each worker is handed its
/// whole contiguous chunk at once, so it can batch across items (blind
/// rotation walks its chunk in key-major tiles).
///
/// `items` is cut into `workers_for(len)` contiguous chunks of
/// `ceil(len / workers)` items (the last may be shorter); `f` receives the
/// worker's scratch, the index of the chunk's first item, and the chunk,
/// and returns one output per item in order; it is never handed an empty
/// chunk. The concatenation is independent of the thread count provided
/// `f`'s outputs do not depend on how its items were grouped.
///
/// # Panics
///
/// Panics if `f` returns a different number of outputs than it was given
/// items; a worker's panic is resumed on the caller's thread.
pub fn par_chunks_init<T, U, S, I, F>(par: Parallelism, items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &[T]) -> Vec<U> + Sync,
{
    let run = |base: usize, chunk: &[T]| {
        let out = f(&mut init(), base, chunk);
        assert_eq!(out.len(), chunk.len(), "one output per item");
        out
    };
    if items.is_empty() {
        return Vec::new();
    }
    let workers = par.workers_for(items.len());
    if workers <= 1 {
        return run(0, items);
    }
    let chunk = items.len().div_ceil(workers);
    std::thread::scope(|s| {
        let run = &run;
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, c)| s.spawn(move || run(ci * chunk, c)))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for h in handles {
            out.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_for_all_thread_counts() {
        let items: Vec<u64> = (0..97).collect();
        let serial = par_map(Parallelism::serial(), &items, |i, &x| x * x + i as u64);
        for threads in [2, 3, 4, 8, 16] {
            let par = par_map(Parallelism::with_threads(threads), &items, |i, &x| {
                x * x + i as u64
            });
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_init_reuses_scratch_within_worker() {
        let items: Vec<u64> = (0..64).collect();
        let out = par_map_init(
            Parallelism::with_threads(4),
            &items,
            Vec::<u64>::new,
            |scratch, _, &x| {
                scratch.push(x);
                scratch.len() as u64
            },
        );
        // Scratch grows within each contiguous chunk: the first item of
        // every worker sees len 1.
        assert_eq!(out[0], 1);
        assert_eq!(out[16], 1);
        assert!(out.iter().all(|&l| (1..=16).contains(&l)));
    }

    #[test]
    fn par_chunks_init_is_thread_count_independent_and_splits_evenly() {
        let items: Vec<u64> = (0..17).collect();
        // Each item reports its value, its index and its chunk's length.
        let run = |threads| {
            par_chunks_init(
                Parallelism::with_threads(threads),
                &items,
                || (),
                |(), base, chunk| {
                    let each = chunk.iter().enumerate();
                    each.map(|(j, &x)| (x * x, base + j, chunk.len())).collect()
                },
            )
        };
        let serial = run(1);
        assert!(serial.iter().all(|&(_, _, len)| len == 17));
        for threads in [2, 3, 8] {
            let par = run(threads);
            for (p, s) in par.iter().zip(&serial) {
                assert_eq!((p.0, p.1), (s.0, s.1), "threads = {threads}");
            }
        }
        // 17 items over 2 workers: 9 + 8, never a full chunk and a stub.
        let lens: Vec<usize> = run(2).iter().map(|&(_, _, len)| len).collect();
        assert_eq!(lens, [[9; 9].as_slice(), [8; 8].as_slice()].concat());
    }

    #[test]
    #[should_panic(expected = "one output per item")]
    fn par_chunks_init_rejects_short_output() {
        par_chunks_init(Parallelism::serial(), &[1, 2, 3], || (), |(), _, _| vec![0]);
    }

    #[test]
    fn small_batches_and_serial_stay_inline() {
        let par = Parallelism::with_threads(8);
        assert_eq!(par.workers_for(1), 1);
        assert_eq!(par.workers_for(2), 2);
        assert_eq!(par.workers_for(100), 8);
        assert_eq!(Parallelism::serial().workers_for(1 << 20), 1);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(Parallelism::max(), &empty, |_, &x| x).is_empty());
        let one = [7u32];
        assert_eq!(par_map(Parallelism::max(), &one, |_, &x| x * 2), vec![14]);
    }
}
