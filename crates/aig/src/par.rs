//! Minimal data-parallel helpers backed by `std::thread::scope`.
//!
//! The workspace's embarrassingly parallel outer loops (variant
//! labeling, SA sweeps, multi-seed chains, design-suite construction)
//! and the GNN forward pass's per-layer node loop all funnel through
//! this module, so parallelism policy lives in exactly one place:
//!
//! * the environment variable `AIG_THREADS` overrides the worker
//!   count at runtime (`AIG_THREADS=1` forces serial execution for
//!   debugging or reproducing single-threaded timings);
//! * nested calls never oversubscribe: a `par_*` call made from
//!   inside a worker runs serially;
//! * a worker's panic reaches the caller with the worker's own
//!   payload, as it would with one thread.
//!
//! Every helper is **deterministic**: results are returned in input
//! order and each item is computed by a pure call of the supplied
//! closure, so the output is identical for any worker count.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::ScopedJoinHandle;

std::thread_local! {
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// The number of worker threads `par_*` helpers may use.
///
/// Resolution order: `1` when called from inside another `par_*`
/// worker; otherwise `AIG_THREADS` when set (values `< 1` clamp to
/// `1`); otherwise the machine's available parallelism.
pub fn max_threads() -> usize {
    if IN_PARALLEL_REGION.with(Cell::get) {
        return 1;
    }
    match std::env::var("AIG_THREADS") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Joins a scoped worker, re-raising its panic with the worker's own
/// payload rather than `thread::scope`'s generic message.
fn join<R>(handle: ScopedJoinHandle<'_, R>) -> R {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Maps `f` over `items` (with the item index), in parallel, returning
/// results in input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(items, || (), move |(), i, t| f(i, t))
}

/// Like [`par_map`], but each worker first builds a reusable state via
/// `init` (e.g. one `Mapper` per worker) that `f` receives mutably —
/// the replacement for rayon's `map_init`.
pub fn par_map_with<T, S, R, FI, F>(items: &[T], init: FI, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let threads = max_threads().min(items.len());
    if threads <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }
    run_parallel(items, threads, &init, &f)
}

fn run_parallel<T, S, R, FI, F>(items: &[T], threads: usize, init: &FI, f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            handles.push(scope.spawn(move || {
                IN_PARALLEL_REGION.with(|flag| flag.set(true));
                let mut state = init();
                // Work-stealing by atomic index: balances uneven item
                // costs (e.g. mapping differently sized AIGs).
                let mut out: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    out.push((i, f(&mut state, i, &items[i])));
                }
                out
            }));
        }
        for h in handles {
            for (i, r) in join(h) {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed by exactly one worker"))
        .collect()
}

/// Runs `f(first_row, chunk)` over `rows`, a row-major table of
/// `row_len`-element rows, split into at most [`max_threads`]
/// contiguous chunks of at least `min_rows` rows, in parallel.
///
/// The chunks partition `rows` exactly, so each row has one writer;
/// `first_row` is the index of the chunk's first row. An empty table
/// runs nothing.
///
/// # Panics
///
/// Panics if `rows` is not a whole number of rows, and re-raises a
/// panic of `f` with its own payload.
pub fn par_rows_mut<T, F>(rows: &mut [T], row_len: usize, min_rows: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = rows.len().checked_div(row_len).unwrap_or(0);
    assert_eq!(n * row_len, rows.len(), "not whole rows of {row_len}");
    let threads = max_threads().min(n.div_ceil(min_rows.max(1)));
    if threads <= 1 {
        if n > 0 {
            f(0, rows);
        }
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = rows
            .chunks_mut(chunk * row_len)
            .enumerate()
            .map(|(c, part)| {
                scope.spawn(move || {
                    IN_PARALLEL_REGION.with(|flag| flag.set(true));
                    f(c * chunk, part);
                })
            })
            .collect();
        handles.into_iter().for_each(join);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_with_builds_worker_state() {
        let items: Vec<u64> = (0..64).collect();
        let out = par_map_with(
            &items,
            || 10u64,
            |state, _i, &x| {
                *state += 1; // worker-local; must not affect results
                x + 1
            },
        );
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn par_rows_mut_writes_every_row_once() {
        let (n, row_len) = (1237, 3);
        let mut rows = vec![0u32; n * row_len];
        par_rows_mut(&mut rows, row_len, 8, |first, part| {
            for (k, row) in part.chunks_mut(row_len).enumerate() {
                for x in row {
                    *x += (first + k) as u32 + 1;
                }
            }
        });
        for (v, row) in rows.chunks(row_len).enumerate() {
            assert!(row.iter().all(|&x| x == v as u32 + 1), "row {v}: {row:?}");
        }
        par_rows_mut(&mut [0u32; 0], row_len, 8, |_, _| panic!("no rows"));
    }

    /// A worker's panic must reach the caller with its own payload,
    /// not as a generic "worker panicked" wrapper.
    #[test]
    fn worker_panic_keeps_its_payload() {
        let items: Vec<usize> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            run_parallel(&items, 2, &|| (), &|(), i, _: &usize| {
                assert!(i != 5, "boom at item {i}");
                i
            })
        })
        .expect_err("item 5 panics");
        let message = caught.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("boom at item 5"));
    }

    #[test]
    fn nested_calls_run_serially() {
        let outer: Vec<usize> = (0..4).collect();
        let out = par_map(&outer, |_, &x| {
            // Inside a worker max_threads() must report 1, so this
            // nested call cannot spawn further threads.
            let inner: Vec<usize> = (0..8).collect();
            let s: usize = par_map(&inner, |_, &y| y).iter().sum();
            (x, s, max_threads())
        });
        for &(_, s, mt) in &out {
            assert_eq!(s, 28);
            if max_threads() > 1 {
                assert_eq!(mt, 1, "nested region must be serial");
            }
        }
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let items: Vec<u64> = (0..500).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(13);
        let a = par_map(&items, f);
        let b: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        assert_eq!(a, b);
    }
}
