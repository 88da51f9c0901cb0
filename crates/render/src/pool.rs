//! The threads of the intra-rank render board (the banded,
//! tile-parallel render path).
//!
//! A [`RenderPool`] is only a width. Its unit of work is an *index* into
//! the caller's work list (a live screen tile or a row band), and each
//! [`RenderPool::run`] drains one list on `width − 1` scoped threads
//! plus the calling thread, all claiming indices from one atomic
//! counter. No thread, lock or condvar outlives the call, and the task
//! closure is only borrowed for it.
//!
//! Determinism: the pool adds no ordering of its own. Callers hand it
//! independent work items, so the rendered image is independent of which
//! thread runs which item — the bit-identity battery in
//! `tests/proptests.rs` pins this.
//!
//! Panic safety: a panicking work item poisons nothing. The first panic
//! payload is kept, the remaining unclaimed items are cancelled, and the
//! payload is re-raised *typed* (`resume_unwind`) on the calling thread
//! once in-flight items drain — so a typed payload panicking out of a
//! render thread reaches a supervising `catch_unwind` (e.g. the serve
//! layer's) exactly as it would single-threaded.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The width a `--render-threads` value gives a [`RenderPool`]: an
/// explicit value as-is, bounded at 64 (beyond that the per-tile work
/// items are too few to feed); `0` (auto) the host's available
/// parallelism, at most 8.
pub fn resolve_threads(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get().min(8)),
        n => n.min(64),
    }
}

/// The width the renderer's board runs at. It is the only place the
/// renderer's thread count is set.
///
/// A pool of `n` threads renders with exactly `n` threads: the thread
/// calling [`RenderPool::run`] is one of them, so a pool of 1 runs
/// inline and starts no thread.
pub struct RenderPool {
    threads: usize,
}

impl RenderPool {
    /// A pool that renders with `threads` threads (minimum 1).
    pub fn new(threads: usize) -> RenderPool {
        RenderPool {
            threads: threads.max(1),
        }
    }

    /// Runs `task(i)` for every `i in 0..total`, fanned across the pool.
    ///
    /// Blocks until every item has finished. Items run concurrently in
    /// an unspecified order, so they must be independent. If any item
    /// panics, the remaining unclaimed items are cancelled and the
    /// **first** panic payload is re-raised here with its type intact.
    /// Several threads may run boards on one pool at once.
    pub fn run(&self, total: usize, task: &(dyn Fn(usize) + Sync)) {
        let next = AtomicUsize::new(0);
        let panic = Mutex::new(None);
        // `next` publishes no data: each item's results reach the caller
        // through its own locks and the scope's join.
        let lane = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= total {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                next.store(total, Ordering::Relaxed);
                panic
                    .lock()
                    .expect("no thread panics holding the payload slot")
                    .get_or_insert(payload);
            }
        };
        std::thread::scope(|scope| {
            for k in 1..self.threads.min(total) {
                std::thread::Builder::new()
                    .name(format!("vr-render-{k}"))
                    .spawn_scoped(scope, lane)
                    .expect("spawn render thread");
            }
            lane();
        });
        let first = panic
            .into_inner()
            .expect("no thread panics holding the payload slot");
        if let Some(payload) = first {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::time::{Duration, Instant};

    /// A typed panic payload: the pool must carry it across threads
    /// without flattening it to a string.
    #[derive(Debug)]
    struct TypedFailure(&'static str);

    #[test]
    fn every_index_runs_exactly_once_at_any_width() {
        for threads in [1, 2, 3, 8] {
            let pool = RenderPool::new(threads);
            // Reuse the same pool across several "frames".
            for total in [0usize, 1, 2, 5, 64] {
                let counts: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
                pool.run(total, &|i| {
                    counts[i].fetch_add(1, Ordering::SeqCst);
                });
                for (i, c) in counts.iter().enumerate() {
                    assert_eq!(
                        c.load(Ordering::SeqCst),
                        1,
                        "index {i} at {threads} threads"
                    );
                }
            }
        }
    }

    /// Two threads share one pool and run a board each, at the same
    /// time: the first item of each board waits until the other board's
    /// first item has started. Every index of both boards runs exactly
    /// once.
    #[test]
    fn two_threads_run_boards_on_one_pool_at_once() {
        let pool = RenderPool::new(3);
        let started = AtomicUsize::new(0);
        let boards: [Vec<AtomicUsize>; 2] =
            std::array::from_fn(|_| (0..64).map(|_| AtomicUsize::new(0)).collect());
        std::thread::scope(|scope| {
            for counts in &boards {
                let (pool, started) = (&pool, &started);
                scope.spawn(move || {
                    pool.run(counts.len(), &|i| {
                        if i == 0 {
                            started.fetch_add(1, Ordering::SeqCst);
                            let deadline = Instant::now() + Duration::from_secs(10);
                            while started.load(Ordering::SeqCst) < 2 {
                                assert!(Instant::now() < deadline, "the boards never overlapped");
                                std::thread::yield_now();
                            }
                        }
                        counts[i].fetch_add(1, Ordering::SeqCst);
                    });
                });
            }
        });
        for (b, counts) in boards.iter().enumerate() {
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::SeqCst), 1, "board {b} index {i}");
            }
        }
    }

    #[test]
    fn render_threading_is_auto_by_default_and_bounded() {
        // Auto: one thread per core, capped at 8.
        assert!((1..=8).contains(&resolve_threads(0)));
        // Explicit values pass through but are bounded at 64.
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(10_000), 64);
    }

    #[test]
    fn workers_actually_share_the_load() {
        let pool = RenderPool::new(4);
        let names = Mutex::new(HashSet::new());
        pool.run(64, &|_| {
            std::thread::sleep(Duration::from_millis(1));
            let name = std::thread::current()
                .name()
                .unwrap_or("submitter")
                .to_string();
            names.lock().unwrap().insert(name);
        });
        assert!(
            names.lock().unwrap().len() > 1,
            "64 sleepy items on 4 threads must not all run on one thread"
        );
    }

    #[test]
    fn worker_panic_is_reraised_typed_and_the_pool_survives() {
        let pool = RenderPool::new(4);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, &|_| {
                let on_worker = std::thread::current()
                    .name()
                    .is_some_and(|n| n.starts_with("vr-render-"));
                if on_worker {
                    // Panic from a *pool worker*, not the submitter: the
                    // payload must still surface on the submitting thread.
                    std::panic::panic_any(TypedFailure("render rank died"));
                }
                std::thread::sleep(Duration::from_millis(1));
            });
        }))
        .expect_err("a worker panic must re-raise on the submitter");
        let typed = payload
            .downcast::<TypedFailure>()
            .expect("payload type must survive the pool");
        assert_eq!(typed.0, "render rank died");

        // No hung pool: the same pool renders the next frame fine.
        let ran = AtomicUsize::new(0);
        pool.run(8, &|_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn submitter_panic_also_propagates_and_the_pool_survives() {
        let pool = RenderPool::new(2);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            pool.run(1, &|_| std::panic::panic_any(TypedFailure("boom")));
        }))
        .expect_err("panic must propagate");
        assert!(payload.downcast::<TypedFailure>().is_ok());
        pool.run(3, &|_| {});
    }
}
