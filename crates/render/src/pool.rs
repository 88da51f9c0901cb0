//! A persistent intra-rank worker pool for the banded (tile-parallel)
//! render path.
//!
//! The pool reuses the `vr-serve` worker-pool idiom — named std threads
//! parked on a condvar behind a mutex-guarded slot — but its unit of
//! work is an *index* into the caller's work list (a live screen tile or
//! a row band), not an owned job: the task closure is borrowed for the
//! duration of one [`RenderPool::run`] call, and workers only call it
//! while the submitter is blocked inside that call.
//!
//! Determinism: the pool adds no ordering of its own. Callers hand it
//! disjoint-write work items (each item owns its pixel rows), so the
//! rendered image is independent of which thread runs which item — the
//! bit-identity battery in `tests/proptests.rs` pins this.
//!
//! Panic safety: a panicking work item poisons nothing. The first panic
//! payload is kept, the remaining unclaimed items are cancelled, and the
//! payload is re-raised *typed* (`resume_unwind`) on the submitting
//! thread once in-flight items drain — so a `CompositeError` panicking
//! out of a pool worker reaches a supervising `catch_unwind` (e.g. the
//! serve layer's) exactly as it would single-threaded, and the pool
//! stays usable for the next frame.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Type-erased pointer to the current job's task closure, with the
/// closure's lifetime erased. The hidden borrow is sound because `run`
/// does not return while any worker can still reach the job (see
/// [`RenderPool::run`]).
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync + 'static));

impl TaskPtr {
    fn erase(task: &(dyn Fn(usize) + Sync)) -> TaskPtr {
        // SAFETY: only erases the pointee's lifetime; callers (only
        // `run`) guarantee the pointer is dead before the borrow ends.
        TaskPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(task)
        })
    }
}

// SAFETY: the pointee is `Sync`, so calling it from several threads is
// fine, and the pointer never outlives the `run` call that stored it.
unsafe impl Send for TaskPtr {}

/// One `run` call's worth of work: a counter the threads race on.
struct Job {
    task: TaskPtr,
    /// Next unclaimed work index.
    next: usize,
    /// Total work items in this job.
    total: usize,
    /// Claimed-but-unfinished items.
    running: usize,
    /// First panic payload raised by a work item, if any.
    panic: Option<Box<dyn Any + Send>>,
}

#[derive(Default)]
struct State {
    job: Option<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when work arrives or the pool shuts down.
    ready: Condvar,
    /// Signalled when the in-flight job may have drained.
    done: Condvar,
}

/// The thread count a `render_threads` knob resolves to: an explicit
/// value as-is, bounded at 64 (beyond that the per-tile work items are
/// too few to feed); `0` (auto) the host's available parallelism divided
/// among the `sharers` rendering at once (a service's workers), at least
/// 1 and at most 8, so nothing oversubscribes.
pub fn resolve_threads(requested: usize, sharers: usize) -> usize {
    match requested {
        0 => {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            (cores / sharers.max(1)).clamp(1, 8)
        }
        n => n.min(64),
    }
}

/// A fixed-size pool of render worker threads, spawned once (per
/// `Experiment::prepare`, per serve worker, …) and reused across frames.
///
/// `new(threads)` spawns `threads - 1` workers; the thread calling
/// [`RenderPool::run`] participates as the remaining lane, so a pool of
/// `n` threads renders with exactly `n` threads and a pool of 1 runs
/// inline with zero overhead.
pub struct RenderPool {
    shared: Option<Arc<Shared>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl RenderPool {
    /// Creates a pool that renders with `threads` threads (minimum 1).
    pub fn new(threads: usize) -> RenderPool {
        let threads = threads.max(1);
        if threads == 1 {
            return RenderPool {
                shared: None,
                workers: Vec::new(),
                threads,
            };
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            ready: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vr-render-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn render worker")
            })
            .collect();
        RenderPool {
            shared: Some(shared),
            workers,
            threads,
        }
    }

    /// The number of threads this pool renders with (including the
    /// submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `task(i)` for every `i in 0..total`, fanned across the pool.
    ///
    /// Blocks until every item has finished. Items run concurrently in
    /// an unspecified order, so they must be independent (in the render
    /// they write disjoint pixels). If any item panics, the remaining
    /// unclaimed items are cancelled and the **first** panic payload is
    /// re-raised here with its type intact; the pool remains usable.
    pub fn run(&self, total: usize, task: &(dyn Fn(usize) + Sync)) {
        if total == 0 {
            return;
        }
        let Some(shared) = &self.shared else {
            // Single-threaded pool: run inline, panics propagate as-is.
            for i in 0..total {
                task(i);
            }
            return;
        };
        {
            let mut state = shared.state.lock().unwrap();
            assert!(state.job.is_none(), "RenderPool::run is not reentrant");
            state.job = Some(Job {
                task: TaskPtr::erase(task),
                next: 0,
                total,
                running: 0,
                panic: None,
            });
            shared.ready.notify_all();
        }
        // The submitting thread participates as a lane: claim and run
        // items exactly like a worker until none are left.
        loop {
            let claimed = {
                let mut state = shared.state.lock().unwrap();
                claim(state.job.as_mut().expect("job installed above"))
            };
            let Some(idx) = claimed else { break };
            let result = catch_unwind(AssertUnwindSafe(|| task(idx)));
            let mut state = shared.state.lock().unwrap();
            finish(state.job.as_mut().expect("job installed above"), result);
        }
        // Wait for workers to drain their in-flight items; only then is
        // the borrow behind `TaskPtr` (and the items it captures) dead.
        let mut state = shared.state.lock().unwrap();
        while state.job.as_ref().is_some_and(|j| j.running > 0) {
            state = shared.done.wait(state).unwrap();
        }
        let job = state.job.take().expect("job installed above");
        drop(state);
        if let Some(payload) = job.panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for RenderPool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            shared.state.lock().unwrap().shutdown = true;
            shared.ready.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Claims the next work index, or `None` when the job is exhausted
/// (including when a panic cancelled the remainder).
fn claim(job: &mut Job) -> Option<usize> {
    if job.next >= job.total {
        return None;
    }
    let idx = job.next;
    job.next += 1;
    job.running += 1;
    Some(idx)
}

/// Records one finished item; a panic cancels the unclaimed remainder
/// and keeps the first payload for the submitter to re-raise.
fn finish(job: &mut Job, result: Result<(), Box<dyn Any + Send>>) {
    job.running -= 1;
    if let Err(payload) = result {
        job.next = job.total;
        if job.panic.is_none() {
            job.panic = Some(payload);
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut state = shared.state.lock().unwrap();
    loop {
        let (task, idx) = loop {
            if state.shutdown {
                return;
            }
            match state.job.as_mut().and_then(|job| {
                let task = job.task;
                claim(job).map(|idx| (task, idx))
            }) {
                Some(work) => break work,
                None => state = shared.ready.wait(state).unwrap(),
            }
        };
        drop(state);
        // SAFETY: the submitter blocks in `run` until this item is
        // recorded as finished, so the closure behind `task` is alive.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*task.0)(idx) }));
        state = shared.state.lock().unwrap();
        let job = state.job.as_mut().expect("job outlives its items");
        finish(job, result);
        // The submitter waits for the whole job to drain.
        if job.next >= job.total && job.running == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// A typed panic payload standing in for `CompositeError`: the pool
    /// must carry it across threads without flattening it to a string.
    #[derive(Debug)]
    struct TypedFailure(&'static str);

    #[test]
    fn every_index_runs_exactly_once_at_any_width() {
        for threads in [1, 2, 3, 8] {
            let pool = RenderPool::new(threads);
            assert_eq!(pool.threads(), threads);
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
