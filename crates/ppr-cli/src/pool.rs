//! The experiment pool: independent jobs on a fixed set of scoped
//! threads, with every result handed back strictly in job order.
//!
//! The pool runs whole experiments side by side, which is coarse enough
//! for the threads to pay for themselves. Long jobs start first, so the
//! threads finish together rather than one of them running a long job
//! alone at the end.
//!
//! The pool starts at most one thread per job, so a run of fewer jobs
//! than pool threads leaves some idle. `run` lends those to the jobs
//! (`threads_per_job` in `main.rs`): each job may use its own thread
//! plus an equal share of the idle ones, counted only up to the
//! machine's available parallelism, and passes that count to
//! `Experiment::run_with_threads`. The only experiments that use it are
//! the mesh floods, whose decode crew
//! (`ppr_sim::experiments::mesh::MeshDriver::run_to_end`) is the one
//! other place simulation work runs on more than one thread, and which
//! takes at most one helper, the crew size measured. So a solo
//! `run mesh10k` decodes on two threads where the machine has two, and
//! `run --all`, with far more jobs than threads, lends nothing.
//! Because [`run_ordered`] releases results in job order, and every
//! experiment is a pure function of its scenario, the caller's output is
//! byte-identical to running the jobs one after another.

use std::cmp::Reverse;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Stack size of a pool thread: the main thread's usual 8 MiB, so an
/// experiment needs no more stack on the pool than it does serially.
const STACK_BYTES: usize = 8 << 20;

/// Where one job stands.
enum Slot<T> {
    Pending,
    Done(Arc<T>),
    /// The job panicked, or a job it depends on did.
    Failed,
}

struct Shared<T> {
    slots: Mutex<Vec<Slot<T>>>,
    changed: Condvar,
    /// Job indices in the order they start.
    order: Vec<usize>,
    /// The next position in `order` to start.
    next: AtomicUsize,
    /// Set when no further job should start.
    stop: AtomicBool,
}

impl<T> Shared<T> {
    /// Blocks until job `k` has finished: its result, or `None` if it
    /// failed. A poisoned lock is recovered: every update is a single
    /// slot assignment, so the slots are valid at every step.
    fn wait(&self, k: usize) -> Option<Arc<T>> {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match &slots[k] {
                Slot::Pending => {
                    slots = self
                        .changed
                        .wait(slots)
                        .unwrap_or_else(PoisonError::into_inner)
                }
                Slot::Done(t) => return Some(Arc::clone(t)),
                Slot::Failed => return None,
            }
        }
    }

    fn finish(&self, k: usize, slot: Slot<T>) {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)[k] = slot;
        self.changed.notify_all();
    }
}

/// Runs `work(k, prior)` for every job `k < jobs` on `workers` threads
/// and hands each result to `emit` in job order, as soon as it and every
/// earlier job have finished.
///
/// Jobs start in [`start_order`]: costliest first by `cost(k)`, each
/// after its dependencies. Job `k` starts only once every job in
/// `deps(k)` has finished, and `prior` holds their results in that
/// order; `deps(k)` may name only indices below `k`. Because every
/// dependency starts earlier, it has already been taken by a thread
/// when a job waits for it, which rules out a deadlock.
///
/// An `Err` from `emit` stops further jobs from starting; it is returned
/// once the running ones have finished. A panicking job stops the pool
/// too, and its panic propagates to the caller.
pub fn run_ordered<T: Send + Sync, E>(
    jobs: usize,
    workers: usize,
    deps: impl Fn(usize) -> Vec<usize> + Sync,
    cost: impl Fn(usize) -> u64,
    work: impl Fn(usize, Vec<Arc<T>>) -> T + Sync,
    mut emit: impl FnMut(usize, &T) -> Result<(), E>,
) -> Result<(), E> {
    let shared = Shared {
        slots: Mutex::new((0..jobs).map(|_| Slot::Pending).collect()),
        changed: Condvar::new(),
        order: start_order(jobs, &deps, cost),
        next: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    };
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, jobs.max(1)) {
            let (shared, deps, work) = (&shared, &deps, &work);
            std::thread::Builder::new()
                .stack_size(STACK_BYTES)
                .spawn_scoped(scope, move || worker(shared, jobs, deps, work))
                .expect("spawn an experiment thread");
        }
        for k in 0..jobs {
            let Some(result) = shared.wait(k) else {
                // A job panicked; leaving the scope re-raises it.
                return Ok(());
            };
            if let Err(e) = emit(k, &result) {
                shared.stop.store(true, Ordering::Relaxed);
                return Err(e);
            }
        }
        Ok(())
    })
}

/// The order jobs start in: next is always the costliest job whose
/// dependencies have all started (ties go to the lower index). Long
/// jobs go first so that only short ones are left at the end and the
/// threads finish close together, instead of one thread running a long
/// job alone while the others idle (longest-processing-time-first list
/// scheduling). The order changes only when each job runs, never what
/// it computes or the order results are emitted in.
fn start_order(
    jobs: usize,
    deps: &impl Fn(usize) -> Vec<usize>,
    cost: impl Fn(usize) -> u64,
) -> Vec<usize> {
    let deps: Vec<Vec<usize>> = (0..jobs).map(deps).collect();
    let mut started = vec![false; jobs];
    let mut order = Vec::with_capacity(jobs);
    while order.len() < jobs {
        let next = (0..jobs)
            .filter(|&k| !started[k] && deps[k].iter().all(|&d| started[d]))
            .max_by_key(|&k| (cost(k), Reverse(k)))
            .expect("dependencies name only lower indices, so a job is always ready");
        started[next] = true;
        order.push(next);
    }
    order
}

fn worker<T>(
    shared: &Shared<T>,
    jobs: usize,
    deps: &impl Fn(usize) -> Vec<usize>,
    work: &impl Fn(usize, Vec<Arc<T>>) -> T,
) {
    while !shared.stop.load(Ordering::Relaxed) {
        let pos = shared.next.fetch_add(1, Ordering::Relaxed);
        if pos >= jobs {
            return;
        }
        let k = shared.order[pos];
        let prior: Option<Vec<Arc<T>>> = deps(k)
            .into_iter()
            .map(|d| {
                debug_assert!(d < k, "job {k} depends on a later job {d}");
                shared.wait(d)
            })
            .collect();
        let Some(prior) = prior else {
            shared.finish(k, Slot::Failed);
            continue;
        };
        match catch_unwind(AssertUnwindSafe(|| work(k, prior))) {
            Ok(t) => shared.finish(k, Slot::Done(Arc::new(t))),
            Err(panic) => {
                shared.stop.store(true, Ordering::Relaxed);
                shared.finish(k, Slot::Failed);
                resume_unwind(panic);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn results_arrive_in_job_order_whatever_the_completion_order() {
        for workers in [2, 4] {
            // Job 0 cannot finish before job 1 has: with two or more
            // threads they run side by side and finish out of order.
            let (tx, rx) = mpsc::channel();
            let rx = Mutex::new(rx);
            let finished = Mutex::new(Vec::new());
            let mut seen = Vec::new();
            let r: Result<(), ()> = run_ordered(
                6,
                workers,
                |_| Vec::new(),
                |_| 0,
                |k, _| {
                    if k == 0 {
                        rx.lock().unwrap().recv().expect("job 1 signals");
                    }
                    finished.lock().unwrap().push(k);
                    if k == 1 {
                        tx.send(()).expect("job 0 is waiting");
                    }
                    k
                },
                |k, &v| {
                    assert_eq!(k, v);
                    seen.push(v);
                    Ok(())
                },
            );
            assert_eq!(r, Ok(()));
            let finished = finished.into_inner().unwrap();
            let pos = |k| finished.iter().position(|&f| f == k).unwrap();
            assert!(pos(1) < pos(0), "{finished:?}");
            assert_eq!(seen, [0, 1, 2, 3, 4, 5], "{workers} workers");
        }
    }

    #[test]
    fn a_job_starts_after_its_dependencies_and_sees_their_results() {
        for workers in [1, 3] {
            let r: Result<(), ()> = run_ordered(
                5,
                workers,
                |k| if k == 4 { vec![0, 2] } else { Vec::new() },
                // The costliest job still waits for its dependencies.
                |k| if k == 4 { 100 } else { 0 },
                |k, prior| {
                    if k == 4 {
                        prior.iter().map(|p| **p).sum::<usize>() + 100
                    } else {
                        k
                    }
                },
                |k, &v| {
                    assert_eq!(v, if k == 4 { 102 } else { k });
                    Ok(())
                },
            );
            assert_eq!(r, Ok(()));
        }
    }

    #[test]
    fn an_emit_error_ends_the_output_and_is_returned() {
        let mut emitted = Vec::new();
        let r = run_ordered(
            50,
            2,
            |_| Vec::new(),
            |_| 0,
            |k, _| k,
            |k, _| {
                emitted.push(k);
                if k == 1 {
                    Err("closed")
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(r, Err("closed"));
        assert_eq!(emitted, [0, 1]);
    }

    #[test]
    fn the_costliest_ready_job_starts_first() {
        let cost = [1, 5, 3, 5];
        let no_deps = |_| Vec::new();
        assert_eq!(start_order(4, &no_deps, |k| cost[k]), [1, 3, 2, 0]);
        // Job 3 is the costliest but depends on the cheapest, job 0.
        let cost = [1, 5, 3, 9];
        let deps = |k| if k == 3 { vec![0] } else { Vec::new() };
        assert_eq!(start_order(4, &deps, |k| cost[k]), [1, 2, 0, 3]);
    }
}
