//! The persistent drain pool.
//!
//! A multi-worker [`crate::MarketService::drain_into`] serves its shards on
//! the calling thread plus up to `workers - 1` helper threads.  The helpers
//! are spawned by the first such drain and park on a condition variable
//! between drains, so a drain pays one wake-up instead of a thread spawn
//! and join per helper.
//!
//! Every [`DrainPool::run`] is one *epoch*.  The caller publishes it under
//! the control mutex — it resets the claim word to `(epoch, 0)` and bumps
//! the epoch number — and wakes the helpers.  Everyone then claims task
//! indices from the claim word with a compare-and-swap that also checks
//! the epoch tag, so a helper that wakes late, after its epoch ended, can
//! never claim a task of the next one.  The caller claims tasks too, then
//! waits until every task of the epoch has completed: it polls the
//! completion counter for a bounded number of spins before it parks,
//! because on a small drain the helper's last task ends within a few
//! microseconds, and a park costs two context switches, more than the
//! drain itself.  How often a helper is still busy when the caller runs out
//! of tasks is a race; without the spin that race set a small drain's cost
//! from one run to the next.
//!
//! A panicking task is caught on the thread that ran it.  The first payload
//! of the epoch is handed to the caller, which re-raises it once every task
//! has completed: a panic on a helper surfaces from the drain, never as a
//! caller waiting forever for a task that will not finish.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// Low bits of the claim word: the next unclaimed task index.  The high
/// bits carry the epoch tag.
const INDEX_BITS: u32 = 32;
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;

/// Polls of the completion counter before the caller parks on `done`:
/// about 10 µs on a core whose spin-loop hint takes 20 ns.
const SPINS: usize = 512;

/// What the caller and its helpers agree on under the control mutex.
#[derive(Debug)]
struct Control {
    /// The current epoch; bumped once per [`DrainPool::run`].
    epoch: u64,
    /// Helpers that take part in the current epoch: helper `i` joins when
    /// `i < active`, the others go back to sleep.
    active: usize,
    /// Set once by [`Drop`]: every helper returns.
    shutdown: bool,
    /// The first panic payload a task raised this epoch.
    panic: Option<Box<dyn Any + Send>>,
}

#[derive(Debug)]
struct Shared<T: ?Sized> {
    context: Arc<T>,
    task: fn(&T, usize),
    tasks: usize,
    control: Mutex<Control>,
    /// Helpers park here between epochs.
    wake: Condvar,
    /// The caller parks here until the epoch's last task completes.
    done: Condvar,
    /// `(epoch tag << INDEX_BITS) | next unclaimed task index`.  Claims
    /// publish no data, so it is `Relaxed` throughout: a task's inputs
    /// reach a helper through the control mutex it locked to learn the
    /// epoch, and its results reach the caller through the task's own
    /// locks plus the `completed` counter.
    claim: AtomicU64,
    /// Tasks of the current epoch that have finished, panicked or not.  The
    /// `AcqRel` increment pairs with the caller's `Acquire` load, so
    /// everything a task wrote happens-before the caller's return.
    completed: AtomicUsize,
}

impl<T: ?Sized> Shared<T> {
    /// The control block.  Every update to it is a plain field write that
    /// leaves it valid, and no task runs while it is held, so a poisoned
    /// lock is recovered rather than propagated.
    fn control(&self) -> MutexGuard<'_, Control> {
        self.control.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims the next task of `epoch`, or `None` once the epoch has no
    /// unclaimed task left or has already been superseded.
    fn claim(&self, epoch: u64) -> Option<usize> {
        let tag = epoch << INDEX_BITS;
        let mut word = self.claim.load(Ordering::Relaxed);
        loop {
            let index = word & INDEX_MASK;
            if word & !INDEX_MASK != tag || index >= self.tasks as u64 {
                return None;
            }
            match self.claim.compare_exchange_weak(
                word,
                word + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(index as usize),
                Err(current) => word = current,
            }
        }
    }

    /// Runs tasks of `epoch` until none is left to claim.
    fn work(&self, epoch: u64) {
        while let Some(index) = self.claim(epoch) {
            let outcome =
                panic::catch_unwind(AssertUnwindSafe(|| (self.task)(&self.context, index)));
            if let Err(payload) = outcome {
                self.control().panic.get_or_insert(payload);
            }
            if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.tasks {
                // Taking the lock orders this notification after the
                // caller's check-then-wait, so the wake-up cannot be lost.
                let _control = self.control();
                self.done.notify_one();
            }
        }
    }
}

/// The body of helper `index`: park until an epoch it takes part in (or
/// shutdown) is published, serve it, repeat.
fn helper<T: ?Sized>(shared: &Shared<T>, index: usize, mut seen: u64) {
    loop {
        let mut control = shared.control();
        loop {
            if control.shutdown {
                return;
            }
            if control.epoch != seen {
                seen = control.epoch;
                if index < control.active {
                    break;
                }
            }
            control = shared
                .wake
                .wait(control)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(control);
        shared.work(seen);
    }
}

/// A pool of parked helper threads that run `task(context, index)` for
/// every index below a fixed task count, once per [`DrainPool::run`].
#[derive(Debug)]
pub(crate) struct DrainPool<T: ?Sized + Send + Sync + 'static> {
    shared: Arc<Shared<T>>,
    helpers: Vec<JoinHandle<()>>,
}

impl<T: ?Sized + Send + Sync + 'static> DrainPool<T> {
    /// A pool with no helpers yet: [`DrainPool::run`] spawns them on
    /// demand.
    pub(crate) fn new(context: Arc<T>, tasks: usize, task: fn(&T, usize)) -> Self {
        assert!(
            tasks as u64 <= INDEX_MASK,
            "a drain pool indexes at most {INDEX_MASK} tasks"
        );
        Self {
            shared: Arc::new(Shared {
                context,
                task,
                tasks,
                control: Mutex::new(Control {
                    epoch: 0,
                    active: 0,
                    shutdown: false,
                    panic: None,
                }),
                wake: Condvar::new(),
                done: Condvar::new(),
                claim: AtomicU64::new(0),
                completed: AtomicUsize::new(0),
            }),
            helpers: Vec::new(),
        }
    }

    /// Runs every task once, on the calling thread plus up to `helpers`
    /// pool threads, and returns when all of them have completed.
    ///
    /// # Panics
    /// Re-raises the first panic a task raised, after every other task of
    /// the epoch has completed.
    pub(crate) fn run(&mut self, helpers: usize) {
        self.spawn_up_to(helpers);
        let shared = &*self.shared;
        let epoch = {
            let mut control = shared.control();
            control.epoch = control.epoch.wrapping_add(1);
            control.active = helpers;
            shared.completed.store(0, Ordering::Relaxed);
            shared
                .claim
                .store(control.epoch << INDEX_BITS, Ordering::Relaxed);
            control.epoch
        };
        shared.wake.notify_all();
        shared.work(epoch);
        for _ in 0..SPINS {
            if shared.completed.load(Ordering::Acquire) == shared.tasks {
                break;
            }
            std::hint::spin_loop();
        }
        let payload = {
            let mut control = shared.control();
            while shared.completed.load(Ordering::Acquire) < shared.tasks {
                control = shared
                    .done
                    .wait(control)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            control.panic.take()
        };
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }

    /// Grows the pool to `helpers` threads.  A host that refuses another
    /// thread still drains: the caller claims whatever no helper does.
    fn spawn_up_to(&mut self, helpers: usize) {
        while self.helpers.len() < helpers {
            let index = self.helpers.len();
            let shared = Arc::clone(&self.shared);
            let seen = shared.control().epoch;
            let spawned = thread::Builder::new()
                .name(format!("pdm-drain-{index}"))
                .spawn(move || helper(&shared, index, seen));
            match spawned {
                Ok(handle) => self.helpers.push(handle),
                Err(_) => break,
            }
        }
    }
}

impl<T: ?Sized + Send + Sync + 'static> Drop for DrainPool<T> {
    fn drop(&mut self) {
        self.shared.control().shutdown = true;
        self.shared.wake.notify_all();
        for helper in self.helpers.drain(..) {
            // Tasks run under `catch_unwind`, so a helper cannot die of a
            // task's panic; a join error has nothing left to report.
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn every_task_runs_once_per_epoch_for_any_helper_count() {
        let counts: Arc<Vec<AtomicUsize>> = Arc::new((0..8).map(|_| AtomicUsize::new(0)).collect());
        let mut pool = DrainPool::new(Arc::clone(&counts), 8, |counts, index| {
            counts[index].fetch_add(1, Ordering::Relaxed);
        });
        for (epoch, helpers) in [1, 3, 0, 2, 1].into_iter().enumerate() {
            pool.run(helpers);
            for count in counts.iter() {
                assert_eq!(count.load(Ordering::Relaxed), epoch + 1);
            }
        }
        assert_eq!(
            pool.helpers.len(),
            3,
            "the pool grows to the largest request"
        );
    }

    /// Two tasks that each wait at a two-party barrier cannot both run on
    /// one thread, so the caller runs one and the helper the other.
    struct Rendezvous {
        barrier: Barrier,
        /// Whether the task on a helper (`Some(true)`) or on the caller
        /// (`Some(false)`) panics.
        panic_on_helper: Mutex<Option<bool>>,
    }

    fn rendezvous(context: &Rendezvous, index: usize) {
        context.barrier.wait();
        let on_helper = thread::current()
            .name()
            .is_some_and(|name| name.starts_with("pdm-drain-"));
        if *context.panic_on_helper.lock().unwrap() == Some(on_helper) {
            panic!("task {index} failed");
        }
    }

    #[test]
    fn a_panic_on_a_helper_or_the_caller_is_re_raised_by_run() {
        let context = Arc::new(Rendezvous {
            barrier: Barrier::new(2),
            panic_on_helper: Mutex::new(None),
        });
        let mut pool = DrainPool::new(Arc::clone(&context), 2, rendezvous);
        for on_helper in [true, false] {
            *context.panic_on_helper.lock().unwrap() = Some(on_helper);
            let payload = panic::catch_unwind(AssertUnwindSafe(|| pool.run(1)))
                .expect_err("a task panic surfaces from run");
            let message = payload.downcast::<String>().unwrap();
            assert!(message.contains("failed"), "{message}");

            // The pool survives the panic and serves the next epoch.
            *context.panic_on_helper.lock().unwrap() = None;
            pool.run(1);
        }
    }
}
