//! The process-wide worker pool behind every fan-out.
//!
//! `width − 1` worker threads start on the first published fan-out and live
//! for the rest of the process, so their thread-locals (FFT plans, scratch
//! buffers) stay warm from one call to the next.
//!
//! Every fan-out — a terminal operation's batches or a [`crate::scope`]'s
//! spawned tasks — is a [`Group`]. Publishing a task pushes it onto its
//! group's own list and a handle to the group onto the shared queue; a
//! worker that pops the handle runs one task of that group, if any is left.
//! The thread that owns the group then claims and runs its own tasks too
//! ([`Group::join`]) and only sleeps once all of them are taken, so a busy
//! pool never makes a caller slower than running inline, and concurrent
//! callers never wait on each other's tasks.
//!
//! Workers never block on other work: a parallel call made from inside a
//! task builds an unpublished group, which its own thread drains inline.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::thread::{self, Thread};

/// A spawned task with its borrow lifetime erased (see [`Group::submit`]).
pub(crate) type Task = Box<dyn FnOnce() + Send>;

type Payload = Box<dyn Any + Send>;

thread_local! {
    /// How many pool tasks are running on this thread, each inside the
    /// last: 0 outside any task.
    static TASK_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// How many pool tasks are running on the calling thread, each nested in
/// the one before: 0 outside any task. Every task starts one level deeper
/// than the code around it, whichever thread runs it, so thread-local
/// state tagged with the depth (e.g. a span stack) can treat a task as a
/// fresh root — as it would be on a thread of its own. Not part of
/// rayon's API.
pub fn task_depth() -> usize {
    TASK_DEPTH.with(Cell::get)
}

/// Whether the calling thread is inside a pool task; parallel calls made
/// there run inline.
pub(crate) fn in_task() -> bool {
    task_depth() > 0
}

/// Groups with a published, possibly still unclaimed, task — one entry per
/// task — and the number of workers asleep waiting for one.
struct Queue {
    groups: VecDeque<Arc<Group>>,
    idle: usize,
}

static QUEUE: Mutex<Queue> = Mutex::new(Queue { groups: VecDeque::new(), idle: 0 });
static WORK: Condvar = Condvar::new();
static START: Once = Once::new();

/// Every critical section in this module is a single push, pop or counter
/// update that cannot panic half-way, so a poisoned lock still guards
/// valid data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Starts the `width − 1` workers the first time work is published. They
/// live for the rest of the process and catch every task's panic, so no
/// handle is kept to join them.
fn start_workers() {
    START.call_once(|| {
        for i in 1..crate::pin_width() {
            thread::Builder::new()
                .name(format!("rayon-worker-{i}"))
                .spawn(worker)
                .expect("spawn pool worker thread");
        }
    });
}

fn worker() {
    let mut queue = lock(&QUEUE);
    loop {
        match queue.groups.pop_front() {
            Some(group) => {
                drop(queue);
                group.run_one();
                drop(group);
                queue = lock(&QUEUE);
            }
            None => {
                queue.idle += 1;
                queue = WORK.wait(queue).unwrap_or_else(PoisonError::into_inner);
                queue.idle -= 1;
            }
        }
    }
}

/// The tasks of one fan-out and the bookkeeping to join them.
pub(crate) struct Group {
    /// Spawned tasks not yet claimed, in spawn order.
    tasks: Mutex<VecDeque<Task>>,
    /// Tasks spawned and not yet finished. Incremented before a task is
    /// pushed and decremented (`AcqRel`) after it ran, so the owner's
    /// `Acquire` load of 0 happens after every task's effects.
    pending: AtomicUsize,
    /// The first panic payload a task raised.
    panic: Mutex<Option<Payload>>,
    /// The thread that joins this group; woken when a task finishes.
    owner: Thread,
    /// Whether workers may claim tasks; otherwise the owner runs them all.
    published: bool,
}

impl Group {
    /// A group owned by the calling thread. Its tasks go to the workers
    /// only at a pool width above 1 and outside a pool task.
    pub(crate) fn new() -> Arc<Group> {
        let published = crate::num_threads() > 1 && !in_task();
        if published {
            start_workers();
        }
        Arc::new(Group {
            tasks: Mutex::new(VecDeque::new()),
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            owner: thread::current(),
            published,
        })
    }

    /// Adds `task` to the group and, when published, offers it to the
    /// workers.
    ///
    /// # Safety
    ///
    /// Everything `task` borrows must outlive the group's [`Group::join`],
    /// and `join` must run before those borrows end, even on unwind:
    /// `join` returns only after every submitted task has run.
    pub(crate) unsafe fn submit<'a>(self: &Arc<Self>, task: Box<dyn FnOnce() + Send + 'a>) {
        // SAFETY: the two types differ only in the trait object's lifetime
        // bound, and the caller guarantees the borrows outlive every call
        // of the task (it runs before `join` returns).
        let task: Task = unsafe { std::mem::transmute(task) };
        self.pending.fetch_add(1, Ordering::AcqRel);
        lock(&self.tasks).push_back(task);
        if self.published {
            let mut queue = lock(&QUEUE);
            queue.groups.push_back(Arc::clone(self));
            if queue.idle > 0 {
                WORK.notify_one();
            }
            drop(queue);
            if in_task() {
                // Spawned from a running task: wake the owner to help.
                self.owner.unpark();
            }
        }
    }

    /// Claims and runs one unclaimed task; false when none is left.
    fn run_one(&self) -> bool {
        let Some(task) = lock(&self.tasks).pop_front() else {
            return false;
        };
        let depth = task_depth();
        TASK_DEPTH.with(|d| d.set(depth + 1));
        let result = catch_unwind(AssertUnwindSafe(task));
        TASK_DEPTH.with(|d| d.set(depth));
        if let Err(payload) = result {
            lock(&self.panic).get_or_insert(payload);
        }
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.owner.unpark();
        }
        true
    }

    /// Runs the group's unclaimed tasks on the calling (owner) thread, then
    /// sleeps until the tasks workers claimed have finished. Returns the
    /// first panic payload a task raised.
    pub(crate) fn join(&self) -> Option<Payload> {
        loop {
            if self.run_one() {
                continue;
            }
            if self.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            thread::park();
        }
        lock(&self.panic).take()
    }
}
