//! The persistent pool at width 2: panics reach the caller, nested calls
//! run inline without deadlock, concurrent callers get their own ordered
//! results, and the same threads serve every fan-out.
//!
//! The pool width is fixed once per process, so width-1 behaviour lives in
//! its own test binary (`width_one.rs`).

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Barrier, Mutex, Once};
use std::thread::{self, ThreadId};
use std::time::Duration;

use rayon::prelude::*;

const WIDTH: usize = 2;

/// Enough items to fan out to the whole pool.
const N: usize = 4 * rayon::MIN_PARALLEL_ITEMS;

fn width2() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        rayon::ThreadPoolBuilder::new().num_threads(WIDTH).build_global().unwrap();
    });
    assert_eq!(rayon::current_num_threads(), WIDTH);
}

/// Runs `f` on its own thread and fails, instead of hanging, if it does
/// not finish within a generous deadline.
fn without_deadlock<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(60)).expect("parallel call deadlocked")
}

fn payload_str(p: &(dyn std::any::Any + Send)) -> &str {
    p.downcast_ref::<&str>().copied().unwrap_or("<non-str payload>")
}

fn sum_of_squares() -> usize {
    (0..N).into_par_iter().map(|i| i * i).collect::<Vec<_>>().into_iter().sum()
}

#[test]
fn task_panics_reach_the_caller_and_the_pool_keeps_working() {
    width2();
    let expected: usize = (0..N).map(|i| i * i).sum();

    let mut data = vec![0u32; N];
    let err = catch_unwind(AssertUnwindSafe(|| {
        data.par_chunks_mut(1).enumerate().for_each(|(i, _)| {
            if i == N - 1 {
                panic!("for_each boom");
            }
        })
    }))
    .unwrap_err();
    assert_eq!(payload_str(&*err), "for_each boom");
    assert_eq!(sum_of_squares(), expected);

    let err = catch_unwind(|| {
        (0..N)
            .into_par_iter()
            .map(|i| if i == N / 2 { panic!("collect boom") } else { i })
            .collect::<Vec<_>>()
    })
    .unwrap_err();
    assert_eq!(payload_str(&*err), "collect boom");
    assert_eq!(sum_of_squares(), expected);

    let err = catch_unwind(|| {
        rayon::scope(|s| {
            s.spawn(|_| {});
            s.spawn(|_| panic!("scope boom"));
        })
    })
    .unwrap_err();
    assert_eq!(payload_str(&*err), "scope boom");
    assert_eq!(sum_of_squares(), expected);
}

/// Thread ids of a nested parallel-iterator call and a nested scope.
fn nested_thread_ids() -> Vec<ThreadId> {
    let mut ids: Vec<ThreadId> = (0..N).into_par_iter().map(|_| thread::current().id()).collect();
    let from_scope = Mutex::new(Vec::new());
    rayon::scope(|s| {
        for _ in 0..4 {
            s.spawn(|_| from_scope.lock().unwrap().push(thread::current().id()));
        }
    });
    ids.extend(from_scope.into_inner().unwrap());
    ids
}

#[test]
fn nested_calls_complete_and_run_on_the_task_thread() {
    width2();
    let (from_iter, from_scope) = without_deadlock(|| {
        let from_iter: Vec<bool> = (0..N)
            .into_par_iter()
            .map(|_| {
                let me = thread::current().id();
                nested_thread_ids().iter().all(|&t| t == me)
            })
            .collect();
        // Task `quick` finishes before task `nesting` makes its nested
        // calls, so the other pool thread sits idle and would take part
        // of them if nested calls were handed to the pool.
        let quick_done = AtomicBool::new(false);
        let mut from_scope = true;
        rayon::scope(|s| {
            let (quick_done, from_scope) = (&quick_done, &mut from_scope);
            s.spawn(move |_| {
                while !quick_done.load(Ordering::Acquire) {
                    thread::yield_now();
                }
                let me = thread::current().id();
                *from_scope = (0..200).all(|_| nested_thread_ids().iter().all(|&t| t == me));
            });
            s.spawn(move |_| quick_done.store(true, Ordering::Release));
        });
        (from_iter, from_scope)
    });
    assert!(from_iter.iter().all(|&inline| inline), "pool-task nested call left its thread");
    assert!(from_scope, "scope-task nested call left its thread");
}

#[test]
fn concurrent_callers_get_their_own_ordered_results() {
    width2();
    let start = Barrier::new(4);
    thread::scope(|s| {
        for caller in 0..4usize {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for round in 0..200usize {
                    let out: Vec<usize> =
                        (0..N).into_par_iter().map(|i| i * 7 + caller * 1000 + round).collect();
                    let want: Vec<usize> = (0..N).map(|i| i * 7 + caller * 1000 + round).collect();
                    assert_eq!(out, want, "caller {caller} round {round}");
                }
            });
        }
    });
}

#[test]
fn a_thousand_fanouts_reuse_at_most_width_threads() {
    width2();
    let seen = Mutex::new(HashSet::new());
    let mut v = vec![0u64; N];
    for _ in 0..1000 {
        v.par_chunks_mut(1).for_each(|c| {
            c[0] += 1;
            seen.lock().unwrap().insert(thread::current().id());
        });
    }
    assert!(v.iter().all(|&x| x == 1000));
    let distinct = seen.into_inner().unwrap().len();
    assert!(distinct <= WIDTH, "{distinct} distinct threads ran 1000 fan-outs at width {WIDTH}");
}
