//! At pool width 1 no parallel call starts a thread: every terminal
//! operation and every scope task runs on the calling thread.

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread;

use rayon::prelude::*;

/// Threads in this process (Linux only; elsewhere the thread-id check
/// below carries the test alone).
fn os_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

#[test]
fn width_one_creates_no_threads() {
    rayon::ThreadPoolBuilder::new().num_threads(1).build_global().unwrap();
    let before = os_threads();
    let seen = Mutex::new(HashSet::new());
    let record = || {
        seen.lock().unwrap().insert(thread::current().id());
    };

    let n = 16 * rayon::MIN_PARALLEL_ITEMS;
    let mut v = vec![0u64; n];
    for _ in 0..50 {
        v.par_chunks_mut(1).for_each(|c| {
            c[0] += 1;
            record();
        });
        let out: Vec<usize> = (0..n)
            .into_par_iter()
            .map(|i| {
                record();
                i
            })
            .collect();
        assert_eq!(out, (0..n).collect::<Vec<_>>());
        rayon::scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| record());
            }
        });
    }
    assert!(v.iter().all(|&x| x == 50));
    assert_eq!(os_threads(), before, "a width-1 parallel call started a thread");
    let seen = seen.into_inner().unwrap();
    assert_eq!(seen.len(), 1);
    assert!(seen.contains(&thread::current().id()));
}
