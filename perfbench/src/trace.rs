//! In-memory span recorder for the traced run.
//!
//! Each span keeps its name, start, end and parent (the innermost open
//! span on the same thread). Spans are written out as JSON lines when the
//! benchmark ends; per-layer metrics are derived from their durations and
//! self times. Recording is off until [`enable`] is called, so the
//! untraced run pays one atomic load per call site.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("span table poisoned by a panicking benchmark thread")
}

/// Starts recording spans.
pub fn enable() {
    ON.store(true, Ordering::SeqCst);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// An open span; closes when dropped.
pub struct Guard(Option<usize>);

/// Opens a span named `name` under the innermost open span of this thread.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let idx = {
        let mut table = spans();
        table.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
        });
        table.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(idx));
    Guard(Some(idx))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end = now_ns();
            if let Ok(mut table) = SPANS.lock() {
                table[idx].end_ns = end;
            }
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// A copy of every closed span.
pub fn snapshot() -> Vec<Span> {
    spans().iter().filter(|s| s.end_ns != 0).cloned().collect()
}

/// Durations in milliseconds of every closed span named `name`.
pub fn durations_ms(name: &str) -> Vec<f64> {
    snapshot()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-6)
        .collect()
}

/// Self time of each span: its duration minus the time its direct
/// children cover.
pub fn self_ns(all: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; all.len()];
    for s in all {
        if let Some(p) = s.parent.filter(|&p| p < all.len()) {
            child[p] += s.dur_ns();
        }
    }
    all.iter()
        .zip(&child)
        .map(|(s, &c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// For every span named `parent`, the summed duration in milliseconds of
/// its direct children named `child`, and the parent's own duration.
pub fn child_sums_ms(all: &[Span], parent: &str, child: &str) -> Vec<(f64, f64)> {
    let mut sums: Vec<(usize, u64)> = Vec::new();
    for (i, s) in all.iter().enumerate() {
        if s.name == parent {
            sums.push((i, 0));
        }
    }
    for s in all {
        if s.name != child {
            continue;
        }
        if let Some(entry) = sums.iter_mut().find(|(i, _)| Some(*i) == s.parent) {
            entry.1 += s.dur_ns();
        }
    }
    sums.into_iter()
        .map(|(i, c)| (c as f64 * 1e-6, all[i].dur_ns() as f64 * 1e-6))
        .collect()
}

/// Writes every closed span, with its self time, as one JSON line each.
pub fn write_jsonl(path: &Path) -> std::io::Result<()> {
    let all = snapshot();
    let selfs = self_ns(&all);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, self_t)) in all.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_t}}}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let all = vec![
            Span {
                name: "step",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            Span {
                name: "a",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
            },
            Span {
                name: "b",
                start_ns: 15,
                end_ns: 20,
                parent: Some(1),
            },
        ];
        assert_eq!(self_ns(&all), vec![60, 25, 10, 5]);
        assert_eq!(
            child_sums_ms(&all, "step", "a"),
            vec![(40.0 * 1e-6, 100.0 * 1e-6)]
        );
    }
}
