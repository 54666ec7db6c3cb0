//! In-memory spans recorded by the benchmark around its calls into each
//! layer: one per workload run, pass, function sweep, serve run, shard
//! and generator phase — never one per scalar call. Recording is on only
//! in the traced build; elsewhere [`enter`] returns an inert guard.
//!
//! A span's name is `<layer>` or `<layer>.<detail>`; a layer's self time
//! is its spans' durations minus the time their child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub run: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static RUN: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Spans kept per process; a run past this keeps timing but stops
/// recording, so the trace file stays a few megabytes.
const MAX_SPANS: usize = 200_000;

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts a new run id (the workload, then each layer probe).
pub fn new_run() {
    RUN.fetch_add(1, Ordering::Relaxed);
}

/// The innermost open span on this thread (0 = none).
pub fn current() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

pub struct Guard {
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
}

/// Opens a span under this thread's innermost open span.
pub fn enter(name: &str) -> Guard {
    enter_under(current(), name)
}

/// Opens a span under `parent`, which may belong to another thread.
pub fn enter_under(parent: u64, name: &str) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent: 0,
            name: String::new(),
            start_ns: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        id,
        parent,
        name: name.to_string(),
        start_ns: now_ns(),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.remove(pos);
            }
        });
        let Ok(mut spans) = SPANS.lock() else { return };
        if spans.len() < MAX_SPANS {
            spans.push(Span {
                id: self.id,
                parent: self.parent,
                run: RUN.load(Ordering::Relaxed),
                name: std::mem::take(&mut self.name),
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}

pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span lock is never poisoned"))
}

/// The layer a span belongs to: its name up to the first `.`.
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer in nanoseconds, descending.
pub fn self_times(spans: &[Span]) -> Vec<(String, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut per_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *per_layer.entry(layer(&s.name)).or_default() += own;
    }
    let mut out: Vec<(String, u64)> = per_layer
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Writes the spans as JSON to `path`.
pub fn write_json(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"run\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{sep}",
            s.id, s.parent, s.run, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |id, parent, name: &str, start_ns, end_ns| Span {
            id,
            parent,
            run: 1,
            name: name.to_string(),
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, 0, "pass", 0, 100),
            span(2, 1, "float.ln", 10, 50),
            span(3, 1, "float.exp", 50, 80),
        ];
        assert_eq!(
            self_times(&spans),
            vec![("float".to_string(), 70), ("pass".to_string(), 30)]
        );
    }
}
