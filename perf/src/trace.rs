//! Benchmark-side spans: wall-time intervals recorded around the public
//! calls a traced run makes into each layer.
//!
//! Each thread appends to its own buffer, so concurrent recorders never
//! contend or interleave (unlike `obs::RecordingCollector`, whose single
//! span stack is shared by every thread). A thread hands its buffer over
//! with `flush` before it ends; [`spans`] merges them. The merged spans
//! feed the per-layer ledger and the Chrome trace-event export
//! ([`chrome_json`]).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static MERGED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One closed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `amsim.compile`.
    pub name: &'static str,
    /// Start, in microseconds since the first span of the process.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Recording thread (1-based, in order of first use).
    pub tid: u64,
    /// Shared by every span of one round, sweep call or served job.
    pub id: u64,
}

/// Turns span recording on or off (a traced run switches it off for
/// its untraced rounds).
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A fresh id for a group of related spans.
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Closes its span when dropped.
pub struct Guard {
    name: &'static str,
    id: u64,
    start: Option<Instant>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            record(self.name, self.id, start, Instant::now());
        }
    }
}

/// Opens a span; a no-op that reads no clock when recording is off.
pub fn span(name: &'static str, id: u64) -> Guard {
    Guard {
        name,
        id,
        start: enabled().then(Instant::now),
    }
}

/// Records an interval measured by the caller.
pub fn record(name: &'static str, id: u64, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let e = epoch();
    let start_us = start.saturating_duration_since(e).as_secs_f64() * 1e6;
    let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
    let tid = TID.with(|t| *t);
    LOCAL.with(|l| {
        l.borrow_mut().push(Span {
            name,
            start_us,
            dur_us,
            tid,
            id,
        })
    });
}

/// Hands this thread's spans to the process-wide list; a thread that
/// records spans calls it before it ends.
pub fn flush() {
    let spans = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
    MERGED
        .lock()
        .expect("a thread panicked while merging spans")
        .extend(spans);
}

/// Flushes the calling thread and returns a copy of every merged span,
/// ordered by start time.
pub fn spans() -> Vec<Span> {
    flush();
    let mut all = MERGED.lock().expect("span list lock").clone();
    all.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    all
}

/// Total and count of the spans named `name`.
pub fn total_us(spans: &[Span], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, n), s| (t + s.dur_us, n + 1))
}

/// The spans as Chrome trace-event JSON (complete `X` events, loadable in
/// `chrome://tracing` or Perfetto). The category is the layer: the name
/// up to its first dot.
pub fn chrome_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let cat = s.name.split('.').next().unwrap_or(s.name);
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{}}}}}",
            s.name, s.start_us, s.dur_us, s.tid, s.id
        ));
    }
    out.push_str(&format!(
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workload\":\"{workload}\"}}}}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_export_is_valid_json_with_one_event_per_span() {
        let spans = vec![
            Span {
                name: "amsim.compile",
                start_us: 0.5,
                dur_us: 10.0,
                tid: 1,
                id: 3,
            },
            Span {
                name: "serve.job",
                start_us: 2.0,
                dur_us: 1.25,
                tid: 2,
                id: 4,
            },
        ];
        let text = chrome_json(&spans, "serve");
        let doc = serve::json::parse(&text).expect("trace is valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("cat").and_then(|c| c.as_str()), Some("amsim"));
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(1.25));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("id"))
                .and_then(|i| i.as_u64()),
            Some(4)
        );
        assert_eq!(total_us(&spans, "serve.job"), (1.25, 1));
    }

    #[test]
    fn threads_buffer_separately_and_merge_on_flush() {
        set_enabled(true);
        let id = next_id();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(move || {
                    for _ in 0..3 {
                        let _g = span("test.worker", id);
                    }
                    flush();
                });
            }
        });
        let all = spans();
        let mine: Vec<&Span> = all.iter().filter(|s| s.id == id).collect();
        assert_eq!(mine.len(), 6);
        let mut tids: Vec<u64> = mine.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 2, "each thread keeps its own buffer");
    }
}
