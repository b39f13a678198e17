//! In-memory span recorder for the traced pass.
//!
//! A span is `(name, start, end, parent, thread)`. Threads record into
//! their own buffers (one uncontended mutex each), which are collected when
//! the traced rep ends; nothing is written while a rep runs. A span opened
//! on an executor worker has no enclosing span on its own thread, so its
//! parent is the span open on the framework thread at that moment — the
//! port call that handed the work to the pool.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its child spans cover. Children on two threads overlap in time; the
//! covered part is the union of their intervals, not the sum, so self time
//! never goes negative and the self times of the framework thread's spans
//! add up to the root's duration.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since recording started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within one recording, never 0.
    pub id: u32,
    /// Identifier of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Index into the name table.
    pub name: u32,
    /// Recording thread (0 is the thread that started the recording).
    pub thread: u32,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

type Buffer = Arc<Mutex<Vec<Span>>>;

struct Recorder {
    enabled: AtomicBool,
    epoch: Mutex<Instant>,
    next_id: AtomicU32,
    /// Bumped by every [`start`]; a thread whose buffer belongs to an
    /// earlier recording registers a fresh one.
    generation: AtomicU32,
    /// Span currently open on the framework thread (0 if none).
    root_open: AtomicU32,
    names: Mutex<Vec<String>>,
    buffers: Mutex<Vec<Buffer>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        enabled: AtomicBool::new(false),
        epoch: Mutex::new(Instant::now()),
        next_id: AtomicU32::new(1),
        generation: AtomicU32::new(0),
        root_open: AtomicU32::new(0),
        names: Mutex::new(Vec::new()),
        buffers: Mutex::new(Vec::new()),
    })
}

struct Local {
    buffer: Buffer,
    thread: u32,
    stack: Vec<u32>,
    is_root: bool,
    epoch: Instant,
    generation: u32,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Every critical section below is a push or a read: the data stays
    // valid even if a holder panicked.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Intern `name`, returning the id to pass to [`enter`]. Proxies do this
/// once at construction so the hot path never touches a string.
pub fn intern(name: &str) -> u32 {
    let mut names = lock(&recorder().names);
    if let Some(k) = names.iter().position(|n| n == name) {
        return k as u32;
    }
    names.push(name.to_string());
    (names.len() - 1) as u32
}

/// Start a recording on the calling thread, which becomes thread 0 (the
/// framework thread). Any earlier recording is discarded.
pub fn start() {
    let r = recorder();
    lock(&r.buffers).clear();
    *lock(&r.epoch) = Instant::now();
    r.next_id.store(1, Ordering::SeqCst);
    r.root_open.store(0, Ordering::SeqCst);
    r.generation.fetch_add(1, Ordering::SeqCst);
    with_local(|local| local.is_root = true);
    r.enabled.store(true, Ordering::SeqCst);
}

/// Stop recording and return everything recorded since [`start`].
pub fn stop() -> Recording {
    let r = recorder();
    r.enabled.store(false, Ordering::SeqCst);
    let mut spans = Vec::new();
    for buffer in lock(&r.buffers).drain(..) {
        spans.append(&mut lock(&buffer));
    }
    spans.sort_by_key(|s| (s.start, s.id));
    Recording {
        spans,
        names: lock(&r.names).clone(),
    }
}

/// Is a recording running?
pub fn enabled() -> bool {
    recorder().enabled.load(Ordering::Relaxed)
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|l| {
        let mut slot = l.borrow_mut();
        let r = recorder();
        let generation = r.generation.load(Ordering::SeqCst);
        if slot
            .as_ref()
            .is_some_and(|local| local.generation != generation)
        {
            *slot = None;
        }
        let local = slot.get_or_insert_with(|| {
            let buffer: Buffer = Arc::new(Mutex::new(Vec::new()));
            let mut buffers = lock(&r.buffers);
            buffers.push(buffer.clone());
            Local {
                buffer,
                thread: (buffers.len() - 1) as u32,
                stack: Vec::new(),
                is_root: false,
                epoch: *lock(&r.epoch),
                generation,
            }
        });
        f(local)
    })
}

/// Guard of an open span; the span is recorded when it drops.
pub struct Guard {
    open: Option<(u32, u32, u32, u64)>,
}

/// Open a span named by an [`intern`]ed id. A no-op while no recording
/// runs (one relaxed load).
pub fn enter(name: u32) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let r = recorder();
    let id = r.next_id.fetch_add(1, Ordering::Relaxed);
    let (parent, start) = with_local(|local| {
        let parent = match local.stack.last() {
            Some(&p) => p,
            None if local.is_root => 0,
            // Acquire pairs with the framework thread's Release below: the
            // worker sees the span that was open when its job was queued.
            None => r.root_open.load(Ordering::Acquire),
        };
        local.stack.push(id);
        if local.is_root {
            r.root_open.store(id, Ordering::Release);
        }
        (parent, local.epoch.elapsed().as_nanos() as u64)
    });
    Guard {
        open: Some((id, parent, name, start)),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start)) = self.open.take() else {
            return;
        };
        with_local(|local| {
            let end = local.epoch.elapsed().as_nanos() as u64;
            local.stack.pop();
            if local.is_root {
                let open = local.stack.last().copied().unwrap_or(0);
                recorder().root_open.store(open, Ordering::Release);
            }
            lock(&local.buffer).push(Span {
                id,
                parent,
                name,
                thread: local.thread,
                start,
                end,
            });
        });
    }
}

/// Everything one traced rep recorded.
#[derive(Clone, Debug, Default)]
pub struct Recording {
    /// Spans, ordered by start time.
    pub spans: Vec<Span>,
    /// Name table the spans index into.
    pub names: Vec<String>,
}

/// One row of the summary: all spans sharing a name.
#[derive(Clone, Debug, PartialEq)]
pub struct NameRow {
    /// Span name, `instance.port.method`.
    pub name: String,
    /// Number of spans.
    pub calls: u64,
    /// Sum of durations, s.
    pub total_s: f64,
    /// Sum of self times, s.
    pub self_s: f64,
    /// Wall time covered by at least one of these spans (the union of
    /// their intervals), s. Equals `total_s` on one thread.
    pub covered_s: f64,
}

/// Sum of `pick(row)` over the rows whose name ends with `suffix`.
pub fn sum_rows(rows: &[NameRow], suffix: &str, pick: impl Fn(&NameRow) -> f64) -> f64 {
    // An empty float sum is -0.0; the report should read 0.
    rows.iter()
        .filter(|r| r.name.ends_with(suffix))
        .map(pick)
        .sum::<f64>()
        + 0.0
}

/// Length of the union of `intervals` (each clipped to `[lo, hi]`), ns.
pub fn union_length(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

impl Recording {
    /// Name of a span.
    pub fn name_of(&self, span: &Span) -> &str {
        &self.names[span.name as usize]
    }

    /// Self time of every span, ns, in `self.spans` order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let covered = children
                    .get_mut(&s.id)
                    .map_or(0, |kids| union_length(kids, s.start, s.end));
                (s.end - s.start) - covered
            })
            .collect()
    }

    /// Per-name rows, largest self time first (ties by name).
    pub fn rows(&self) -> Vec<NameRow> {
        #[derive(Default)]
        struct Acc {
            calls: u64,
            total: u64,
            own: u64,
            intervals: Vec<(u64, u64)>,
        }
        let selfs = self.self_times();
        let mut by_name: BTreeMap<u32, Acc> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let acc = by_name.entry(s.name).or_default();
            acc.calls += 1;
            acc.total += s.end - s.start;
            acc.own += self_ns;
            acc.intervals.push((s.start, s.end));
        }
        let mut rows: Vec<NameRow> = by_name
            .into_iter()
            .map(|(name, mut acc)| NameRow {
                name: self.names[name as usize].clone(),
                calls: acc.calls,
                total_s: acc.total as f64 * 1e-9,
                self_s: acc.own as f64 * 1e-9,
                covered_s: union_length(&mut acc.intervals, 0, u64::MAX) as f64 * 1e-9,
            })
            .collect();
        rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s).then(a.name.cmp(&b.name)));
        rows
    }

    /// Wall time inside at least one root span, s.
    pub fn root_covered_s(&self) -> f64 {
        let mut roots: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| (s.start, s.end))
            .collect();
        union_length(&mut roots, 0, u64::MAX) as f64 * 1e-9
    }

    /// Stable text summary: span, calls, total, self, share of `wall_s`.
    pub fn text_summary(&self, wall_s: f64) -> String {
        let mut out = format!(
            "{:<44} {:>8} {:>12} {:>12} {:>7}\n",
            "span", "calls", "total[s]", "self[s]", "share"
        );
        for r in self.rows() {
            out.push_str(&format!(
                "{:<44} {:>8} {:>12.6} {:>12.6} {:>6.1}%\n",
                r.name,
                r.calls,
                r.total_s,
                r.self_s,
                100.0 * r.self_s / wall_s
            ));
        }
        out
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) JSON: one complete
    /// event per span, timestamps in microseconds.
    pub fn chrome_trace(&self) -> Json {
        let events: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                Json::obj()
                    .with("name", self.name_of(s))
                    .with("ph", "X")
                    .with("ts", s.start as f64 * 1e-3)
                    .with("dur", (s.end - s.start) as f64 * 1e-3)
                    .with("pid", 1u64)
                    .with("tid", u64::from(s.thread))
                    .with(
                        "args",
                        Json::obj()
                            .with("id", u64::from(s.id))
                            .with("parent", u64::from(s.parent)),
                    )
            })
            .collect();
        Json::obj()
            .with("displayTimeUnit", "ms")
            .with("traceEvents", events)
    }
}

/// Recordings are process-global; tests that record must not overlap.
#[cfg(test)]
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    lock(&LOCK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn rec(spans: &[(u32, u32, u32, u32, u64, u64)]) -> Recording {
        Recording {
            spans: spans
                .iter()
                .map(|&(id, parent, name, thread, start, end)| Span {
                    id,
                    parent,
                    name,
                    thread,
                    start,
                    end,
                })
                .collect(),
            names: vec!["root".into(), "child".into(), "leaf".into()],
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100] > child [10,40] > leaf [20,30]; child [50,70].
        let r = rec(&[
            (1, 0, 0, 0, 0, 100),
            (2, 1, 1, 0, 10, 40),
            (3, 2, 2, 0, 20, 30),
            (4, 1, 1, 0, 50, 70),
        ]);
        assert_eq!(r.self_times(), vec![50, 20, 10, 20]);
        let rows = r.rows();
        assert_eq!(rows[0].name, "root");
        assert_eq!((rows[1].name.as_str(), rows[1].calls), ("child", 2));
        // Self times of one thread add up to the root's duration.
        let total: f64 = rows.iter().map(|r| r.self_s).sum();
        assert!((total - 100e-9).abs() < 1e-15);
        assert!((r.root_covered_s() - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn children_on_two_threads_are_counted_by_the_interval_they_cover() {
        // Parent [0,100] hands work to two workers: [10,60] and [30,90].
        // They cover [10,90] = 80, not 50 + 60 = 110.
        let r = rec(&[
            (1, 0, 0, 0, 0, 100),
            (2, 1, 1, 1, 10, 60),
            (3, 1, 1, 2, 30, 90),
        ]);
        assert_eq!(r.self_times(), vec![20, 50, 60]);
        let child = &r.rows().into_iter().find(|x| x.name == "child").unwrap();
        assert!((child.total_s - 110e-9).abs() < 1e-15);
        assert!((child.covered_s - 80e-9).abs() < 1e-15);
        // A child that overruns its parent is clipped to the parent.
        let r = rec(&[(1, 0, 0, 0, 10, 50), (2, 1, 1, 1, 0, 80)]);
        assert_eq!(r.self_times()[0], 0);
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_length(&mut [(0, 10), (5, 20), (30, 40)], 0, 100), 30);
        assert_eq!(union_length(&mut [(0, 10), (5, 20), (30, 40)], 8, 35), 17);
        assert_eq!(union_length(&mut [], 0, 10), 0);
    }

    #[test]
    fn recorder_links_worker_spans_to_the_open_framework_span() {
        let _guard = test_lock();
        let outer = intern("test.outer");
        let inner = intern("test.inner");
        let work = intern("test.worker");
        start();
        {
            let _o = enter(outer);
            {
                let _i = enter(inner);
            }
            // The worker starts its span only once the framework thread
            // is known to be inside `outer` (and outside `inner`).
            let (go_tx, go_rx) = mpsc::channel::<()>();
            let (done_tx, done_rx) = mpsc::channel::<()>();
            let worker = std::thread::spawn(move || {
                go_rx.recv().unwrap();
                {
                    let _w = enter(work);
                    let _nested = enter(inner);
                }
                done_tx.send(()).unwrap();
            });
            go_tx.send(()).unwrap();
            done_rx.recv().unwrap();
            worker.join().unwrap();
        }
        let r = stop();
        assert!(!enabled());
        assert_eq!(r.spans.len(), 4);
        let by = |name: &str, thread: u32| {
            *r.spans
                .iter()
                .find(|s| r.name_of(s) == name && s.thread == thread)
                .unwrap()
        };
        let o = by("test.outer", 0);
        assert_eq!(o.parent, 0);
        assert_eq!(by("test.inner", 0).parent, o.id);
        let w = by("test.worker", 1);
        assert_eq!(w.parent, o.id, "worker root hangs off the open port call");
        assert_eq!(by("test.inner", 1).parent, w.id);
        assert!(o.start <= w.start && w.end <= o.end);
        // Outside a recording, enter() records nothing.
        {
            let _ = enter(outer);
        }
        start();
        assert!(stop().spans.is_empty());
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let r = rec(&[(1, 0, 0, 0, 1_000, 3_500), (2, 1, 1, 1, 2_000, 3_000)]);
        let doc = r.chrome_trace();
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[0].get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(events[0].get("dur").unwrap().as_f64(), Some(2.5));
        assert_eq!(
            events[1].path(&["args", "parent"]).unwrap().as_f64(),
            Some(1.0)
        );
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        let text = r.text_summary(2.5e-6);
        assert!(text.lines().nth(1).unwrap().starts_with("root"), "{text}");
    }
}
