//! In-memory spans recorded from the benchmark's own code around every
//! call into a layer, and the arithmetic that turns them into a layer
//! table whose rows add up to the wall time.
//!
//! A span has a name, a layer, a start, an end, a parent (the span open
//! on the same thread when it started) and a task id. Spans stay in
//! memory and are written out when the run ends. With tracing off,
//! [`Tracer::span`] returns an inert guard and records nothing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Layers of the table, in print order. `idle` is time every thread
/// spent waiting (on the load generator's schedule, or for worker
/// threads to finish); `unattributed` is time inside the run that no
/// layer span covers.
pub const LAYERS: [&str; 10] = [
    "grammar_pool",
    "sql_plan",
    "engine_exec",
    "driver",
    "wire",
    "server",
    "durability",
    "analytics",
    "idle",
    "unattributed",
];

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a thread's outermost span.
    pub parent: u64,
    pub name: &'static str,
    pub layer: &'static str,
    pub thread: u32,
    pub task: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static THREADS: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = THREADS.fetch_add(1, Ordering::Relaxed) + 1;
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TASK: Cell<u64> = const { Cell::new(0) };
}

/// Tag every span this thread opens from now on with a task id (0 =
/// none).
pub fn set_task(task: u64) {
    TASK.with(|t| t.set(task));
}

pub struct Guard<'a> {
    tracer: &'a Tracer,
    open: Option<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str, layer: &'static str) -> Guard<'_> {
        if !self.on {
            return Guard {
                tracer: self,
                open: None,
            };
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let open = Span {
            id,
            parent,
            name,
            layer,
            thread: THREAD.with(|t| *t),
            task: TASK.with(Cell::get),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        Guard {
            tracer: self,
            open: Some(open),
        }
    }

    /// Every span recorded so far, ordered by start.
    pub fn take(&self) -> Vec<Span> {
        let mut v = std::mem::take(&mut *self.spans.lock().expect("span lock"));
        v.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
        v
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(mut span) = self.open.take() else {
            return;
        };
        span.end_ns = self.tracer.now_ns();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        self.tracer.spans.lock().expect("span lock").push(span);
    }
}

/// A span's self time: its duration minus the part of its interval its
/// children cover (children may overlap each other when they ran on
/// other threads; the union is subtracted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
            for (a, b) in kids {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur() - covered.min(s.dur()))
        })
        .collect()
}

/// Split the wall window `[from, to)` over layers. At every instant each
/// thread is in its innermost open span; the instant's length is shared
/// equally between the threads that are in a non-idle span, so the rows
/// always add up to the window no matter how many threads overlap. An
/// instant where no thread is busy goes to `idle` if some thread is in
/// an `idle` span and to `unattributed` otherwise.
pub fn layer_table(spans: &[Span], from: u64, to: u64) -> BTreeMap<&'static str, f64> {
    // Per thread: (time, +1 open / -1 close, span index) events.
    let mut threads: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        threads.entry(s.thread).or_default().push(i);
    }
    // Per thread, a timeline of segments (start, end, layer) where the
    // layer is that of the innermost open span.
    let mut edges: Vec<(u64, u32, Option<&'static str>)> = Vec::new();
    for (&th, idx) in &threads {
        let mut events: Vec<(u64, i8, usize)> = Vec::new();
        for &i in idx {
            events.push((spans[i].start_ns, 1, i));
            events.push((spans[i].end_ns, -1, i));
        }
        // Closes before opens at the same instant; of two spans opening
        // together the longer (the parent) opens first.
        events.sort_by_key(|&(t, kind, i)| (t, kind, std::cmp::Reverse(spans[i].end_ns)));
        let mut stack: Vec<usize> = Vec::new();
        for (t, kind, i) in events {
            if kind > 0 {
                stack.push(i);
            } else if let Some(pos) = stack.iter().rposition(|&j| j == i) {
                stack.remove(pos);
            }
            edges.push((t, th, stack.last().map(|&j| spans[j].layer)));
        }
    }
    edges.sort_by_key(|&(t, th, _)| (t, th));
    let mut rows: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    let mut state: BTreeMap<u32, &'static str> = BTreeMap::new();
    let mut t_prev = from;
    let mut flush = |state: &BTreeMap<u32, &'static str>, a: u64, b: u64| {
        let (a, b) = (a.max(from), b.min(to));
        if a >= b {
            return;
        }
        let len = (b - a) as f64;
        let busy: Vec<&str> = state.values().copied().filter(|&l| l != "idle").collect();
        if busy.is_empty() {
            let idle = state.values().any(|&l| l == "idle");
            *rows
                .get_mut(if idle { "idle" } else { "unattributed" })
                .expect("layer") += len;
        } else {
            let share = len / busy.len() as f64;
            for l in busy {
                *rows.entry(l).or_insert(0.0) += share;
            }
        }
    };
    for (t, th, layer) in edges {
        if t > t_prev {
            flush(&state, t_prev, t);
            t_prev = t;
        }
        match layer {
            Some(l) => {
                state.insert(th, l);
            }
            None => {
                state.remove(&th);
            }
        }
    }
    flush(&state, t_prev, to);
    rows
}

/// Time per recorded span, measured by recording `n` spans on a scratch
/// tracer: the tracing cost the traced run pays per span.
pub fn cost_per_span_ns(n: u32) -> f64 {
    let t = Tracer::new(true);
    let t0 = Instant::now();
    for _ in 0..n {
        let _g = t.span("calibrate", "unattributed");
    }
    t0.elapsed().as_nanos() as f64 / f64::from(n.max(1))
}

/// Spans as JSON lines, one span per line, each with its self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let self_ns = self_times(spans);
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"thread\":{},\"task\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
            s.id, s.parent, s.name, s.layer, s.thread, s.task, s.start_ns, s.end_ns, self_ns[&s.id]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, thread: u32, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name: layer,
            layer,
            thread,
            task: 0,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "unattributed", 1, 0, 100),
            span(2, 1, "wire", 1, 10, 30),
            span(3, 1, "engine_exec", 1, 40, 90),
            span(4, 3, "sql_plan", 1, 40, 50),
            // Overlapping children (other threads): union 60..80 once.
            span(5, 3, "wire", 2, 60, 75),
            span(6, 3, "wire", 3, 70, 80),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 20 - 50);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 50 - 10 - 20);
        assert_eq!(st[&4], 10);
        assert_eq!(st[&5], 15);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = vec![
            span(1, 0, "wire", 1, 10, 20),
            span(2, 1, "server", 2, 15, 40),
        ];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn single_thread_table_is_self_times_and_sums_to_wall() {
        let spans = vec![
            span(1, 0, "unattributed", 1, 0, 100),
            span(2, 1, "wire", 1, 10, 30),
            span(3, 1, "engine_exec", 1, 40, 90),
            span(4, 3, "sql_plan", 1, 40, 50),
        ];
        let rows = layer_table(&spans, 0, 100);
        assert_eq!(rows["wire"], 20.0);
        assert_eq!(rows["engine_exec"], 40.0);
        assert_eq!(rows["sql_plan"], 10.0);
        assert_eq!(rows["unattributed"], 30.0);
        assert_eq!(rows.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn overlapping_threads_share_the_wall() {
        // Thread 1 runs the window; threads 2 and 3 overlap on 20..60.
        let spans = vec![
            span(1, 0, "unattributed", 1, 0, 100),
            span(2, 1, "idle", 1, 10, 90),
            span(3, 0, "engine_exec", 2, 20, 60),
            span(4, 0, "wire", 3, 40, 80),
        ];
        let rows = layer_table(&spans, 0, 100);
        // 0..10 and 90..100: only the root → unattributed (20).
        // 10..20: thread 1 idle, nobody busy → idle (10).
        // 20..40: engine alone (20). 40..60: engine and wire share (10+10).
        // 60..80: wire alone (20). 80..90: idle (10).
        assert_eq!(rows["unattributed"], 20.0);
        assert_eq!(rows["idle"], 20.0);
        assert_eq!(rows["engine_exec"], 30.0);
        assert_eq!(rows["wire"], 30.0);
        assert!((rows.values().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        let t = Tracer::new(true);
        set_task(7);
        {
            let _a = t.span("outer", "driver");
            let _b = t.span("inner", "engine_exec");
        }
        set_task(0);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.task, 7);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        let off = Tracer::new(false);
        drop(off.span("x", "wire"));
        assert!(off.take().is_empty());
    }
}
