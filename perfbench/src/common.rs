//! Pieces every workload shares: run configuration, a seeded generator,
//! the durable platform with its crash-reopen, the traced engine
//! connector, server-metric deltas, the layer table, and the set-up
//! repetition rule.

use crate::report::{self, Report};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use sqalpel_core::{
    AdmissionConfig, Connector, EngineConnector, ExecBackend, MetricsSnapshot, OperatorProfile,
    Proto, QueueSummary, SqalpelServer, V2Config, V2Server, WireClient,
};
use sqalpel_engine::Dbms;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout for state dirs and spans.
    pub work: PathBuf,
}

impl Cfg {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// SplitMix64: the benchmark's only source of randomness, so every input
/// is a function of `--seed`.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `setup` `times` times, keeping the last result; returns it with
/// the median set-up seconds (`setup_s`). Earlier set-ups are dropped
/// (and their `cleanup` run) before the next one starts.
pub fn repeat_setup<T>(
    times: usize,
    mut setup: impl FnMut(usize) -> T,
    mut cleanup: impl FnMut(T),
) -> (T, f64) {
    let mut took = Vec::new();
    let mut last = None;
    for i in 0..times.max(1) {
        if let Some(prev) = last.take() {
            cleanup(prev);
        }
        let t0 = Instant::now();
        let built = setup(i);
        took.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one set-up"), stats::median(&took))
}

// ------------------------------------------------------------ platform

/// Records between a durable server's automatic snapshots, as `repro
/// serve --state-dir` takes them.
pub const SNAPSHOT_EVERY: u64 = 10_000;

/// The row budget `repro contribute` applies at scale factor `sf`.
pub fn contributor_budget(sf: f64) -> u64 {
    ((sf * 100_000_000.0) as u64).max(2_000_000)
}

/// Open (or recover) the durable server whose state is in `dir`.
pub fn open_durable(dir: &Path) -> SqalpelServer {
    SqalpelServer::open_with(dir, AdmissionConfig::default(), Some(SNAPSHOT_EVERY))
        .unwrap_or_else(|e| panic!("open state dir {}: {e}", dir.display()))
}

/// Serve `server` over v2 on a loopback port.
pub fn start_v2(server: &Arc<SqalpelServer>, backend: Option<ExecBackend>) -> V2Server {
    V2Server::start(
        Arc::clone(server),
        backend,
        "127.0.0.1:0",
        V2Config::default(),
    )
    .expect("bind v2")
}

/// A v2 client of `v2`; it connects on its first request.
pub fn v2_client(v2: &V2Server) -> WireClient {
    WireClient::builder(v2.local_addr())
        .transport(Proto::V2Framed)
        .build()
}

/// Milliseconds a fixed CPU task (sorting 200k seeded integers) takes
/// now. On a shared virtual machine the host's speed shifts by up to
/// ~1.5× from one minute to the next (a busy sibling hyperthread, the
/// clock); a throughput over a whole run averages that out, but a
/// measurement of a second or less, such as a reopen, reads it whole.
pub fn calibration_ms() -> f64 {
    let t0 = Instant::now();
    let mut rng = Rng::new(7);
    let mut v: Vec<u64> = (0..200_000).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    std::hint::black_box(&v);
    ms(t0.elapsed())
}

/// The calibration task's time at the reference host speed, about what
/// it takes on an unloaded 2-vCPU host at 2.1 GHz.
pub const REFERENCE_CALIBRATION_MS: f64 = 5.0;

/// A durable server in a state directory of its own, served over v2,
/// with the load's connections: the platform side of `hunt` and
/// `dispatch`.
pub struct Durable {
    pub server: Arc<SqalpelServer>,
    pub v2: V2Server,
    pub dir: PathBuf,
    pub clients: Vec<WireClient>,
}

/// What [`Durable::crash_and_reopen`] saw.
pub struct Reopened {
    /// Each reopen, from opening the state dir to the first v2 reply.
    pub times: Recoveries,
    /// WAL records the last reopen replayed.
    pub replayed: u64,
    /// Every reopened server matched the state read before the crash.
    pub same: bool,
}

/// Recovery times, each measured just after a [`calibration_ms`].
#[derive(Default)]
pub struct Recoveries {
    secs: Vec<f64>,
    cals: Vec<f64>,
}

impl Recoveries {
    /// Calibrate, then time `f`.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cal = calibration_ms();
        let t0 = Instant::now();
        let out = f();
        self.secs.push(t0.elapsed().as_secs_f64());
        self.cals.push(cal);
        out
    }

    /// The median recovery at the reference host speed: each time
    /// scaled by the reference over its calibration, so a program change
    /// moves it one for one and the host's speed not at all.
    pub fn median_s(&self) -> f64 {
        let scaled: Vec<f64> = self
            .secs
            .iter()
            .zip(&self.cals)
            .map(|(&s, &c)| s * REFERENCE_CALIBRATION_MS / c.max(1e-3))
            .collect();
        stats::median(&scaled)
    }

    /// Record `recovery_s` ([`Recoveries::median_s`]) with the measured
    /// median and the calibration beside it; returns it.
    pub fn report(&self, rep: &mut Report, workload: &str) -> f64 {
        let recovery_s = self.median_s();
        let cal = stats::median(&self.cals);
        rep.set("recovery_s", recovery_s);
        rep.prov("calibration_ms", report::json_num(cal));
        rep.note(format!(
            "{workload}: {} recoveries, median {:.4} s as measured, {recovery_s:.4} s at the reference speed (calibration {cal:.2} ms, reference {REFERENCE_CALIBRATION_MS} ms)",
            self.secs.len(),
            stats::median(&self.secs),
        ));
        recovery_s
    }
}

impl Durable {
    /// Open a fresh state dir at `dir`, fill the server with `populate`,
    /// then serve it over v2 and open `clients` connections (each
    /// answered once, so the load starts on live connections).
    pub fn start<T>(
        dir: PathBuf,
        clients: usize,
        populate: impl FnOnce(&SqalpelServer) -> T,
    ) -> (Durable, T) {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("state dir");
        let server = Arc::new(open_durable(&dir));
        let made = populate(&server);
        let v2 = start_v2(&server, None);
        let clients = (0..clients)
            .map(|_| {
                let c = v2_client(&v2);
                c.queue_summary().expect("v2 connection");
                c
            })
            .collect();
        let platform = Durable {
            server,
            v2,
            dir,
            clients,
        };
        (platform, made)
    }

    /// Drop the server without a final snapshot, as a crash leaves its
    /// state dir; returns the dir.
    fn crash(mut self) -> PathBuf {
        self.v2.shutdown();
        drop(self.clients);
        drop(self.server);
        self.dir
    }

    /// Stop the server and remove its state dir.
    pub fn teardown(self) {
        let _ = std::fs::remove_dir_all(self.crash());
    }

    /// Crash the server, then reopen its state dir `reopens` times. Each
    /// reopen is timed from opening the dir to the first v2 reply (a
    /// `queue_summary`) after a calibration ([`Recoveries`]), and `same`
    /// compares the reopened server and that reply with the state read
    /// before the crash. The state dir is removed at the end.
    pub fn crash_and_reopen(
        self,
        reopens: usize,
        same: impl Fn(&SqalpelServer, &QueueSummary) -> bool,
    ) -> Reopened {
        let dir = self.crash();
        let mut times = Recoveries::default();
        let (mut replayed, mut all_same) = (0, true);
        for _ in 0..reopens.max(1) {
            let (server, mut v2, summary) = times.time(|| {
                let server = Arc::new(open_durable(&dir));
                let v2 = start_v2(&server, None);
                let summary = v2_client(&v2)
                    .queue_summary()
                    .expect("first reply after restart");
                (server, v2, summary)
            });
            replayed = server.metrics().counter("wal.replayed_records");
            all_same &= same(&server, &summary);
            v2.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
        Reopened {
            times,
            replayed,
            same: all_same,
        }
    }
}

// --------------------------------------------------------------- engines

/// Per-engine counters the traced connector accumulates.
#[derive(Default)]
pub struct EngineTally {
    pub exec_ns: AtomicU64,
    pub execs: AtomicU64,
    pub plan_ns: AtomicU64,
    pub plans: AtomicU64,
    /// Operator self times by kind (scan, filter, join, select), summed
    /// over every profiled execution, and the execution count.
    pub ops: Mutex<OpTally>,
}

#[derive(Default, Clone)]
pub struct OpTally {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub profiles: u64,
    pub chunks_scanned: u64,
    pub chunks_skipped: u64,
}

impl OpTally {
    pub fn absorb(&mut self, ops: &[(String, u64, u64, u64)]) {
        for (kind, ns) in op_self_times(ops) {
            *self.self_ns.entry(kind).or_insert(0) += ns;
        }
        for (_, _, scanned, skipped) in ops {
            self.chunks_scanned += scanned;
            self.chunks_skipped += skipped;
        }
        self.profiles += 1;
    }

    pub fn merge(&mut self, other: &OpTally) {
        for (k, v) in &other.self_ns {
            *self.self_ns.entry(k).or_insert(0) += v;
        }
        self.profiles += other.profiles;
        self.chunks_scanned += other.chunks_scanned;
        self.chunks_skipped += other.chunks_skipped;
    }

    pub fn mean_ms(&self, kind: &str) -> f64 {
        self.self_ns.get(kind).copied().unwrap_or(0) as f64 / 1e6 / self.profiles.max(1) as f64
    }

    pub fn skip_ratio(&self) -> f64 {
        let total = self.chunks_scanned + self.chunks_skipped;
        self.chunks_skipped as f64 / total.max(1) as f64
    }
}

/// Self time per operator kind of one profile. The profile lists
/// operators in EXPLAIN pre-order with inclusive nanoseconds; the tree is
/// rebuilt from each operator's arity (`join` 2, `filter` and `derived`
/// 1, scans 0, `select` its CTE bodies plus one plan). Aggregation,
/// sorting and projection run inside the `select` node; a CTE scan
/// counts as a scan and a derived table's wrapper as `select`.
pub fn op_self_times(ops: &[(String, u64, u64, u64)]) -> Vec<(&'static str, u64)> {
    fn kind(op: &str) -> &'static str {
        if op.starts_with("join") {
            "join"
        } else if op == "filter" {
            "filter"
        } else if op.starts_with("scan") || op.starts_with("cte scan") {
            "scan"
        } else {
            "select"
        }
    }
    // Returns the index after node `i`'s subtree; pushes its self time.
    fn walk(
        ops: &[(String, u64, u64, u64)],
        i: usize,
        out: &mut Vec<(&'static str, u64)>,
    ) -> usize {
        let Some((op, nanos, ..)) = ops.get(i) else {
            return i;
        };
        let mut next = i + 1;
        let mut children = 0u64;
        let mut child = |next: &mut usize| {
            if let Some((_, n, ..)) = ops.get(*next) {
                children += n;
            }
            *next = walk(ops, *next, out);
        };
        if op == "select" {
            while ops.get(next).is_some_and(|(o, ..)| o == "select") {
                child(&mut next);
            }
            child(&mut next);
        } else if op.starts_with("join") {
            child(&mut next);
            child(&mut next);
        } else if op == "filter" || op.starts_with("derived") {
            child(&mut next);
        }
        out.push((kind(op), nanos.saturating_sub(children)));
        next
    }
    let mut out = Vec::new();
    let mut i = 0;
    while i < ops.len() {
        let next = walk(ops, i, &mut out);
        if next == i {
            break;
        }
        i = next;
    }
    out
}

pub fn profile_rows(p: &[OperatorProfile]) -> Vec<(String, u64, u64, u64)> {
    p.iter()
        .map(|o| (o.op.clone(), o.nanos, o.chunks_scanned, o.chunks_skipped))
        .collect()
}

/// A pass-through [`Connector`] around [`EngineConnector`] that times
/// `execute`, `fingerprint` and `profile` as spans and tallies them.
/// With tracing off it only forwards.
pub struct TracedConnector {
    inner: EngineConnector,
    tracer: Arc<Tracer>,
    tally: Arc<EngineTally>,
    exec_span: &'static str,
}

impl TracedConnector {
    pub fn new(dbms: Arc<dyn Dbms>, tracer: Arc<Tracer>, tally: Arc<EngineTally>) -> Self {
        let exec_span = if dbms.name().starts_with("col") {
            "engine.exec.colstore"
        } else {
            "engine.exec.rowstore"
        };
        TracedConnector {
            inner: EngineConnector::new(dbms),
            tracer,
            tally,
            exec_span,
        }
    }
}

impl Connector for TracedConnector {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn execute(&self, sql: &str) -> Result<usize, String> {
        if !self.tracer.on() {
            return self.inner.execute(sql);
        }
        let t0 = Instant::now();
        let out = {
            let _s = self.tracer.span(self.exec_span, "engine_exec");
            self.inner.execute(sql)
        };
        self.tally
            .exec_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.tally.execs.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn fingerprint(&self, sql: &str) -> Option<u64> {
        if !self.tracer.on() {
            return self.inner.fingerprint(sql);
        }
        let t0 = Instant::now();
        let out = {
            let _s = self.tracer.span("engine.plan", "sql_plan");
            self.inner.fingerprint(sql)
        };
        self.tally
            .plan_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.tally.plans.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn profile(&self, sql: &str) -> Option<Vec<OperatorProfile>> {
        if !self.tracer.on() {
            return self.inner.profile(sql);
        }
        let out = {
            let _s = self.tracer.span("engine.profile", "engine_exec");
            self.inner.profile(sql)
        };
        if let Some(p) = &out {
            self.tally
                .ops
                .lock()
                .expect("op tally")
                .absorb(&profile_rows(p));
        }
        out
    }
}

// --------------------------------------------------------- server splits

/// Count and summed nanoseconds of one server histogram between two
/// snapshots.
pub fn hist_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> (u64, u64) {
    let get = |s: &MetricsSnapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
    let (c0, s0) = get(before);
    let (c1, s1) = get(after);
    (c1.saturating_sub(c0), s1.saturating_sub(s0))
}

pub fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0))
}

/// Mean milliseconds of the spans called `name` and their count.
pub fn span_mean_ms(spans: &[Span], name: &str) -> (f64, usize) {
    let durs: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect();
    let n = durs.len();
    (durs.iter().sum::<u64>() as f64 / 1e6 / n.max(1) as f64, n)
}

/// Print the layer table for `[from, to)` and record the per-layer
/// shares. `moves` re-attributes time the spans cannot see (server-side
/// handler time inside a client's wire span, WAL appends inside the
/// server's handler): each `(from_layer, to_layer, ns)` moves up to
/// `ns` of wall time between rows, scaled like the rows themselves.
pub fn layer_report(
    rep: &mut Report,
    spans: &[Span],
    from: u64,
    to: u64,
    moves: &[(&'static str, &'static str, f64)],
    span_cost_ns: f64,
    threads: f64,
) {
    let mut rows = trace::layer_table(spans, from, to);
    let wall = (to - from) as f64;
    // The table shares each instant between busy threads, so thread time
    // converts to table time at 1/threads.
    for &(src, dst, ns) in moves {
        let avail = rows.get(src).copied().unwrap_or(0.0);
        let moved = (ns / threads.max(1.0)).min(avail).max(0.0);
        *rows.entry(src).or_insert(0.0) -= moved;
        *rows.entry(dst).or_insert(0.0) += moved;
    }
    rep.note(format!(
        "layer table: {:.1} ms wall, {} spans (self time per layer; rows sum to the wall)",
        wall / 1e6,
        spans.len()
    ));
    let mut sum = 0.0;
    for layer in trace::LAYERS {
        let v = rows.get(layer).copied().unwrap_or(0.0);
        sum += v;
        rep.note(format!(
            "  {layer:<14} {:>12.1} ms {:>7.2}%",
            v / 1e6,
            100.0 * v / wall.max(1.0)
        ));
        rep.set(&format!("layer.{layer}.share"), v / wall.max(1.0));
    }
    rep.note(format!("  {:<14} {:>12.1} ms", "total", sum / 1e6));
    rep.set(
        "trace.unattributed_share",
        rows["unattributed"] / wall.max(1.0),
    );
    rep.set(
        "trace.overhead_share",
        spans.len() as f64 * span_cost_ns / (wall * threads.max(1.0)).max(1.0),
    );
}

/// Share of one core the process burns over 300 ms with its servers up
/// and connections open but no requests.
pub fn idle_cpu_share() -> f64 {
    let (c0, t0) = (report::process_cpu_ns(), Instant::now());
    std::thread::sleep(Duration::from_millis(300));
    (report::process_cpu_ns() - c0) as f64 / t0.elapsed().as_nanos() as f64
}

/// Write the spans as JSON lines into the work directory.
pub fn write_spans(cfg: &Cfg, workload: &str, spans: &[Span]) {
    let path = cfg
        .work
        .join(format!("spans-{workload}-{}.jsonl", cfg.seed));
    let _ = std::fs::write(path, trace::to_jsonl(spans));
}

/// Count CSV records (header excluded), honouring quoted fields.
pub fn csv_records(text: &str) -> usize {
    let (mut rows, mut quoted, mut any) = (0usize, false, false);
    for c in text.chars() {
        match c {
            '"' => quoted = !quoted,
            '\n' if !quoted => {
                rows += 1;
                any = false;
                continue;
            }
            _ => {}
        }
        any = true;
    }
    if any {
        rows += 1;
    }
    rows.saturating_sub(1)
}

/// Add the provenance block every output carries.
pub fn provenance(rep: &mut Report, workload: &str, cfg: &Cfg, sf: f64) {
    rep.prov("workload", report::json_str(workload));
    rep.prov("seed", cfg.seed.to_string());
    rep.prov("seconds", report::json_num(cfg.seconds));
    rep.prov("trace", cfg.trace.to_string());
    rep.prov("nproc", report::nproc().to_string());
    rep.prov("git_rev", report::json_str(&report::git_rev()));
    rep.prov(
        "source_digest",
        report::json_str(env!("PERFBENCH_SOURCE_DIGEST")),
    );
    rep.prov("rustc", report::json_str(env!("PERFBENCH_RUSTC")));
    rep.prov("sf", report::json_num(sf));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(name: &str, nanos: u64) -> (String, u64, u64, u64) {
        (name.to_string(), nanos, 0, 0)
    }

    #[test]
    fn operator_self_times_follow_the_preorder_tree() {
        // select(100) -> join(80) -> [filter(30) -> scan(20)], scan(40)
        let ops = vec![
            op("select", 100),
            op("join inner", 80),
            op("filter", 30),
            op("scan orders", 20),
            op("scan lineitem", 40),
        ];
        let st = op_self_times(&ops);
        let get = |k: &str| {
            st.iter()
                .filter(|(n, _)| *n == k)
                .map(|(_, v)| v)
                .sum::<u64>()
        };
        assert_eq!(get("select"), 20);
        assert_eq!(get("join"), 10);
        assert_eq!(get("filter"), 10);
        assert_eq!(get("scan"), 60);
        // Self times add up to the root's inclusive time.
        assert_eq!(st.iter().map(|(_, v)| v).sum::<u64>(), 100);
    }

    #[test]
    fn cte_bodies_are_children_of_the_select() {
        let ops = vec![
            op("select", 100),
            op("select", 30),
            op("scan lineitem", 25),
            op("join inner", 60),
            op("scan supplier", 10),
            op("cte scan revenue", 5),
        ];
        let st = op_self_times(&ops);
        assert_eq!(st.iter().map(|(_, v)| v).sum::<u64>(), 100);
        let scans: u64 = st
            .iter()
            .filter(|(k, _)| *k == "scan")
            .map(|(_, v)| v)
            .sum();
        assert_eq!(scans, 40);
    }

    #[test]
    fn recoveries_read_at_the_reference_speed() {
        // The same 0.1 s of work, measured on a host at the reference
        // speed, at half of it, and once slowed by something else.
        let r = Recoveries {
            secs: vec![0.1, 0.2, 0.3],
            cals: vec![5.0, 10.0, 5.0],
        };
        assert!((r.median_s() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn csv_record_count_ignores_quoted_newlines() {
        assert_eq!(csv_records("a,b\n1,2\n3,4\n"), 2);
        assert_eq!(csv_records("a,b\n1,\"x\ny\"\n"), 1);
        assert_eq!(csv_records("a,b\n"), 0);
        assert_eq!(csv_records("a,b\n1,2"), 1);
    }

    #[test]
    fn seeded_generator_is_deterministic() {
        let (mut a, mut b) = (Rng::new(5), Rng::new(5));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(9).shuffle(&mut v);
        let mut w: Vec<u32> = (0..50).collect();
        Rng::new(9).shuffle(&mut w);
        assert_eq!(v, w);
        assert_ne!(v, (0..50).collect::<Vec<u32>>());
    }
}
