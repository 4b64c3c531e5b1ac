//! The metric catalog, the host/provenance block, and the result line.
//!
//! Every run prints a provenance line, a human-readable metric listing
//! (and with tracing the layer table), the outcome of each output check,
//! and as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A failed check makes the process exit 1.

use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics (`--trace 0`): name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("measured_tasks_per_s", "1/s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("loaded_p99_ms", "ms"),
    ("max_rate_per_s", "ops/s"),
    ("recovery_s", "s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name, unit. A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("grammar.convert_ms", "ms"),
    ("pool.walk_ms", "ms"),
    ("pool.variants", "count"),
    ("pool.measured_share", "ratio"),
    ("pool.bind_error_share", "ratio"),
    ("pool.budget_kill_share", "ratio"),
    ("engine.plan_ms", "ms"),
    ("plan_cache.hit_ratio", "ratio"),
    ("plan_cache.cold_ms", "ms"),
    ("plan_cache.warm_ms", "ms"),
    ("engine.rowstore.exec_ms", "ms"),
    ("engine.colstore.exec_ms", "ms"),
    ("engine.op.scan.self_ms", "ms"),
    ("engine.op.filter.self_ms", "ms"),
    ("engine.op.join.self_ms", "ms"),
    ("engine.op.select.self_ms", "ms"),
    ("scan.chunk_skip_ratio", "ratio"),
    ("driver.run_ms", "ms"),
    ("driver.untimed_share", "ratio"),
    ("wire.rtt_ms.claim", "ms"),
    ("wire.rtt_ms.report", "ms"),
    ("wire.rtt_ms.batch", "ms"),
    ("wire.rtt_ms.read", "ms"),
    ("wire.rtt_ms.execute", "ms"),
    ("wire.transport_ms.claim", "ms"),
    ("wire.transport_ms.report", "ms"),
    ("wire.transport_ms.batch", "ms"),
    ("wire.transport_ms.read", "ms"),
    ("wire.transport_ms.execute", "ms"),
    ("wire.requests_per_task", "count"),
    ("wire.cpu_us_per_op", "us"),
    ("wire.idle_cpu_share", "ratio"),
    ("server.op_us.request_task", "us"),
    ("server.op_us.report_result", "us"),
    ("server.op_us.report_batch_per_record", "us"),
    ("server.op_us.queue_summary", "us"),
    ("server.op_us.results_for_key", "us"),
    ("queue.empty_polls", "count"),
    ("admission.throttled", "count"),
    ("wal.append_us", "us"),
    ("wal.bytes_per_record", "B"),
    ("wal.records_per_result", "count"),
    ("wal.snapshots", "count"),
    ("snapshot.ms", "ms"),
    ("snapshot.stall_ms", "ms"),
    ("recovery.records_per_s", "1/s"),
    ("state_bytes_per_result", "B"),
    ("analytics.ms", "ms"),
    ("export_csv_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("layer.grammar_pool.share", "ratio"),
    ("layer.sql_plan.share", "ratio"),
    ("layer.engine_exec.share", "ratio"),
    ("layer.driver.share", "ratio"),
    ("layer.wire.share", "ratio"),
    ("layer.server.share", "ratio"),
    ("layer.durability.share", "ratio"),
    ("layer.analytics.share", "ratio"),
    ("layer.idle.share", "ratio"),
    ("layer.unattributed.share", "ratio"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

pub struct Report {
    trace: bool,
    values: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool)>,
    notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// `key → JSON value` pairs of the provenance line.
    pub provenance: Vec<(String, String)>,
}

impl Report {
    pub fn new(trace: bool) -> Report {
        Report {
            trace,
            values: BTreeMap::new(),
            checks: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            provenance: Vec::new(),
        }
    }

    /// Record a metric. Names outside the catalog are a bug in the
    /// benchmark and panic.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.values.insert(key, value);
    }

    /// An output check; any failed check fails the run.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// A line of human-readable context printed with the metrics.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn prov(&mut self, key: &str, json_value: String) {
        self.provenance.push((key.to_string(), json_value));
    }

    /// Print everything and return the exit code.
    pub fn emit(&mut self) -> i32 {
        let catalog = if self.trace { PER_LAYER } else { END_TO_END };
        for (name, _) in catalog {
            if !self.values.contains_key(name) {
                if self.trace {
                    self.values.insert(name, 0.0);
                } else {
                    self.checks
                        .push((format!("metric {name} was measured"), false));
                }
            }
        }
        for (name, v) in &self.values {
            if !v.is_finite() {
                self.checks
                    .push((format!("metric {name} is finite (read {v})"), false));
            }
        }
        let prov: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        println!("{{\"provenance\":{{{}}}}}", prov.join(","));
        for n in &self.notes {
            println!("{n}");
        }
        for (name, unit) in catalog {
            println!("  {name:<40} {:>16.6} {unit}", self.values[name]);
        }
        let correct = self.checks.iter().all(|(_, ok)| *ok);
        for (what, ok) in &self.checks {
            println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
        }
        let metrics: Vec<String> = catalog
            .iter()
            .map(|(name, _)| {
                let v = self.values[name];
                let v = if v.is_finite() { v } else { -1.0 };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_num(v),
                    unit_of(name).expect("catalog unit")
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        if correct {
            0
        } else {
            1
        }
    }
}

/// A finite f64 as a JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ------------------------------------------------------------------ host

/// Processor count the benchmark sees.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, when the working directory is a git checkout
/// (read from `.git` directly; nothing above the directory is looked at).
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sync();
}

/// Flush every dirty page to disk (`sync(2)`).
pub fn sync_disks() {
    // SAFETY: sync takes no arguments and cannot fail.
    unsafe { sync() }
}

fn cpu_ns(clock: i32) -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// CPU time consumed by the whole process so far, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU time consumed by the calling thread so far, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(3) // CLOCK_THREAD_CPUTIME_ID
}

/// The machine's CPU ticks so far from `/proc/stat`: (stolen, all).
/// Steal is time the hypervisor gave the machine's virtual CPUs to
/// someone else while they had work — interference from outside that
/// nothing in this process can cause.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let listed = text.matches("\"name\":").count();
        assert_eq!(listed, 3 + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(2.0), "2.0");
        assert_eq!(json_num(0.123456789), "0.123456789");
        assert_eq!(json_num(1e-7), "0.0000001");
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
