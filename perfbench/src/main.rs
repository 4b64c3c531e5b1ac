//! The sqalpel platform benchmark.
//!
//! ```text
//! perfbench --workload hunt|dispatch|flight --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload for `S` seconds on inputs generated from `N`, checks
//! the platform's outputs, and prints as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics (from a run with
//! spans around every call into a layer) with `--trace 1`. A failed
//! output check exits 1. See `README.md` for the workloads and metrics.

mod common;
mod dispatch;
mod flight;
mod hunt;
mod report;
mod stats;
mod trace;
mod twin;

use common::Cfg;
use std::sync::Arc;

const USAGE: &str =
    "usage: perfbench --workload hunt|dispatch|flight --seed N --seconds S --trace 0|1";

/// Fix glibc's mmap threshold at its documented default (128 KiB), for
/// `dispatch` only. Left dynamic, glibc raises it each time a large block
/// is freed, so whether a snapshot's buffers are mapped (and returned
/// when freed) or carved from a thread's arena (and kept) depends on
/// which blocks other threads freed first; `dispatch`'s peak RSS then
/// fell on one of three levels ~27% apart. Fixed, every large buffer is
/// mapped and returned. The engine-bound workloads keep glibc's default:
/// there the fixed threshold turns the engines' large intermediates into
/// map/unmap pairs and cost `hunt` ~10% of its throughput.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: called before any other thread starts; mallopt only sets
    // an allocator parameter.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_mmap_threshold() {}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().map(String::as_str);
        let ok = match (flag.as_str(), value) {
            ("--workload", Some(w)) => {
                workload = Some(w.to_string());
                true
            }
            ("--seed", Some(v)) => v.parse().map(|v| seed = v).is_ok(),
            ("--seconds", Some(v)) => v.parse().map(|v: f64| seconds = v).is_ok() && seconds > 0.0,
            ("--trace", Some(v)) => match v {
                "0" | "1" => {
                    trace = v == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
    let Some(workload) = workload else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let work = std::path::PathBuf::from(".bench_work");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    if workload == "dispatch" {
        fix_mmap_threshold();
    }
    let cfg = Cfg {
        seed,
        seconds,
        trace,
        work,
    };
    let tracer = Arc::new(trace::Tracer::new(trace));
    let mut rep = report::Report::new(trace);
    let sf = match workload.as_str() {
        "hunt" => {
            hunt::run(&cfg, tracer, &mut rep);
            hunt::SF
        }
        "dispatch" => {
            dispatch::run(&cfg, tracer, &mut rep);
            0.0
        }
        "flight" => {
            flight::run(&cfg, tracer, &mut rep);
            flight::SF
        }
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    common::provenance(&mut rep, &workload, &cfg, sf);
    std::process::exit(rep.emit());
}
