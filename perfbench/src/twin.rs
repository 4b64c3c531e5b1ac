//! In-process twins: replay a run's platform calls directly against a
//! [`SqalpelServer`] built the same way, with no wire in between. An
//! in-memory twin gives the server's own cost per operation; a durable
//! twin replaying the same calls gives, by difference, the cost of the
//! WAL appends.

use sqalpel_core::{ContributorKey, ProjectId, RunOutcome, SqalpelServer, TaskId};
use std::time::Instant;

/// One platform call of a run, by contributor-key index.
#[derive(Clone)]
pub enum Op {
    /// Claim a task; the claim's ordinal among all `Claim`s is what a
    /// later report refers to.
    Claim {
        key: usize,
        dbms: &'static str,
        host: &'static str,
        nonce: Option<u64>,
    },
    Report {
        key: usize,
        claim: usize,
        outcome: RunOutcome,
    },
    /// Report every listed claim in one batch with the same outcome.
    Batch {
        key: usize,
        claims: Vec<usize>,
        outcome: RunOutcome,
    },
    QueueSummary,
    ResultsForKey {
        project: ProjectId,
        key: usize,
    },
}

pub const KINDS: [&str; 5] = [
    "request_task",
    "report_result",
    "report_batch_per_record",
    "queue_summary",
    "results_for_key",
];

/// Summed nanoseconds and call counts per [`KINDS`] entry (the batch
/// entry counts records, not calls), and the WAL records the replay
/// appended.
#[derive(Default, Clone, Debug)]
pub struct TwinTimes {
    pub ns: [u64; 5],
    pub n: [u64; 5],
    pub wal_records: u64,
}

impl TwinTimes {
    pub fn mean_us(&self, kind: usize) -> f64 {
        self.ns[kind] as f64 / 1e3 / self.n[kind].max(1) as f64
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn add(&mut self, other: &TwinTimes) {
        for k in 0..KINDS.len() {
            self.ns[k] += other.ns[k];
            self.n[k] += other.n[k];
        }
        self.wal_records += other.wal_records;
    }
}

/// Replay `ops` in order, timing each call.
pub fn replay(server: &SqalpelServer, keys: &[ContributorKey], ops: &[Op]) -> TwinTimes {
    let wal_before = server.metrics().counter("wal.records");
    let mut claims: Vec<Option<TaskId>> = Vec::new();
    let mut out = TwinTimes::default();
    let mut timed = |kind: usize, records: u64, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        out.ns[kind] += t0.elapsed().as_nanos() as u64;
        out.n[kind] += records;
    };
    for op in ops {
        match op {
            Op::Claim {
                key,
                dbms,
                host,
                nonce,
            } => {
                let mut got = None;
                timed(0, 1, &mut || {
                    got = server
                        .request_task_claimed(&keys[*key], dbms, host, *nonce)
                        .ok()
                        .flatten()
                        .map(|t| t.id);
                });
                claims.push(got);
            }
            Op::Report {
                key,
                claim,
                outcome,
            } => {
                if let Some(Some(task)) = claims.get(*claim) {
                    let (task, mut outcome) = (*task, Some(outcome.clone()));
                    timed(1, 1, &mut || {
                        let o = outcome.take().expect("reported once");
                        let _ = server.report_result(&keys[*key], task, o);
                    });
                }
            }
            Op::Batch {
                key,
                claims: held,
                outcome,
            } => {
                let reports: Vec<(TaskId, RunOutcome)> = held
                    .iter()
                    .filter_map(|c| claims.get(*c).copied().flatten())
                    .map(|t| (t, outcome.clone()))
                    .collect();
                if !reports.is_empty() {
                    let n = reports.len() as u64;
                    timed(2, n, &mut || {
                        let _ = server.report_batch(&keys[*key], &reports);
                    });
                }
            }
            Op::QueueSummary => timed(3, 1, &mut || {
                std::hint::black_box(server.queue_summary());
            }),
            Op::ResultsForKey { project, key } => timed(4, 1, &mut || {
                let _ = std::hint::black_box(server.results_for_key(*project, &keys[*key]));
            }),
        }
    }
    out.wal_records = server.metrics().counter("wal.records") - wal_before;
    out
}
