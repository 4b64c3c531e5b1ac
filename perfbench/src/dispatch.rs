//! `dispatch`: platform-bound traffic from an open-loop generator.
//!
//! A durable server (a snapshot every 10k records, as `repro serve
//! --state-dir` takes them) holds ~2k contributor keys across 8 project
//! shards; a zero-spin `MockConnector` stands in for the engine, so the
//! wire, the shard locks and the WAL do all the work. Two paced sender
//! threads, one v2 connection each, offer fixed rates: light and heavy
//! windows, and a ladder of rates. Each op is one wire request, dealt
//! from the seed: claim+report pairs, bulk rounds (32 claims under
//! nonces, then one `ReportBatch`), and reads (`queue_summary`,
//! `results_for_key`). Each op is timed from when it was due. The run
//! ends with a crash: the server is dropped without a final snapshot and
//! the state directory reopened.

use crate::common::{self, ms, Cfg, Durable, Rng};
use crate::report::{self, Report};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::twin::{self, Op};
use sqalpel_core::{
    AdmissionConfig, ContributorKey, DriverConfig, ExperimentDriver, MockConnector, ProjectId,
    RunOutcome, SqalpelServer, TaskId, UserId, Visibility, WireClient,
};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const PROJECTS: usize = 8;
const USERS: usize = 250;
const KEYS_PER_USER: usize = 8;
const POOL_PER_PROJECT: usize = 800;
/// Results of the read-only reference project.
const REFERENCE_RESULTS: usize = 100;
const SENDERS: usize = 2;
const BULK: usize = 32;
const RECOVERIES: usize = 5;
const SETUPS: usize = 3;
const DBMS: [&str; 3] = ["rowstore-2.0", "rowstore-1.4", "colstore-5.1"];
const HOSTS: [&str; 2] = ["bench-server", "raspberry-pi"];
/// Latency limit of the rate ladder.
const LIMIT_MS: f64 = 5.0;
/// The percentile the ladder holds to the limit. On a 2-vCPU virtual
/// machine the 99th percentile sits at 5-8 ms at every rate from 500/s
/// up (host wake-up latency of idle virtual CPUs), so a p99 limit would
/// read the host, not the server; the 90th stays under a millisecond
/// until the server saturates.
const LADDER_PERCENTILE: f64 = 90.0;

/// Offered rates, ops per second over both senders. At the light rate
/// each connection sends a request every 2.7 ms, far longer than a v2
/// shard spins (50 yielding sweeps) before it sleeps 200 µs at a time
/// (`SPIN_SWEEPS`, `IDLE_SLEEP` in the core crate's `wire/server.rs`), so
/// every light request arrives at a sleeping shard: the regime in which
/// the poll sleep shows in latency. Within that regime the rate is a
/// choice: a light window of 1000 ops then lasts 1.3 s, and nine fit a
/// run. The heavy rate is what the task supply and the
/// snapshot stalls (~0.8 s each at this state size) leave room for; the
/// ladder's capacity (~15k ops/s, where two serial connections saturate)
/// is far above it.
const LIGHT_RATE: f64 = 750.0;
const HEAVY_RATE: f64 = 2000.0;
const LADDER: [f64; 7] = [1000.0, 3000.0, 6000.0, 8000.0, 10000.0, 12000.0, 16000.0];
/// Ops per ladder rung and per light or heavy window: the fewest with
/// ten samples beyond the 99th percentile.
const WINDOW_OPS: usize = 1000;
/// Passes over the ladder; each rung reads the median of its passes, so
/// a snapshot stall or a burst of host noise in two passes moves nothing.
const LADDER_PASSES: usize = 5;
/// Light windows: one before each ladder pass, the rest after the last.
const LIGHT_WINDOWS: usize = 9;
/// Heavy windows: one after each light window, and more if the run has
/// room.
const MIN_HEAVY_WINDOWS: usize = 10;
/// The windows each light and heavy figure reads: the snapshot-free ones
/// in which the host stole the least CPU. A run with fewer snapshot-free
/// light or heavy windows fails; a run's ~5 automatic snapshots fell in
/// ladder rungs and one or two heavy windows, never in a light window,
/// on every seed tried.
const QUIET_WINDOWS: usize = 5;

/// Transaction mix, per deck of 1000. Neither the paper nor the
/// platform fixes the shares, so they are this benchmark's choice:
/// claim+report pairs carry most of the traffic, as in `repro scale` (the
/// platform's load harness, claim+report only) and the default `repro
/// contribute`; bulk rounds take the 32 claims of `repro contribute
/// --bulk` and bring about a third of the results (480 of 1385 per deck),
/// so the group-commit path carries real load; the reads are 80 of the
/// deck's 2385 ops (3%), enough to put reads beside the writes on the
/// shards without making it a read workload. Each sender deals
/// transactions from a deck the seed shuffles, so the mix is exact over
/// every 1000 transactions and only its order depends on the seed. Each
/// op of a transaction takes its own schedule slot.
const MIX: [(Txn, u64); 4] = [
    (Txn::PerReport, 905),
    (Txn::Bulk, 15),
    (Txn::QueueSummary, 40),
    (Txn::ResultsForKey, 40),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Txn {
    PerReport,
    Bulk,
    QueueSummary,
    ResultsForKey,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Claim,
    Report,
    Batch,
    Read,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Claim => "wire.claim",
            Kind::Report => "wire.report",
            Kind::Batch => "wire.batch",
            Kind::Read => "wire.read",
        }
    }
}

struct Rig {
    /// The durable server and one v2 connection per sender.
    platform: Durable,
    admin: UserId,
    projects: Vec<ProjectId>,
    keys: Vec<ContributorKey>,
}

/// Users, keys, projects and queued work, identical for a given seed on
/// every server it is applied to (the run's server and its twins).
fn populate(server: &SqalpelServer, seed: u64) -> (UserId, Vec<ProjectId>, Vec<ContributorKey>) {
    let admin = server
        .register_user("dispatch-owner", "owner@dispatch.bench")
        .expect("owner");
    let users: Vec<UserId> = (0..USERS)
        .map(|u| {
            server
                .register_user(&format!("c{u}"), &format!("c{u}@dispatch.bench"))
                .expect("user")
        })
        .collect();
    // Key k belongs to user k % USERS, so sender k % 2 only ever holds
    // claims of its own users.
    let keys: Vec<ContributorKey> = (0..USERS * KEYS_PER_USER)
        .map(|k| server.issue_key(users[k % USERS]).expect("key"))
        .collect();
    let mut rng = Rng::new(seed ^ 0x0d15_a7c4);
    let reference = reference_project(server, admin, &users, rng.next_u64());
    let mut projects: Vec<ProjectId> = (0..PROJECTS)
        .map(|p| {
            let project = server
                .create_project(
                    admin,
                    &format!("dispatch-{p}"),
                    "platform load",
                    Visibility::Public,
                )
                .expect("project");
            server
                .set_targets(
                    project,
                    admin,
                    DBMS.map(String::from).to_vec(),
                    HOSTS.map(String::from).to_vec(),
                )
                .expect("targets");
            for &u in &users {
                server.invite(project, admin, u).expect("invite");
            }
            let exp = server
                .add_experiment(
                    project,
                    admin,
                    "q3",
                    sqalpel_sql::tpch::Q3,
                    None,
                    10_000,
                    10_000,
                )
                .expect("experiment");
            server
                .seed_pool(project, exp, admin, POOL_PER_PROJECT, rng.next_u64())
                .expect("seed");
            server
                .enqueue_experiment(project, exp, admin)
                .expect("enqueue");
            project
        })
        .collect();
    projects.push(reference);
    (admin, projects, keys)
}

/// The project `results_for_key` reads: its results are reported during
/// set-up and nothing writes to it afterwards, so a read costs the same
/// at the end of the run as at the start (a read of one of the growing
/// projects returns thousands of records by then).
fn reference_project(
    server: &SqalpelServer,
    admin: UserId,
    users: &[UserId],
    seed: u64,
) -> ProjectId {
    let project = server
        .create_project(
            admin,
            "dispatch-reference",
            "read target",
            Visibility::Public,
        )
        .expect("project");
    server
        .set_targets(project, admin, vec![DBMS[0].into()], vec![HOSTS[0].into()])
        .expect("targets");
    for &u in users {
        server.invite(project, admin, u).expect("invite");
    }
    let exp = server
        .add_experiment(
            project,
            admin,
            "q3",
            sqalpel_sql::tpch::Q3,
            None,
            10_000,
            10_000,
        )
        .expect("experiment");
    server
        .seed_pool(project, exp, admin, REFERENCE_RESULTS, seed)
        .expect("seed");
    server
        .enqueue_experiment(project, exp, admin)
        .expect("enqueue");
    let key = server.issue_key(admin).expect("owner key");
    let outcome = mock_driver().run("select 1");
    while let Some(task) = server.request_task(&key, DBMS[0], HOSTS[0]).expect("claim") {
        server
            .report_result(&key, task.id, outcome.clone())
            .expect("report");
    }
    project
}

fn mock_driver() -> ExperimentDriver<MockConnector> {
    ExperimentDriver::new(
        MockConnector {
            label: "mock-0".into(),
            fail_pattern: None,
            spin: 0,
            rows: 1,
        },
        DriverConfig::parse("dbms = rowstore-2.0\nhost = bench-server\nrepetitions = 1")
            .expect("driver config"),
    )
}

fn setup(cfg: &Cfg, i: usize) -> Rig {
    let (platform, (admin, projects, keys)) = Durable::start(
        cfg.work.join(format!("dispatch-state-{i}")),
        SENDERS,
        |server| {
            let made = populate(server, cfg.seed);
            server.snapshot_now().expect("set-up snapshot");
            made
        },
    );
    Rig {
        platform,
        admin,
        projects,
        keys,
    }
}

/// One executed op.
#[derive(Clone, Copy)]
struct Done {
    kind: Kind,
    /// Nanoseconds since the phase started.
    due: u64,
    start: u64,
    end: u64,
    ok: bool,
    /// How late the generator started the op although the connection
    /// was free (sleep overshoot, a starved sender) — lateness that is
    /// the load generator's, not the server's.
    gen_late: u64,
}

impl Done {
    /// Latency from when the op was due; a failed op misses any limit.
    fn latency_ms(&self, phase_ms: f64) -> f64 {
        if self.ok {
            (self.end - self.due) as f64 / 1e6
        } else {
            phase_ms.max(LIMIT_MS * 10.0)
        }
    }
}

/// A sender's state that persists across phases: its generator, its
/// keys, and its outstanding transaction.
struct Sender {
    rng: Rng,
    deck: Vec<Txn>,
    keys: Vec<usize>,
    nonce: u64,
    /// Ops still to issue for the current transaction.
    pending: Vec<Step>,
    /// Claims held by the current bulk round.
    held: Vec<TaskId>,
    held_ordinals: Vec<usize>,
    last_claim: Option<(TaskId, usize)>,
    key: usize,
    /// The sender's op log for the twins: (start ns since run epoch, op).
    log: Vec<(u64, Op)>,
    claims_made: usize,
    /// Claims answered with an empty queue.
    dry_claims: usize,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    Claim {
        nonce: Option<u64>,
        dbms: usize,
        host: usize,
    },
    Report,
    Batch,
    QueueSummary,
    ResultsForKey,
}

fn deck(rng: &mut Rng) -> Vec<Txn> {
    let mut d: Vec<Txn> = MIX
        .iter()
        .flat_map(|&(t, n)| std::iter::repeat_n(t, n as usize))
        .collect();
    rng.shuffle(&mut d);
    d
}

impl Sender {
    /// Sender `t` of a run on `seed`: its own generator and the keys of
    /// its own users.
    fn new(seed: u64, t: usize, n_keys: usize) -> Sender {
        Sender {
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(t as u64)),
            deck: Vec::new(),
            keys: (0..n_keys).filter(|k| (k % USERS) % SENDERS == t).collect(),
            nonce: 0,
            pending: Vec::new(),
            held: Vec::new(),
            held_ordinals: Vec::new(),
            last_claim: None,
            key: 0,
            log: Vec::new(),
            claims_made: 0,
            dry_claims: 0,
        }
    }

    fn next_step(&mut self) -> Step {
        if self.pending.is_empty() {
            self.key = self.keys[self.rng.below(self.keys.len() as u64) as usize];
            let dbms = self.rng.below(DBMS.len() as u64) as usize;
            let host = self.rng.below(HOSTS.len() as u64) as usize;
            if self.deck.is_empty() {
                self.deck = deck(&mut self.rng);
            }
            self.pending = match self.deck.pop().expect("a dealt transaction") {
                Txn::PerReport => vec![
                    Step::Report,
                    Step::Claim {
                        nonce: None,
                        dbms,
                        host,
                    },
                ],
                Txn::Bulk => {
                    let mut v = vec![Step::Batch];
                    for _ in 0..BULK {
                        self.nonce += 1;
                        v.push(Step::Claim {
                            nonce: Some(self.nonce),
                            dbms,
                            host,
                        });
                    }
                    v
                }
                Txn::QueueSummary => vec![Step::QueueSummary],
                Txn::ResultsForKey => vec![Step::ResultsForKey],
            };
        }
        self.pending.pop().expect("a step")
    }
}

struct Ctx<'a> {
    client: &'a WireClient,
    keys: &'a [ContributorKey],
    projects: &'a [ProjectId],
    driver: &'a ExperimentDriver<MockConnector>,
    tracer: &'a Tracer,
    epoch: Instant,
}

/// Issue one step; returns its kind and whether it succeeded.
fn issue(s: &mut Sender, step: Step, cx: &Ctx) -> (Kind, bool) {
    let key = &cx.keys[s.key];
    let at = cx.epoch.elapsed().as_nanos() as u64;
    match step {
        Step::Claim { nonce, dbms, host } => {
            let _sp = cx.tracer.span(Kind::Claim.span(), "wire");
            let r = match nonce {
                Some(n) => cx.client.claim_task(key, DBMS[dbms], HOSTS[host], n),
                None => cx.client.request_task(key, DBMS[dbms], HOSTS[host]),
            };
            s.log.push((
                at,
                Op::Claim {
                    key: s.key,
                    dbms: DBMS[dbms],
                    host: HOSTS[host],
                    nonce,
                },
            ));
            let ordinal = s.claims_made;
            s.claims_made += 1;
            match r {
                Ok(Some(t)) => {
                    if nonce.is_some() {
                        s.held.push(t.id);
                        s.held_ordinals.push(ordinal);
                    } else {
                        s.last_claim = Some((t.id, ordinal));
                    }
                    (Kind::Claim, true)
                }
                // An empty queue answers correctly; the supply is sized
                // so that it does not happen.
                Ok(None) => {
                    s.dry_claims += 1;
                    (Kind::Claim, true)
                }
                Err(_) => (Kind::Claim, false),
            }
        }
        Step::Report => {
            let Some((task, ordinal)) = s.last_claim.take() else {
                return (Kind::Report, true);
            };
            let _sp = cx.tracer.span(Kind::Report.span(), "wire");
            let outcome = cx.driver.run("select 1");
            let r = cx.client.report_result(key, task, &outcome);
            s.log.push((
                at,
                Op::Report {
                    key: s.key,
                    claim: ordinal,
                    outcome,
                },
            ));
            (Kind::Report, r.is_ok())
        }
        Step::Batch => {
            let held = std::mem::take(&mut s.held);
            let ordinals = std::mem::take(&mut s.held_ordinals);
            if held.is_empty() {
                return (Kind::Batch, true);
            }
            let _sp = cx.tracer.span(Kind::Batch.span(), "wire");
            let outcome = cx.driver.run("select 1");
            let reports: Vec<(TaskId, RunOutcome)> =
                held.iter().map(|&t| (t, outcome.clone())).collect();
            let r = cx.client.report_batch(key, &reports);
            s.log.push((
                at,
                Op::Batch {
                    key: s.key,
                    claims: ordinals,
                    outcome,
                },
            ));
            (
                Kind::Batch,
                r.as_ref().is_ok_and(|i| i.len() == reports.len()),
            )
        }
        Step::QueueSummary => {
            let _sp = cx.tracer.span(Kind::Read.span(), "wire");
            s.log.push((at, Op::QueueSummary));
            (Kind::Read, cx.client.queue_summary().is_ok())
        }
        Step::ResultsForKey => {
            let _sp = cx.tracer.span(Kind::Read.span(), "wire");
            let project = cx.projects[PROJECTS];
            s.log.push((
                at,
                Op::ResultsForKey {
                    project,
                    key: s.key,
                },
            ));
            (Kind::Read, cx.client.results_for_key(project, key).is_ok())
        }
    }
}

/// Offer `rate` ops/s (this sender's share) for `secs` seconds, sender
/// `idx` of [`SENDERS`] offset by half an interval.
fn pace(s: &mut Sender, cx: &Ctx, idx: usize, rate: f64, secs: f64) -> Vec<Done> {
    let interval = SENDERS as f64 / rate * 1e9;
    let n = (secs * rate / SENDERS as f64).round() as usize;
    let start = Instant::now();
    let offset = interval * idx as f64 / SENDERS as f64;
    let mut out = Vec::with_capacity(n);
    let mut free_at = 0u64;
    for i in 0..n {
        let due = (offset + interval * i as f64) as u64;
        let now = start.elapsed().as_nanos() as u64;
        if now < due {
            let _sp = cx.tracer.span("loadgen.pace", "idle");
            // Yield until the op is due rather than sleep: waking a halted
            // virtual CPU from a sleep can take milliseconds, which would
            // read as the generator's lateness and the server's latency.
            while (start.elapsed().as_nanos() as u64) < due {
                std::thread::yield_now();
            }
        }
        let t_start = start.elapsed().as_nanos() as u64;
        let step = s.next_step();
        let (kind, ok) = issue(s, step, cx);
        let end = start.elapsed().as_nanos() as u64;
        out.push(Done {
            kind,
            due,
            start: t_start,
            end,
            ok,
            gen_late: t_start.saturating_sub(due.max(free_at)),
        });
        free_at = end;
    }
    out
}

/// One sender's view of one phase.
struct PhaseRun {
    done: Vec<Done>,
    wall: f64,
    /// Automatic snapshots the server took during the phase.
    snapshots: u64,
    /// Share of the machine's CPU ticks stolen by the host.
    steal: f64,
}

/// One sender's run: its phases, then its own CPU nanoseconds.
type SenderRun = (Vec<PhaseRun>, u64);

struct Phase {
    name: String,
    rate: f64,
    secs: f64,
    done: Vec<Done>,
    wall: f64,
    /// Automatic snapshots the server took during the phase.
    snapshots: u64,
    /// Share of the machine's CPU ticks the host stole during the phase.
    steal: f64,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        let phase_ms = self.secs * 1e3;
        stats::sorted(self.done.iter().map(|d| d.latency_ms(phase_ms)).collect())
    }

    fn gen_late_p99_ms(&self) -> f64 {
        stats::percentile(
            &stats::sorted(self.done.iter().map(|d| d.gen_late as f64 / 1e6).collect()),
            99.0,
        )
    }

    fn ladder_tail(&self) -> f64 {
        stats::percentile(&self.latencies(), LADDER_PERCENTILE)
    }

    /// Median latency of the last tenth of the ops: above the limit, the
    /// backlog grew during the phase.
    fn backlog_ms(&self) -> f64 {
        let mut ops: Vec<&Done> = self.done.iter().collect();
        ops.sort_by_key(|d| d.due);
        let last = &ops[ops.len() * 9 / 10..];
        stats::median(
            &last
                .iter()
                .map(|d| d.latency_ms(self.secs * 1e3))
                .collect::<Vec<_>>(),
        )
    }

    /// The generator kept its schedule: its own lateness stayed well
    /// under the limit, so the phase reads the server, not the sender.
    fn valid(&self) -> bool {
        self.gen_late_p99_ms() <= LIMIT_MS / 2.0
    }

    fn achieved_rate(&self) -> f64 {
        self.done.len() as f64 / self.wall.max(1e-9)
    }
}

/// The windows a light or heavy figure reads: of those in which the
/// server took no snapshot — a stall of most of a second whose length
/// follows the host's disk, read by `snapshot.stall_ms` and
/// `snapshot.ms` instead — the [`QUIET_WINDOWS`] in which the host stole
/// the least CPU. On a shared virtual machine, steal lifts a window's p99
/// from ~1.5 ms to 5-15 ms; it is time the hypervisor gave to someone
/// else, so nothing this process does (burning more CPU included) moves
/// a window out of the selection.
fn quiet<'a>(windows: &[&'a Phase]) -> Vec<&'a Phase> {
    let mut free: Vec<&Phase> = windows
        .iter()
        .copied()
        .filter(|w| w.snapshots == 0)
        .collect();
    free.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    free.truncate(QUIET_WINDOWS);
    free
}

/// The median over `windows` of each window's own `p`th percentile.
fn median_percentile(windows: &[&Phase], p: f64) -> f64 {
    let per_window: Vec<f64> = windows
        .iter()
        .map(|w| stats::percentile(&w.latencies(), p))
        .collect();
    stats::median(&per_window)
}

/// One ladder rate over its passes; each figure is the median over the
/// passes whose generator kept its schedule.
struct Rung {
    rate: f64,
    /// The ladder percentile, [`LADDER_PERCENTILE`].
    tail: f64,
    backlog: f64,
    achieved: f64,
    valid: bool,
}

impl Rung {
    fn of(rate: f64, passes: &[&Phase]) -> Rung {
        let ok: Vec<&&Phase> = passes.iter().filter(|p| p.valid()).collect();
        let med =
            |f: &dyn Fn(&Phase) -> f64| stats::median(&ok.iter().map(|p| f(p)).collect::<Vec<_>>());
        Rung {
            rate,
            tail: med(&|p| p.ladder_tail()),
            backlog: med(&|p| p.backlog_ms()),
            achieved: med(&|p| p.achieved_rate()),
            valid: ok.len() * 2 > passes.len(),
        }
    }

    /// Meets the limit without a growing backlog.
    fn passes(&self) -> bool {
        self.tail <= LIMIT_MS && self.backlog <= LIMIT_MS
    }
}

/// The highest rate that meets the limit: the achieved rate of the
/// highest valid rung that passes, moved towards the next valid rung
/// above it by where, on a log scale, the tail latency crosses the limit
/// between the two. With no passing rung, the lowest valid rung's rate
/// scaled down by how far its tail overshot.
fn max_rate_met(rungs: &[Rung]) -> f64 {
    let valid: Vec<&Rung> = rungs.iter().filter(|r| r.valid).collect();
    let tail = |r: &Rung| r.tail.max(1e-6);
    let Some(k) = valid.iter().rposition(|r| r.passes()) else {
        return valid
            .first()
            .map_or(0.0, |r| r.achieved * (LIMIT_MS / tail(r)).min(1.0));
    };
    let lo = valid[k];
    match valid.get(k + 1) {
        Some(hi) if tail(hi) > tail(lo) => {
            let f = (LIMIT_MS.ln() - tail(lo).ln()) / (tail(hi).ln() - tail(lo).ln());
            lo.achieved + (hi.achieved - lo.achieved) * f.clamp(0.0, 1.0)
        }
        _ => lo.achieved,
    }
}

pub fn run(cfg: &Cfg, tracer: Arc<Tracer>, rep: &mut Report) {
    let (rig, setup_s) =
        common::repeat_setup(SETUPS, |i| setup(cfg, i), |rig| rig.platform.teardown());
    let server = &rig.platform.server;
    rep.set("setup_s", setup_s);
    // Write back what the set-ups left dirty, so the writeback does not
    // land in the light phase.
    report::sync_disks();
    let driver = mock_driver();

    // Phases: the ladder's passes, each after a light and a heavy
    // window, then the remaining light windows, each followed by a heavy
    // window, and any further heavy windows the run has room for. The
    // light and heavy windows are spread over the run so that a stretch
    // of host steal leaves some of them quiet. Set-up ends with a
    // snapshot; the automatic ones (every 10k records, about one per
    // 9000-op pass) drift through the passes and fall mostly in ladder
    // rungs, which the rung medians read past, and otherwise in light or
    // heavy windows, which the light and heavy figures skip.
    let w = cfg.seconds;
    let window =
        |kind: &str, k: usize, rate: f64| (format!("{kind} #{k}"), rate, WINDOW_OPS as f64 / rate);
    let ladder_secs: f64 = LADDER.iter().map(|r| WINDOW_OPS as f64 / r).sum();
    let light_secs = WINDOW_OPS as f64 / LIGHT_RATE;
    let heavy_secs = WINDOW_OPS as f64 / HEAVY_RATE;
    let fill =
        (w - LADDER_PASSES as f64 * ladder_secs - LIGHT_WINDOWS as f64 * light_secs) / heavy_secs;
    let heavy_windows = (fill.round().max(0.0) as usize).max(MIN_HEAVY_WINDOWS);
    let mut plan: Vec<(String, f64, f64)> = Vec::new();
    let heavy = |k: usize| window("heavy", k, HEAVY_RATE);
    for pass in 1..=LADDER_PASSES {
        plan.push(window("light", pass, LIGHT_RATE));
        plan.push(heavy(pass));
        for r in LADDER {
            plan.push((format!("rung {r:.0}/s #{pass}"), r, WINDOW_OPS as f64 / r));
        }
    }
    for k in LADDER_PASSES + 1..=LIGHT_WINDOWS {
        plan.push(window("light", k, LIGHT_RATE));
        plan.push(heavy(k));
    }
    for k in LIGHT_WINDOWS + 1..=heavy_windows {
        plan.push(heavy(k));
    }

    let mut senders: Vec<Sender> = (0..SENDERS)
        .map(|t| Sender::new(cfg.seed, t, rig.keys.len()))
        .collect();

    let snap0 = server.metrics().snapshot();
    let sent0: u64 = rig
        .platform
        .clients
        .iter()
        .map(WireClient::requests_sent)
        .sum();
    let cpu0 = report::process_cpu_ns();
    let epoch = Instant::now();
    let win_from = tracer.now_ns();
    let t_load = Instant::now();
    let mut phases: Vec<Phase> = Vec::new();
    let sender_cpu_ns: u64;
    {
        let _root = tracer.span("dispatch.window", "unattributed");
        let _wait = tracer.span("harness.wait", "idle");
        let barrier = Barrier::new(SENDERS);
        let results: Vec<SenderRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = senders
                .iter_mut()
                .enumerate()
                .map(|(t, s)| {
                    let (plan, barrier, rig, driver, tracer) =
                        (&plan, &barrier, &rig, &driver, &*tracer);
                    scope.spawn(move || {
                        let _root = tracer.span("sender", "unattributed");
                        let cpu0 = report::thread_cpu_ns();
                        let cx = Ctx {
                            client: &rig.platform.clients[t],
                            keys: &rig.keys,
                            projects: &rig.projects,
                            driver,
                            tracer,
                            epoch,
                        };
                        let phases: Vec<_> = plan
                            .iter()
                            .map(|(_, rate, secs)| {
                                {
                                    let _sp = tracer.span("loadgen.barrier", "idle");
                                    barrier.wait();
                                }
                                let snaps = || server.metrics().counter("wal.snapshots");
                                let (t0, s0) = (Instant::now(), snaps());
                                let (st0, all0) = report::host_ticks();
                                let done = pace(s, &cx, t, *rate, *secs);
                                let (st1, all1) = report::host_ticks();
                                PhaseRun {
                                    done,
                                    wall: t0.elapsed().as_secs_f64(),
                                    snapshots: snaps() - s0,
                                    steal: (st1 - st0) as f64 / (all1 - all0).max(1) as f64,
                                }
                            })
                            .collect();
                        (phases, report::thread_cpu_ns() - cpu0)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sender"))
                .collect()
        });
        sender_cpu_ns = results.iter().map(|(_, cpu)| cpu).sum();
        for (i, (name, rate, secs)) in plan.iter().enumerate() {
            let mut done = Vec::new();
            let (mut wall, mut snapshots, mut steal) = (0.0f64, 0u64, 0.0f64);
            for (r, _) in &results {
                done.extend_from_slice(&r[i].done);
                wall = wall.max(r[i].wall);
                snapshots = snapshots.max(r[i].snapshots);
                steal = steal.max(r[i].steal);
            }
            phases.push(Phase {
                name: name.clone(),
                rate: *rate,
                secs: *secs,
                done,
                wall,
                snapshots,
                steal,
            });
        }
    }
    let load_wall = t_load.elapsed().as_secs_f64();
    let win_to = tracer.now_ns();
    let cpu_ns = report::process_cpu_ns() - cpu0;
    let snap1 = server.metrics().snapshot();
    let sent1: u64 = rig
        .platform
        .clients
        .iter()
        .map(WireClient::requests_sent)
        .sum();
    let dry: usize = senders.iter().map(|s| s.dry_claims).sum();
    rep.check(
        format!("dispatch: the task supply never ran dry ({dry} empty claims)"),
        dry == 0,
    );

    // --------------------------------------------------- end to end
    let all: Vec<&Done> = phases.iter().flat_map(|p| &p.done).collect();
    let ops = all.len() as u64;
    let failed = all.iter().filter(|d| !d.ok).count() as u64;
    rep.attempted = ops;
    rep.failed = failed;
    let named = |prefix: &str| -> Vec<&Phase> {
        phases
            .iter()
            .filter(|p| p.name.starts_with(prefix))
            .collect()
    };
    let (light, heavy) = (named("light"), named("heavy"));
    let ladder: Vec<&Phase> = phases
        .iter()
        .filter(|p| p.name.starts_with("rung"))
        .collect();
    let free = |ws: &[&Phase]| ws.iter().filter(|w| w.snapshots == 0).count();
    let (light_free, heavy_free) = (free(&light), free(&heavy));
    rep.prov("light_windows_free", light_free.to_string());
    rep.prov("heavy_windows_free", heavy_free.to_string());
    rep.check(
        format!(
            "dispatch: at least {QUIET_WINDOWS} light and heavy windows without a snapshot ({light_free} of {}, {heavy_free} of {})",
            light.len(),
            heavy.len()
        ),
        light_free >= QUIET_WINDOWS && heavy_free >= QUIET_WINDOWS,
    );
    let (light_q, heavy_q) = (quiet(&light), quiet(&heavy));
    let steals = |ws: &[&Phase]| {
        let v: Vec<String> = ws.iter().map(|w| report::json_num(w.steal)).collect();
        format!("[{}]", v.join(","))
    };
    rep.prov("light_windows_steal", steals(&light_q));
    rep.prov("heavy_windows_steal", steals(&heavy_q));
    rep.set("latency_p50_ms", median_percentile(&light_q, 50.0));
    rep.set("latency_p90_ms", median_percentile(&light_q, 90.0));
    rep.set("latency_p99_ms", median_percentile(&light_q, 99.0));
    rep.set("loaded_p99_ms", median_percentile(&heavy_q, 99.0));
    // The snapshot stalls: the median p99 of the phases with a snapshot.
    let stalls: Vec<f64> = phases
        .iter()
        .filter(|p| p.snapshots > 0)
        .map(|p| stats::percentile(&p.latencies(), 99.0))
        .collect();
    rep.set("snapshot.stall_ms", stats::median(&stalls));
    let mut late: Vec<f64> = Vec::new();
    for p in &phases {
        let lat = p.latencies();
        late.push(p.gen_late_p99_ms());
        rep.note(format!(
            "dispatch {:<14} offered {:>6.0}/s achieved {:>8.1}/s  n={:<6} p50 {:>7.3} ms  p99 {:>8.3} ms  backlog {:>8.3} ms  generator late p99 {:>6.3} ms  snapshots {}  host steal {:>5.2}%{}",
            p.name,
            p.rate,
            p.achieved_rate(),
            p.done.len(),
            stats::percentile(&lat, 50.0),
            stats::percentile(&lat, 99.0),
            p.backlog_ms(),
            p.gen_late_p99_ms(),
            p.snapshots,
            100.0 * p.steal,
            if p.valid() { "" } else { " [INVALID: generator fell behind]" },
        ));
    }
    let rungs: Vec<Rung> = LADDER
        .iter()
        .map(|&r| {
            Rung::of(
                r,
                &ladder
                    .iter()
                    .copied()
                    .filter(|p| p.rate == r)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    for r in &rungs {
        rep.note(format!(
            "dispatch ladder {:>6.0}/s: median over passes p{LADDER_PERCENTILE:.0} {:>8.3} ms, backlog {:>7.3} ms, achieved {:>8.1}/s: {}",
            r.rate,
            r.tail,
            r.backlog,
            r.achieved,
            match (r.valid, r.passes()) {
                (false, _) => "invalid (generator fell behind)",
                (true, true) => "meets the limit",
                (true, false) => "misses the limit",
            }
        ));
    }
    rep.set("max_rate_per_s", max_rate_met(&rungs));
    let invalid: Vec<String> = phases
        .iter()
        .filter(|p| !p.valid())
        .map(|p| report::json_str(&p.name))
        .collect();
    rep.prov("invalid_phases", format!("[{}]", invalid.join(",")));
    let late_p99 = late.iter().copied().fold(0.0, f64::max);
    rep.prov("loadgen_late_p99_ms", report::json_num(late_p99));
    rep.set("loadgen.late_p99_ms", late_p99);
    let results_acked = common::counter_delta(&snap0, &snap1, "server.report_result.accepted")
        + common::counter_delta(&snap0, &snap1, "server.report_batch.accepted");
    rep.note(format!(
        "dispatch: {ops} ops in {load_wall:.2}s, {results_acked} results acked, {failed} failed"
    ));
    rep.set("measured_tasks_per_s", results_acked as f64 / load_wall);
    rep.set("queries_per_s", ops as f64 / load_wall);
    rep.set("ok_share", (ops - failed) as f64 / ops.max(1) as f64);

    let idle_share = common::idle_cpu_share();

    // ----------------------------------------------- crash and reopen
    let summary = format!("{:?}", server.queue_summary());
    let exports: Vec<String> = rig
        .projects
        .iter()
        .map(|&p| server.export_csv(p, rig.admin).expect("export"))
        .collect();
    let state_bytes = report::dir_bytes(&rig.platform.dir);
    let (admin, projects) = (rig.admin, &rig.projects);
    let reopened = rig.platform.crash_and_reopen(RECOVERIES, |server, s| {
        format!("{s:?}") == summary
            && projects
                .iter()
                .zip(&exports)
                .all(|(&p, e)| server.export_csv(p, admin).as_ref() == Ok(e))
    });
    rep.check(
        "dispatch: export_csv and queue_summary after the crash-reopen are byte-identical",
        reopened.same,
    );
    let recovery_s = reopened.times.report(rep, "dispatch");
    let replayed = reopened.replayed;
    rep.set("peak_rss_mb", report::peak_rss_mb());
    rep.set(
        "state_bytes_per_result",
        state_bytes as f64 / results_acked.max(1) as f64,
    );
    rep.set(
        "recovery.records_per_s",
        replayed as f64 / recovery_s.max(1e-9),
    );

    if !tracer.on() {
        return;
    }
    // ------------------------------------------------------ per layer
    let spans = tracer.take();
    let mean_rtt = |k: Kind| {
        let v: Vec<f64> = all
            .iter()
            .filter(|d| d.kind == k && d.ok)
            .map(|d| (d.end - d.start) as f64 / 1e6)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let hist = |names: &[&str]| {
        names.iter().fold((0u64, 0u64), |(c, s), n| {
            let (c1, s1) = common::hist_delta(&snap0, &snap1, &format!("wire.latency.V2 {n}"));
            (c + c1, s + s1)
        })
    };
    let mut handler_ns = 0u64;
    for (kind, label, names) in [
        (Kind::Claim, "claim", &["request_task"][..]),
        (Kind::Report, "report", &["report_result"][..]),
        (Kind::Batch, "batch", &["report_batch"][..]),
        (
            Kind::Read,
            "read",
            &["queue_summary", "results_for_key"][..],
        ),
    ] {
        let (c, s) = hist(names);
        if c == 0 {
            continue;
        }
        let rtt = mean_rtt(kind);
        handler_ns += s;
        rep.set(&format!("wire.rtt_ms.{label}"), rtt);
        rep.set(
            &format!("wire.transport_ms.{label}"),
            rtt - s as f64 / 1e6 / c as f64,
        );
    }
    rep.set(
        "wire.requests_per_task",
        (sent1 - sent0) as f64 / results_acked.max(1) as f64,
    );
    // The senders pace by yielding, so their own CPU time is not the
    // platform's: count the rest of the process (server shards, WAL).
    rep.set(
        "wire.cpu_us_per_op",
        cpu_ns.saturating_sub(sender_cpu_ns) as f64 / 1e3 / ops.max(1) as f64,
    );
    rep.set("wire.idle_cpu_share", idle_share);
    rep.set(
        "queue.empty_polls",
        common::counter_delta(&snap0, &snap1, "queue.empty_polls") as f64,
    );
    rep.set(
        "admission.throttled",
        common::counter_delta(&snap0, &snap1, "admission.throttled") as f64,
    );
    let d_records = common::counter_delta(&snap0, &snap1, "wal.records");
    rep.set(
        "wal.bytes_per_record",
        common::counter_delta(&snap0, &snap1, "wal.bytes") as f64 / d_records.max(1) as f64,
    );
    rep.set(
        "wal.records_per_result",
        d_records as f64 / results_acked.max(1) as f64,
    );
    rep.set(
        "wal.snapshots",
        common::counter_delta(&snap0, &snap1, "wal.snapshots") as f64,
    );

    // Twins: the same calls in the order they started, in process.
    let mut log: Vec<(u64, usize, Op)> = Vec::new();
    for (t, s) in senders.iter_mut().enumerate() {
        log.extend(
            std::mem::take(&mut s.log)
                .into_iter()
                .map(|(at, op)| (at, t, op)),
        );
    }
    log.sort_by_key(|(at, t, _)| (*at, *t));
    // Claim ordinals were per sender; renumber them globally.
    let mut ordinal_map: Vec<Vec<usize>> = vec![Vec::new(); SENDERS];
    let mut next = 0;
    for (_, t, op) in &log {
        if matches!(op, Op::Claim { .. }) {
            ordinal_map[*t].push(next);
            next += 1;
        }
    }
    let ops_log: Vec<Op> = log
        .into_iter()
        .map(|(_, t, op)| match op {
            Op::Report {
                key,
                claim,
                outcome,
            } => Op::Report {
                key,
                claim: ordinal_map[t][claim],
                outcome,
            },
            Op::Batch {
                key,
                claims,
                outcome,
            } => Op::Batch {
                key,
                claims: claims.iter().map(|&c| ordinal_map[t][c]).collect(),
                outcome,
            },
            other => other,
        })
        .collect();
    let twin_dir = cfg.work.join("dispatch-twin");
    let _ = std::fs::remove_dir_all(&twin_dir);
    std::fs::create_dir_all(&twin_dir).expect("twin dir");
    let mem_server = SqalpelServer::new();
    let (_, _, mem_keys) = populate(&mem_server, cfg.seed);
    let mem = twin::replay(&mem_server, &mem_keys, &ops_log);
    drop(mem_server);
    // No automatic snapshots on the twin: the replay times appends
    // alone, and one explicit snapshot is timed after it.
    let dur_server = SqalpelServer::open_with(&twin_dir, AdmissionConfig::default(), None)
        .expect("open twin dir");
    let (_, _, dur_keys) = populate(&dur_server, cfg.seed);
    let dur = twin::replay(&dur_server, &dur_keys, &ops_log);
    let t_snap = Instant::now();
    let _ = dur_server.snapshot_now();
    rep.set("snapshot.ms", ms(t_snap.elapsed()));
    drop(dur_server);
    let _ = std::fs::remove_dir_all(&twin_dir);
    for (k, kind) in twin::KINDS.iter().enumerate() {
        rep.set(&format!("server.op_us.{kind}"), mem.mean_us(k));
    }
    let wal_us = (dur.total_ns() as f64 - mem.total_ns() as f64).max(0.0)
        / 1e3
        / dur.wal_records.max(1) as f64;
    rep.set("wal.append_us", wal_us);
    let cost = trace::cost_per_span_ns(20_000);
    common::layer_report(
        rep,
        &spans,
        win_from,
        win_to,
        &[
            ("wire", "server", handler_ns as f64),
            ("server", "durability", wal_us * 1e3 * d_records as f64),
        ],
        cost,
        SENDERS as f64,
    );
    common::write_spans(cfg, "dispatch", &spans);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steps(seed: u64, t: usize) -> Vec<(usize, Step)> {
        let mut s = Sender::new(seed, t, USERS * KEYS_PER_USER);
        (0..3000)
            .map(|_| {
                let step = s.next_step();
                (s.key, step)
            })
            .collect()
    }

    #[test]
    fn the_mix_depends_only_on_the_seed() {
        assert_eq!(steps(7, 0), steps(7, 0));
        assert_ne!(steps(7, 0), steps(8, 0));
        assert_ne!(steps(7, 0), steps(7, 1));
        // Each sender only uses keys of its own users.
        assert!(steps(7, 1).iter().all(|(k, _)| (k % USERS) % SENDERS == 1));
    }

    #[test]
    fn a_deck_deals_the_exact_mix() {
        let d = deck(&mut Rng::new(3));
        for (t, n) in MIX {
            assert_eq!(d.iter().filter(|&&x| x == t).count() as u64, n);
        }
        assert_ne!(d, deck(&mut Rng::new(4)));
    }

    /// A window of 1000 ops of `ms` each; `stall` lifts 50 of them by
    /// 40 ms (a snapshot in the window), `late` marks the sender behind,
    /// and the host stole `steal` of the CPU.
    fn window(ms: u64, stall: bool, late: bool, steal: f64) -> Phase {
        let mut done: Vec<Done> = (0..1000u64)
            .map(|i| Done {
                kind: Kind::Read,
                due: i * 1000,
                start: i * 1000,
                end: i * 1000 + ms * 1_000_000,
                ok: true,
                gen_late: if late { 3_000_000 } else { 0 },
            })
            .collect();
        if stall {
            for d in &mut done[200..250] {
                d.end += 40_000_000;
            }
        }
        Phase {
            name: "light".into(),
            rate: 1000.0,
            secs: 1.0,
            done,
            wall: 1.0,
            snapshots: u64::from(stall),
            steal,
        }
    }

    #[test]
    fn quiet_windows_skip_snapshots_and_the_most_stolen() {
        let ws = [
            window(1, true, false, 0.0),
            window(1, false, false, 0.001),
            window(9, false, false, 0.2),
            window(2, false, true, 0.0),
            window(1, true, false, 0.0),
            window(1, false, false, 0.002),
            window(3, false, false, 0.003),
            window(1, false, false, 0.004),
        ];
        assert!(stats::percentile(&ws[0].latencies(), 99.0) > 40.0);
        assert!(!ws[3].valid());
        let all: Vec<&Phase> = ws.iter().collect();
        let q = quiet(&all);
        // The snapshot windows and the most stolen one are left out; the
        // late sender's window stays in.
        assert_eq!(q.len(), QUIET_WINDOWS);
        assert!(q.iter().all(|w| w.snapshots == 0 && w.steal < 0.1));
        assert!(q.iter().any(|w| !w.valid()));
        // Per-window p50s 1, 2, 1, 3, 1: their median.
        assert_eq!(median_percentile(&q, 50.0), 1.0);
        // With every window stalled none is left.
        let stalled = [window(1, true, false, 0.0), window(1, true, false, 0.0)];
        assert!(quiet(&stalled.iter().collect::<Vec<_>>()).is_empty());
    }
}
