//! `hunt`: the paper's own loop, end to end, over wire v2 against a
//! durable server.
//!
//! Each round converts two baselines (TPC-H Q1, the cross-engine study
//! of Figs. 2–4, and Q3, the walk of Fig. 7) into grammars, seeds and
//! morphs their pools, and enqueues every variant for `rowstore-2.0` and
//! `colstore-5.1`. Two contributor threads, one v2 connection each,
//! alternate between the two targets: claim, run the variant with the
//! experiment driver (3 repetitions, engines on one thread, the row
//! budget `repro contribute` uses), report. The round ends with the
//! analytics of the figures and a CSV export. Rounds repeat until the
//! window is spent; then the server is dropped without a snapshot and the
//! state directory is reopened.

use crate::common::{self, ms, Cfg, Durable, EngineTally, Rng, TracedConnector};
use crate::report::{self, Report};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::twin::{self, Op};
use sqalpel_core::analytics;
use sqalpel_core::{
    AdmissionConfig, ContributorKey, DriverConfig, ExperimentDriver, PlatformError, ProjectId,
    RunOutcome, SqalpelServer, UserId, Visibility, WireClient,
};
use sqalpel_engine::{ColStore, Database, Dbms, RowStore};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

pub const SF: f64 = 0.01;
const DATA_SEED: u64 = 42;
const REPETITIONS: usize = 3;
const N_RANDOM: usize = 8;
const MORPH_STEPS: usize = 8;
const TARGETS: [&str; 2] = ["rowstore-2.0", "colstore-5.1"];
const HOST: &str = "bench-server";
const BASELINES: [(&str, &str); 2] = [("Q1", sqalpel_sql::tpch::Q1), ("Q3", sqalpel_sql::tpch::Q3)];
const CONTRIBUTORS: usize = 2;
/// The set-up and the reopen are short (tens to hundreds of ms), so
/// each reads the median of several.
const SETUPS: usize = 5;
const RECOVERIES: usize = 31;
/// Wall seconds one catalog round takes on a 2-core host; the run does
/// `--seconds / ROUND_SECONDS` rounds, a fixed amount of work.
const ROUND_SECONDS: f64 = 4.0;

struct Rig {
    engines: [Arc<dyn Dbms>; 2],
    /// The durable server and one v2 connection per contributor.
    platform: Durable,
    admin: UserId,
    users: Vec<UserId>,
    keys: Vec<ContributorKey>,
}

/// The platform side of a set-up, shared with the twins: the owner and
/// the contributors with their keys.
fn populate(server: &SqalpelServer) -> (UserId, Vec<UserId>, Vec<ContributorKey>) {
    let admin = server
        .register_user("hunt-owner", "owner@hunt.bench")
        .expect("owner");
    let mut users = Vec::new();
    let mut keys = Vec::new();
    for c in 0..CONTRIBUTORS {
        let u = server
            .register_user(&format!("contributor-{c}"), &format!("c{c}@hunt.bench"))
            .expect("contributor");
        keys.push(server.issue_key(u).expect("key"));
        users.push(u);
    }
    (admin, users, keys)
}

fn setup(cfg: &Cfg, i: usize) -> Rig {
    let db = Arc::new(Database::tpch(SF, DATA_SEED));
    let budget = common::contributor_budget(SF);
    let engines: [Arc<dyn Dbms>; 2] = [
        Arc::new(
            RowStore::new(db.clone())
                .with_budget(budget)
                .with_threads(1),
        ),
        Arc::new(ColStore::new(db).with_budget(budget).with_threads(1)),
    ];
    let (platform, (admin, users, keys)) = Durable::start(
        cfg.work.join(format!("hunt-state-{i}")),
        CONTRIBUTORS,
        populate,
    );
    Rig {
        engines,
        platform,
        admin,
        users,
        keys,
    }
}

/// The (seed, morph) seeds of the two pools of catalog round `round`.
/// The pool content is a fixed catalog and the run's seed only orders
/// it (and the contributors' claims): a Q3 walk yields mostly bind
/// errors plus a few budget kills that each cost the row store ~0.6 s,
/// and Q1 variants range from 10 to 200 ms, so pools drawn per seed
/// spread the hunt's throughput by ~20% and its median latency by ~45%
/// across seeds — more than any bound a regression check could use.
fn round_seeds(round: usize) -> [(u64, u64); 2] {
    let mut rng = Rng::new(0x0f19_0007_u64.wrapping_add(round as u64));
    [
        (rng.next_u64(), rng.next_u64()),
        (rng.next_u64(), rng.next_u64()),
    ]
}

/// The catalog rounds a run of `n` rounds does, in the seed's order.
fn round_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed).shuffle(&mut order);
    order
}

/// Create a round's project and pools on `server`; returns the project,
/// its experiments and the tasks enqueued. Spans only when traced.
fn build_round(
    server: &SqalpelServer,
    admin: UserId,
    users: &[UserId],
    round: usize,
    seeds: [(u64, u64); 2],
    tracer: &Tracer,
) -> (ProjectId, Vec<sqalpel_core::ExperimentId>, usize) {
    let project = {
        let _s = tracer.span("server.project", "server");
        let p = server
            .create_project(
                admin,
                &format!("hunt-{round}"),
                "discriminative hunt",
                Visibility::Public,
            )
            .expect("project");
        server
            .set_targets(
                p,
                admin,
                TARGETS.map(String::from).to_vec(),
                vec![HOST.into()],
            )
            .expect("targets");
        for &u in users {
            server.invite(p, admin, u).expect("invite");
        }
        p
    };
    let mut exps = Vec::new();
    let mut tasks = 0;
    for ((name, sql), (s_seed, s_morph)) in BASELINES.iter().zip(seeds) {
        let grammar = {
            let _s = tracer.span("grammar.convert", "grammar_pool");
            sqalpel_grammar::convert_sql(sql).expect("baseline converts")
        };
        let exp = {
            let _s = tracer.span("server.add_experiment", "server");
            server
                .add_experiment(project, admin, name, sql, Some(grammar), 10_000, 10_000)
                .expect("experiment")
        };
        {
            let _s = tracer.span("pool.seed", "grammar_pool");
            server
                .seed_pool(project, exp, admin, N_RANDOM, s_seed)
                .expect("seed");
        }
        {
            let _s = tracer.span("pool.morph", "grammar_pool");
            server
                .morph_pool(project, exp, admin, None, MORPH_STEPS, s_morph)
                .expect("morph");
        }
        tasks += {
            let _s = tracer.span("server.enqueue", "server");
            server
                .enqueue_experiment(project, exp, admin)
                .expect("enqueue")
        };
        exps.push(exp);
    }
    (project, exps, tasks)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Measured,
    BindError,
    BudgetKill,
    OtherError,
}

fn classify(o: &RunOutcome) -> Class {
    match o.error.as_deref() {
        None => Class::Measured,
        Some(e) if e.contains("row budget") => Class::BudgetKill,
        Some(e)
            if e.contains("unknown column")
                || e.contains("unknown table")
                || e.contains("ambiguous column")
                || e.contains("parse error") =>
        {
            Class::BindError
        }
        Some(_) => Class::OtherError,
    }
}

struct Sample {
    task: u64,
    key: usize,
    target: usize,
    claimed_at: Instant,
    latency_ms: f64,
    run_ms: f64,
    timed_ms: f64,
    class: Class,
    outcome: RunOutcome,
}

#[derive(Default)]
struct Drain {
    samples: Vec<Sample>,
    /// Wire errors, throttles and unacknowledged reports.
    failures: u64,
    calls: u64,
}

fn contribute(
    c: usize,
    first: usize,
    client: &WireClient,
    key: &ContributorKey,
    drivers: &[ExperimentDriver<TracedConnector>; 2],
    tracer: &Tracer,
) -> Drain {
    let _root = tracer.span("contributor", "unattributed");
    let mut out = Drain::default();
    let mut empty = 0;
    let mut turn = first;
    while empty < TARGETS.len() {
        let t = turn % TARGETS.len();
        turn += 1;
        let claimed_at = Instant::now();
        out.calls += 1;
        let claim = {
            let _s = tracer.span("wire.claim", "wire");
            client.request_task(key, TARGETS[t], HOST)
        };
        let task = match claim {
            Ok(Some(task)) => task,
            Ok(None) => {
                empty += 1;
                continue;
            }
            Err(PlatformError::Throttled(_)) => {
                out.failures += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
                continue;
            }
            Err(e) => {
                eprintln!("hunt: claim failed: {e}");
                out.failures += 1;
                empty += 1;
                continue;
            }
        };
        empty = 0;
        trace::set_task(task.id.0);
        let t_run = Instant::now();
        let outcome = {
            let _s = tracer.span("driver.run", "driver");
            drivers[t].run(&task.sql)
        };
        let run_ms = ms(t_run.elapsed());
        out.calls += 1;
        let ack = {
            let _s = tracer.span("wire.report", "wire");
            client.report_result(key, task.id, &outcome)
        };
        trace::set_task(0);
        match ack {
            Ok(_) => out.samples.push(Sample {
                task: task.id.0,
                key: c,
                target: t,
                claimed_at,
                latency_ms: ms(claimed_at.elapsed()),
                run_ms,
                timed_ms: outcome.times_ms.iter().sum(),
                class: classify(&outcome),
                outcome,
            }),
            Err(e) => {
                eprintln!("hunt: report of task {} failed: {e}", task.id.0);
                out.failures += 1;
            }
        }
    }
    out
}

struct Round {
    seeds: [(u64, u64); 2],
    samples: Vec<Sample>,
}

pub fn run(cfg: &Cfg, tracer: Arc<Tracer>, rep: &mut Report) {
    let (rig, setup_s) =
        common::repeat_setup(SETUPS, |i| setup(cfg, i), |rig| rig.platform.teardown());
    let server = &rig.platform.server;
    rep.set("setup_s", setup_s);
    let tallies = [
        Arc::new(EngineTally::default()),
        Arc::new(EngineTally::default()),
    ];
    rep.prov("loadgen", report::json_str("closed loop: two contributors"));
    let drivers: Vec<[ExperimentDriver<TracedConnector>; 2]> = (0..CONTRIBUTORS)
        .map(|_| {
            [0, 1].map(|t| {
                ExperimentDriver::new(
                    TracedConnector::new(
                        rig.engines[t].clone(),
                        tracer.clone(),
                        tallies[t].clone(),
                    ),
                    DriverConfig::parse(&format!(
                        "dbms = {}\nhost = {HOST}\nrepetitions = {REPETITIONS}",
                        TARGETS[t]
                    ))
                    .expect("driver config"),
                )
            })
        })
        .collect();

    let snap0 = server.metrics().snapshot();
    let sent0: u64 = rig
        .platform
        .clients
        .iter()
        .map(WireClient::requests_sent)
        .sum();
    let win_from = tracer.now_ns();
    let root = tracer.span("hunt.window", "unattributed");
    let mut rounds: Vec<Round> = Vec::new();
    let (mut wall_s, mut expected_total, mut failures, mut calls) = (0.0, 0usize, 0u64, 0u64);
    let (mut analytics_ns, mut export_ns) = (0u64, 0u64);
    let mut last_project = None;
    let n_rounds = (cfg.seconds / ROUND_SECONDS).ceil().max(1.0) as usize;
    for (r, catalog) in round_order(cfg.seed, n_rounds).into_iter().enumerate() {
        let t_round = Instant::now();
        let seeds = round_seeds(catalog);
        let (project, exps, expected) =
            build_round(server, rig.admin, &rig.users, r, seeds, &tracer);
        let drains: Vec<Drain> = {
            let _wait = tracer.span("harness.wait", "idle");
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CONTRIBUTORS)
                    .map(|c| {
                        let (client, key, drivers, tracer) = (
                            &rig.platform.clients[c],
                            &rig.keys[c],
                            &drivers[c],
                            &*tracer,
                        );
                        let first = (c + cfg.seed as usize) % TARGETS.len();
                        scope.spawn(move || contribute(c, first, client, key, drivers, tracer))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("contributor"))
                    .collect()
            })
        };
        let t_an = Instant::now();
        {
            let _s = tracer.span("analytics", "analytics");
            let records = server.results_for(project, rig.admin).expect("results");
            for &exp in &exps {
                let recs: Vec<_> = records
                    .iter()
                    .filter(|r| r.experiment == exp.0)
                    .cloned()
                    .collect();
                let row = analytics::times_by_query(&recs, TARGETS[0]);
                let col = analytics::times_by_query(&recs, TARGETS[1]);
                std::hint::black_box(analytics::discriminative(&row, &col, 1.5));
                std::hint::black_box(analytics::speedup(&row, &col));
                server
                    .with_project_view(project, rig.admin, |p| {
                        let pool = &p.experiment(exp).expect("experiment").pool;
                        std::hint::black_box(analytics::history(pool, &recs).len())
                    })
                    .expect("history");
            }
        }
        analytics_ns += t_an.elapsed().as_nanos() as u64;
        let t_ex = Instant::now();
        let csv = {
            let _s = tracer.span("export_csv", "analytics");
            server.export_csv(project, rig.admin).expect("export")
        };
        export_ns += t_ex.elapsed().as_nanos() as u64;
        wall_s += t_round.elapsed().as_secs_f64();

        let mut samples: Vec<Sample> = Vec::new();
        for d in drains {
            failures += d.failures;
            calls += d.calls;
            samples.extend(d.samples);
        }
        samples.sort_by_key(|s| s.claimed_at);
        let acked: BTreeSet<u64> = samples.iter().map(|s| s.task).collect();
        rep.check(
            format!("hunt round {r}: {expected} tasks enqueued, each acked exactly once"),
            acked.len() == samples.len() && samples.len() == expected,
        );
        let csv_tasks: BTreeSet<u64> = csv
            .lines()
            .skip(1)
            .filter_map(|l| l.split(',').next().and_then(|t| t.parse().ok()))
            .collect();
        rep.check(
            format!("hunt round {r}: the CSV has one row per task"),
            common::csv_records(&csv) == expected && csv_tasks == acked,
        );
        expected_total += expected;
        last_project = Some(project);
        rounds.push(Round { seeds, samples });
    }
    drop(root);
    let win_to = tracer.now_ns();
    let snap1 = server.metrics().snapshot();
    let sent1: u64 = rig
        .platform
        .clients
        .iter()
        .map(WireClient::requests_sent)
        .sum();
    let summary = server.queue_summary();
    rep.check(
        "hunt: the queue is drained, no claim left open",
        summary.queued == 0 && summary.running == 0,
    );

    let all: Vec<&Sample> = rounds.iter().flat_map(|r| &r.samples).collect();
    let n = all.len();
    let count = |c: Class| all.iter().filter(|s| s.class == c).count();
    let measured = count(Class::Measured);
    let retries = (sent1 - sent0).saturating_sub(calls);
    let failed = failures + retries;
    rep.attempted = n as u64 + failed;
    rep.failed = failed;
    let lat = stats::sorted(all.iter().map(|s| s.latency_ms).collect());
    rep.note(format!(
        "hunt: {} rounds, {n} tasks ({measured} measured, {} bind errors, {} budget kills, {} other errors) in {wall_s:.2}s; latency samples {n} (p90 supported: {}, p99 supported: {})",
        rounds.len(),
        count(Class::BindError),
        count(Class::BudgetKill),
        count(Class::OtherError),
        stats::supports(n, 90.0),
        stats::supports(n, 99.0),
    ));
    let qps = n as f64 / wall_s.max(1e-9);
    rep.set("measured_tasks_per_s", measured as f64 / wall_s.max(1e-9));
    rep.set("queries_per_s", qps);
    rep.set("latency_p50_ms", stats::percentile(&lat, 50.0));
    rep.set("latency_p90_ms", stats::percentile(&lat, 90.0));
    rep.set("latency_p99_ms", stats::percentile(&lat, 99.0));
    // A closed loop has one load level, its own maximum: the loaded tail
    // is the tail, and the highest rate met is the rate completed.
    rep.set("loaded_p99_ms", stats::percentile(&lat, 99.0));
    rep.set("max_rate_per_s", qps);
    rep.set(
        "ok_share",
        (rep.attempted - failed) as f64 / rep.attempted.max(1) as f64,
    );

    // Idle poll cost: connections open, nothing sent.
    let idle_share = common::idle_cpu_share();

    // Crash: drop the server without a final snapshot, then reopen.
    let state_bytes = report::dir_bytes(&rig.platform.dir);
    let export_before = last_project.map(|p| (p, server.export_csv(p, rig.admin).expect("export")));
    let admin = rig.admin;
    let reopened = rig.platform.crash_and_reopen(RECOVERIES, |server, s| {
        *s == summary
            && export_before
                .as_ref()
                .is_none_or(|(p, e)| server.export_csv(*p, admin).as_ref() == Ok(e))
    });
    rep.check(
        "hunt: the reopened state dir serves the same queue and CSV",
        reopened.same,
    );
    let recovery_s = reopened.times.report(rep, "hunt");
    let replayed = reopened.replayed;
    rep.set("peak_rss_mb", report::peak_rss_mb());
    rep.set(
        "state_bytes_per_result",
        state_bytes as f64 / n.max(1) as f64,
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
    let baselines = (rounds.len() * BASELINES.len()).max(1) as f64;
    let sum_ms = |name: &str| {
        let (mean, k) = common::span_mean_ms(&spans, name);
        mean * k as f64
    };
    rep.set(
        "grammar.convert_ms",
        common::span_mean_ms(&spans, "grammar.convert").0,
    );
    rep.set(
        "pool.walk_ms",
        (sum_ms("pool.seed") + sum_ms("pool.morph")) / baselines,
    );
    rep.set(
        "pool.variants",
        expected_total as f64 / TARGETS.len() as f64 / baselines,
    );
    let share = |k: usize| k as f64 / n.max(1) as f64;
    rep.set("pool.measured_share", share(measured));
    rep.set("pool.bind_error_share", share(count(Class::BindError)));
    rep.set("pool.budget_kill_share", share(count(Class::BudgetKill)));
    let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
    let plan_ns: u64 = tallies.iter().map(|t| load(&t.plan_ns)).sum();
    let plans: u64 = tallies.iter().map(|t| load(&t.plans)).sum();
    rep.set("engine.plan_ms", plan_ns as f64 / 1e6 / plans.max(1) as f64);
    for (t, name) in [
        (0, "engine.rowstore.exec_ms"),
        (1, "engine.colstore.exec_ms"),
    ] {
        let ms_each =
            load(&tallies[t].exec_ns) as f64 / 1e6 / load(&tallies[t].execs).max(1) as f64;
        rep.set(name, ms_each);
    }
    let mut ops = tallies[0].ops.lock().expect("op tally lock").clone();
    ops.merge(&tallies[1].ops.lock().expect("op tally lock"));
    for kind in ["scan", "filter", "join", "select"] {
        rep.set(&format!("engine.op.{kind}.self_ms"), ops.mean_ms(kind));
    }
    rep.set("scan.chunk_skip_ratio", ops.skip_ratio());
    let run_ms: f64 = all.iter().map(|s| s.run_ms).sum();
    let timed_ms: f64 = all.iter().map(|s| s.timed_ms).sum();
    rep.set("driver.run_ms", run_ms / n.max(1) as f64);
    rep.set("driver.untimed_share", 1.0 - timed_ms / run_ms.max(1e-9));
    let rtt_claim = common::span_mean_ms(&spans, "wire.claim").0;
    let rtt_report = common::span_mean_ms(&spans, "wire.report").0;
    rep.set("wire.rtt_ms.claim", rtt_claim);
    rep.set("wire.rtt_ms.report", rtt_report);
    let (c_claim, ns_claim) = common::hist_delta(&snap0, &snap1, "wire.latency.V2 request_task");
    let (c_rep, ns_rep) = common::hist_delta(&snap0, &snap1, "wire.latency.V2 report_result");
    rep.set(
        "wire.transport_ms.claim",
        rtt_claim - ns_claim as f64 / 1e6 / c_claim.max(1) as f64,
    );
    rep.set(
        "wire.transport_ms.report",
        rtt_report - ns_rep as f64 / 1e6 / c_rep.max(1) as f64,
    );
    rep.set(
        "wire.requests_per_task",
        (sent1 - sent0) as f64 / n.max(1) as f64,
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
    rep.set("wal.records_per_result", d_records as f64 / n.max(1) as f64);
    rep.set(
        "wal.snapshots",
        common::counter_delta(&snap0, &snap1, "wal.snapshots") as f64,
    );
    rep.set(
        "analytics.ms",
        analytics_ns as f64 / 1e6 / rounds.len().max(1) as f64,
    );
    rep.set(
        "export_csv_ms",
        export_ns as f64 / 1e6 / rounds.len().max(1) as f64,
    );

    // Twins: replay every round's claims and reports in-process, in
    // memory and durable, for the server's own cost and the WAL's.
    let (mem, dur, snapshot_ms) = twins(cfg, &rounds);
    rep.set("server.op_us.request_task", mem.mean_us(0));
    rep.set("server.op_us.report_result", mem.mean_us(1));
    let wal_us = (dur.total_ns() as f64 - mem.total_ns() as f64).max(0.0)
        / 1e3
        / dur.wal_records.max(1) as f64;
    rep.set("wal.append_us", wal_us);
    rep.set("snapshot.ms", snapshot_ms);

    // Layer table: server-side handler time moves out of the client's
    // wire spans into `server`, and the WAL's share of it into
    // `durability`.
    let handler_ns = (ns_claim + ns_rep) as f64;
    let wal_ns = wal_us * 1e3 * d_records as f64;
    let cost = trace::cost_per_span_ns(20_000);
    common::layer_report(
        rep,
        &spans,
        win_from,
        win_to,
        &[
            ("wire", "server", handler_ns),
            ("server", "durability", wal_ns),
        ],
        cost,
        CONTRIBUTORS as f64,
    );
    common::write_spans(cfg, "hunt", &spans);
}

/// Rebuild the run's rounds on an in-memory and a durable server and
/// replay each round's claims and reports in claim order. Returns both
/// timings and the durable twin's time for one explicit snapshot.
fn twins(cfg: &Cfg, rounds: &[Round]) -> (twin::TwinTimes, twin::TwinTimes, f64) {
    let off = Tracer::new(false);
    let dir = cfg.work.join("hunt-twin");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("twin dir");
    let mem = SqalpelServer::new();
    // No automatic snapshots on the twin: the replay times appends
    // alone, and one explicit snapshot is timed after it.
    let dur =
        SqalpelServer::open_with(&dir, AdmissionConfig::default(), None).expect("open twin dir");
    let mut times = [twin::TwinTimes::default(), twin::TwinTimes::default()];
    let handles: Vec<_> = [&mem, &dur].into_iter().map(|s| (s, populate(s))).collect();
    for (r, round) in rounds.iter().enumerate() {
        let ops: Vec<Op> = round
            .samples
            .iter()
            .enumerate()
            .flat_map(|(i, s)| {
                [
                    Op::Claim {
                        key: s.key,
                        dbms: TARGETS[s.target],
                        host: HOST,
                        nonce: None,
                    },
                    Op::Report {
                        key: s.key,
                        claim: i,
                        outcome: s.outcome.clone(),
                    },
                ]
            })
            .collect();
        for (i, (server, (admin, users, keys))) in handles.iter().enumerate() {
            build_round(server, *admin, users, r, round.seeds, &off);
            times[i].add(&twin::replay(server, keys, &ops));
        }
    }
    let t0 = Instant::now();
    let _ = dur.snapshot_now();
    let snapshot_ms = ms(t0.elapsed());
    drop(dur);
    let _ = std::fs::remove_dir_all(&dir);
    let [mem_t, dur_t] = times;
    (mem_t, dur_t, snapshot_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools(rounds: &[usize]) -> Vec<Vec<String>> {
        let server = SqalpelServer::new();
        let (admin, users, _) = populate(&server);
        let off = Tracer::new(false);
        rounds
            .iter()
            .enumerate()
            .flat_map(|(r, &catalog)| {
                let (p, exps, _) =
                    build_round(&server, admin, &users, r, round_seeds(catalog), &off);
                exps.into_iter()
                    .map(|e| {
                        server
                            .with_project_view(p, admin, |proj| {
                                let pool = &proj.experiment(e).expect("experiment").pool;
                                pool.entries().iter().map(|q| q.sql.clone()).collect()
                            })
                            .expect("view")
                    })
                    .collect::<Vec<Vec<String>>>()
            })
            .collect()
    }

    #[test]
    fn pools_depend_only_on_the_catalog_and_the_seed_orders_them() {
        // The same catalog rounds build the same pools.
        assert_eq!(pools(&[0, 1]), pools(&[0, 1]));
        assert_ne!(pools(&[0]), pools(&[1]));
        // A run covers every catalog round once, in the seed's order.
        let (a, b) = (round_order(5, 8), round_order(6, 8));
        assert_eq!(a, round_order(5, 8));
        assert_ne!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }
}
