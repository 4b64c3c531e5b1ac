//! `flight`: a fixed statement set — all 22 TPC-H and 8 SSB queries —
//! executed remotely over wire v2 `Execute` at SF 0.002.
//!
//! One `V2Server` per engine, each engine with a `PlanCache(256)` as in
//! `repro serve`, default threads and the contributor row budget. One
//! client thread holds one connection per server. The first, cold pass
//! (plan-cache misses) is part of set-up; the timed passes are warm hits,
//! each pass in an order drawn from the seed. Statements that exceed the
//! budget stay in and count as failures.

use crate::common::{self, ms, Cfg, OpTally, Rng};
use crate::report::{self, Report};
use crate::stats;
use crate::trace::{self, Tracer};
use sqalpel_core::{CacheStatus, ExecBackend, ExecOutcome, SqalpelServer, V2Server, WireClient};
use sqalpel_engine::{ColStore, Database, Dbms, PlanCache, ResultSet, RowStore};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

pub const SF: f64 = 0.002;
const DATA_SEED: u64 = 42;
const CACHE: usize = 256;
const RESTARTS: usize = 3;
const SETUPS: usize = 3;
const ENGINES: [&str; 2] = ["rowstore", "colstore"];
/// The (statement, engine) pairs whose execution exceeds the row budget
/// on this data (SF 0.002, data seed 42). They fail on every pass and
/// count as failures; any other failure, or one of these answering,
/// fails the run.
const BUDGET_KILLS: [(&str, usize); 5] =
    [("Q4", 1), ("Q19", 0), ("Q19", 1), ("Q21", 0), ("Q21", 1)];

fn statements() -> Vec<(&'static str, &'static str)> {
    let mut v = sqalpel_sql::tpch::all_queries();
    v.extend(sqalpel_sql::ssb::all_queries());
    v
}

/// An engine as the flight's servers and references configure it.
fn engine(db: &Arc<Database>, e: usize, cache: Option<Arc<PlanCache>>) -> Arc<dyn Dbms> {
    let budget = common::contributor_budget(SF);
    match (e, cache) {
        (0, Some(c)) => Arc::new(
            RowStore::new(db.clone())
                .with_budget(budget)
                .with_plan_cache(c),
        ),
        (0, None) => Arc::new(RowStore::new(db.clone()).with_budget(budget)),
        (_, Some(c)) => Arc::new(
            ColStore::new(db.clone())
                .with_budget(budget)
                .with_plan_cache(c),
        ),
        (_, None) => Arc::new(ColStore::new(db.clone()).with_budget(budget)),
    }
}

struct Servers {
    platform: Arc<SqalpelServer>,
    v2: Vec<V2Server>,
    clients: Vec<WireClient>,
    caches: Vec<Arc<PlanCache>>,
}

fn start(db: &Arc<Database>) -> Servers {
    let platform = Arc::new(SqalpelServer::new());
    let caches: Vec<Arc<PlanCache>> = (0..ENGINES.len())
        .map(|_| Arc::new(PlanCache::new(CACHE)))
        .collect();
    let v2: Vec<V2Server> = caches
        .iter()
        .enumerate()
        .map(|(e, c)| {
            let backend = ExecBackend::new(engine(db, e, Some(c.clone())));
            common::start_v2(&platform, Some(backend))
        })
        .collect();
    let clients = v2.iter().map(common::v2_client).collect();
    Servers {
        platform,
        v2,
        clients,
        caches,
    }
}

fn stop(mut s: Servers) {
    for v in &mut s.v2 {
        v.shutdown();
    }
}

/// One Execute of statement `i` on engine `e`.
struct Exec {
    stmt: usize,
    engine: usize,
    ms: f64,
    outcome: Result<ExecOutcome, String>,
}

/// One timed pass: its Executes (a range of the run's), its wall
/// seconds, and the share of the machine's CPU the host stole meanwhile.
struct Pass {
    execs: std::ops::Range<usize>,
    wall: f64,
    steal: f64,
}

/// The half of the passes (rounded up) in which the host stole the least
/// CPU. Steal is time the hypervisor gave the virtual CPUs to someone
/// else; a single client waiting on each reply reads it in every
/// Execute, and nothing the program does moves a pass in or out.
fn quiet_passes(passes: &[Pass]) -> Vec<&Pass> {
    let mut q: Vec<&Pass> = passes.iter().collect();
    q.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    q.truncate(passes.len().div_ceil(2));
    q
}

/// A full pass over every statement on both engines, in `order`.
fn pass(
    s: &Servers,
    stmts: &[(&str, &str)],
    order: &[usize],
    fps: &[[Option<u64>; 2]],
    tracer: &Tracer,
) -> Vec<Exec> {
    let mut out = Vec::with_capacity(order.len() * ENGINES.len());
    for &i in order {
        for (e, client) in s.clients.iter().enumerate() {
            let t0 = Instant::now();
            let r = {
                let _s = tracer.span("wire.execute", "wire");
                client.execute(stmts[i].1, fps[i][e])
            };
            out.push(Exec {
                stmt: i,
                engine: e,
                ms: ms(t0.elapsed()),
                outcome: r.map_err(|e| e.to_string()),
            });
        }
    }
    out
}

struct Rig {
    db: Arc<Database>,
    servers: Servers,
    cold: Vec<Exec>,
}

fn setup(stmts: &[(&str, &str)]) -> Rig {
    let db = Arc::new(Database::ssb(SF, DATA_SEED));
    let servers = start(&db);
    let order: Vec<usize> = (0..stmts.len()).collect();
    let cold = pass(
        &servers,
        stmts,
        &order,
        &vec![[None; 2]; stmts.len()],
        &Tracer::new(false),
    );
    Rig { db, servers, cold }
}

fn same(a: &ResultSet, b: &ResultSet) -> bool {
    a.canonicalized().approx_eq(&b.canonicalized(), 1e-9)
}

pub fn run(cfg: &Cfg, tracer: Arc<Tracer>, rep: &mut Report) {
    let stmts = statements();
    let (rig, setup_s) = common::repeat_setup(SETUPS, |_| setup(&stmts), |r: Rig| stop(r.servers));
    rep.set("setup_s", setup_s);
    rep.prov("loadgen", report::json_str("closed loop: one client"));
    let mut fps = vec![[None; 2]; stmts.len()];
    for x in &rig.cold {
        if let Ok(o) = &x.outcome {
            fps[x.stmt][x.engine] = Some(o.fingerprint);
        }
    }

    let snap0 = rig.servers.platform.metrics().snapshot();
    let stats0: Vec<_> = rig.servers.caches.iter().map(|c| c.stats()).collect();
    let sent0: u64 = rig
        .servers
        .clients
        .iter()
        .map(WireClient::requests_sent)
        .sum();
    let mut rng = Rng::new(cfg.seed);
    let mut execs: Vec<Exec> = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let win_from = tracer.now_ns();
    let t0 = Instant::now();
    {
        let _root = tracer.span("flight.window", "unattributed");
        while t0.elapsed() < cfg.window() {
            let mut order: Vec<usize> = (0..stmts.len()).collect();
            rng.shuffle(&mut order);
            let (st0, all0) = report::host_ticks();
            let tp = Instant::now();
            let from = execs.len();
            execs.extend(pass(&rig.servers, &stmts, &order, &fps, &tracer));
            let wall = tp.elapsed().as_secs_f64();
            let (st1, all1) = report::host_ticks();
            passes.push(Pass {
                execs: from..execs.len(),
                wall,
                steal: (st1 - st0) as f64 / (all1 - all0).max(1) as f64,
            });
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let win_to = tracer.now_ns();
    let snap1 = rig.servers.platform.metrics().snapshot();
    let stats1: Vec<_> = rig.servers.caches.iter().map(|c| c.stats()).collect();
    let sent1: u64 = rig
        .servers
        .clients
        .iter()
        .map(WireClient::requests_sent)
        .sum();

    let n = execs.len();
    let failed = execs.iter().filter(|x| x.outcome.is_err()).count();
    rep.attempted = n as u64;
    rep.failed = failed as u64;
    // The figures read the quiet passes: the half in which the host
    // stole the least CPU. The statement set is fixed and its latencies
    // differ by three orders of magnitude, so a percentile over single
    // Executes sits on one statement's noisiest sample; the percentiles
    // are taken over each (statement, engine) pair's median Execute
    // across the quiet passes.
    let quiet = quiet_passes(&passes);
    let quiet_execs: Vec<&Exec> = quiet.iter().flat_map(|p| &execs[p.execs.clone()]).collect();
    let lat = stats::sorted(
        (0..stmts.len())
            .flat_map(|i| (0..ENGINES.len()).map(move |e| (i, e)))
            .map(|(i, e)| {
                let runs: Vec<f64> = quiet_execs
                    .iter()
                    .filter(|x| x.stmt == i && x.engine == e)
                    .map(|x| x.ms)
                    .collect();
                stats::median(&runs)
            })
            .collect(),
    );
    let quiet_wall: f64 = quiet.iter().map(|p| p.wall).sum();
    let quiet_n = quiet_execs.len();
    let quiet_failed = quiet_execs.iter().filter(|x| x.outcome.is_err()).count();
    let qps = quiet_n as f64 / quiet_wall.max(1e-9);
    rep.note(format!(
        "flight: {} warm passes, {n} statements ({failed} failed) in {wall:.2}s; figures over the {} quiet passes, latency percentiles over {} statement medians",
        passes.len(),
        quiet.len(),
        lat.len()
    ));
    for (k, p) in passes.iter().enumerate() {
        rep.note(format!(
            "flight pass #{}: {:.3} s, host steal {:.2}%{}",
            k + 1,
            p.wall,
            100.0 * p.steal,
            if quiet.iter().any(|q| std::ptr::eq(*q, p)) {
                " (quiet)"
            } else {
                ""
            }
        ));
    }
    let steals: Vec<String> = quiet.iter().map(|p| report::json_num(p.steal)).collect();
    rep.prov("quiet_passes_steal", format!("[{}]", steals.join(",")));
    for (i, (name, _)) in stmts.iter().enumerate() {
        for (e, engine) in ENGINES.iter().enumerate() {
            if let Some(Err(msg)) = rig
                .cold
                .iter()
                .find(|x| x.stmt == i && x.engine == e)
                .map(|x| &x.outcome)
            {
                rep.note(format!("flight: {name} on {engine} fails: {msg}"));
            }
        }
    }
    rep.set("queries_per_s", qps);
    rep.set(
        "measured_tasks_per_s",
        (quiet_n - quiet_failed) as f64 / quiet_wall.max(1e-9),
    );
    rep.set("latency_p50_ms", stats::percentile(&lat, 50.0));
    rep.set("latency_p90_ms", stats::percentile(&lat, 90.0));
    rep.set("latency_p99_ms", stats::percentile(&lat, 99.0));
    // One client, one load level: the loaded tail is the tail, and the
    // highest rate met is the rate completed.
    rep.set("loaded_p99_ms", stats::percentile(&lat, 99.0));
    rep.set("max_rate_per_s", qps);
    rep.set("ok_share", (n - failed) as f64 / n.max(1) as f64);

    // Output checks: every warm result equals the cold miss, and every
    // result equals the same engine's in-process execution.
    let reference: Vec<Vec<(f64, Result<ResultSet, String>)>> = (0..ENGINES.len())
        .map(|e| {
            let dbms = engine(&rig.db, e, None);
            stmts
                .iter()
                .map(|(_, sql)| {
                    let t = Instant::now();
                    let r = dbms.execute(sql).map_err(|e| e.to_string());
                    (ms(t.elapsed()), r)
                })
                .collect()
        })
        .collect();
    let mut mismatches = Vec::new();
    for x in rig.cold.iter().chain(&execs) {
        let want = &reference[x.engine][x.stmt].1;
        let ok = match (&x.outcome, want) {
            (Ok(o), Ok(rs)) => same(&o.result.to_result_set(), rs),
            (Err(_), Err(_)) => true,
            _ => false,
        };
        if !ok {
            mismatches.push(format!("{} on {}", stmts[x.stmt].0, ENGINES[x.engine]));
        }
    }
    mismatches.sort();
    mismatches.dedup();
    rep.check(
        format!("flight: every Execute result equals the engine's in-process execute (mismatches: {mismatches:?})"),
        mismatches.is_empty(),
    );
    let warm_hits_match = execs.iter().all(|x| match &x.outcome {
        Ok(o) if o.cache == CacheStatus::Hit => rig
            .cold
            .iter()
            .find(|c| c.stmt == x.stmt && c.engine == x.engine)
            .and_then(|c| c.outcome.as_ref().ok())
            .is_some_and(|c| {
                c.cache == CacheStatus::Miss
                    && same(&c.result.to_result_set(), &o.result.to_result_set())
            }),
        _ => true,
    });
    rep.check(
        "flight: every warm hit equals its cold miss",
        warm_hits_match,
    );
    let unexpected: BTreeSet<String> = rig
        .cold
        .iter()
        .chain(&execs)
        .filter(|x| {
            let killed = matches!(&x.outcome, Err(m) if m.contains("row budget"));
            killed != BUDGET_KILLS.contains(&(stmts[x.stmt].0, x.engine))
        })
        .map(|x| format!("{} on {}", stmts[x.stmt].0, ENGINES[x.engine]))
        .collect();
    rep.check(
        format!("flight: exactly Q19 and Q21 on both engines and Q4 on colstore fail, each on the row budget (unexpected: {unexpected:?})"),
        unexpected.is_empty(),
    );

    let idle_share = common::idle_cpu_share();

    // Restart: fresh servers and empty plan caches; recovered once every
    // statement that answered before has answered again (a cold pass over
    // them — the ones the budget kills would only fail again).
    let Rig { db, servers, cold } = rig;
    stop(servers);
    let answering: Vec<usize> = (0..stmts.len())
        .filter(|&i| cold.iter().any(|x| x.stmt == i && x.outcome.is_ok()))
        .collect();
    let mut rec = common::Recoveries::default();
    for _ in 0..RESTARTS {
        let (s, again) = rec.time(|| {
            let s = start(&db);
            let again = pass(
                &s,
                &stmts,
                &answering,
                &vec![[None; 2]; stmts.len()],
                &Tracer::new(false),
            );
            (s, again)
        });
        rep.check(
            "flight: after a restart every statement answers as before",
            again.iter().all(|x| {
                let before = &cold[x.stmt * ENGINES.len() + x.engine].outcome;
                x.outcome.is_ok() == before.is_ok()
            }),
        );
        stop(s);
    }
    rec.report(rep, "flight");
    rep.set("peak_rss_mb", report::peak_rss_mb());

    if !tracer.on() {
        return;
    }
    // ------------------------------------------------------ per layer
    let spans = tracer.take();
    let (hits, misses): (u64, u64) = stats0.iter().zip(&stats1).fold((0, 0), |(h, m), (a, b)| {
        (h + b.hits - a.hits, m + b.misses - a.misses)
    });
    rep.set(
        "plan_cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let cold_ms: Vec<f64> = cold
        .iter()
        .filter(|x| x.outcome.is_ok())
        .map(|x| x.ms)
        .collect();
    let warm_ms: Vec<f64> = execs
        .iter()
        .filter(|x| matches!(&x.outcome, Ok(o) if o.cache == CacheStatus::Hit))
        .map(|x| x.ms)
        .collect();
    rep.set("plan_cache.cold_ms", mean(&cold_ms));
    rep.set("plan_cache.warm_ms", mean(&warm_ms));
    let rtt = mean(&execs.iter().map(|x| x.ms).collect::<Vec<_>>());
    let (c, handler_ns) = common::hist_delta(&snap0, &snap1, "wire.latency.V2 execute");
    rep.set("wire.rtt_ms.execute", rtt);
    rep.set(
        "wire.transport_ms.execute",
        rtt - handler_ns as f64 / 1e6 / c.max(1) as f64,
    );
    rep.set(
        "wire.requests_per_task",
        (sent1 - sent0) as f64 / n.max(1) as f64,
    );
    rep.set("wire.idle_cpu_share", idle_share);

    // Engine layers from the same engines in process: planning
    // (`Dbms::explain`), execution, and the operator profile
    // (`explain_analyze`) of every statement that runs.
    let mut plan_ms = Vec::new();
    let mut ops = OpTally::default();
    for (e, name) in ENGINES.iter().enumerate() {
        let dbms = engine(&db, e, None);
        let ok: Vec<f64> = reference[e]
            .iter()
            .filter(|(_, r)| r.is_ok())
            .map(|(t, _)| *t)
            .collect();
        rep.set(&format!("engine.{name}.exec_ms"), mean(&ok));
        for (_, sql) in &stmts {
            let t = Instant::now();
            if dbms.explain(sql).is_ok() {
                plan_ms.push(ms(t.elapsed()));
            }
            if let Ok(p) = dbms.explain_analyze(sql) {
                let rows: Vec<(String, u64, u64, u64)> = p
                    .ops
                    .iter()
                    .map(|o| {
                        (
                            o.op.clone(),
                            o.metrics.nanos,
                            o.metrics.chunks_scanned,
                            o.metrics.chunks_skipped,
                        )
                    })
                    .collect();
                ops.absorb(&rows);
            }
        }
    }
    rep.set("engine.plan_ms", mean(&plan_ms));
    for kind in ["scan", "filter", "join", "select"] {
        rep.set(&format!("engine.op.{kind}.self_ms"), ops.mean_ms(kind));
    }
    rep.set("scan.chunk_skip_ratio", ops.skip_ratio());

    // Server-side handler time (parse/bind on a miss, plan-cache lookup,
    // execution, result encoding) moves from the client's wire spans to
    // the engine rows; planning's share is the in-process plan time of
    // the misses in the window.
    let plan_ns = mean(&plan_ms) * 1e6 * misses as f64;
    let cost = trace::cost_per_span_ns(20_000);
    common::layer_report(
        rep,
        &spans,
        win_from,
        win_to,
        &[
            ("wire", "engine_exec", handler_ns as f64 - plan_ns),
            ("wire", "sql_plan", plan_ns),
        ],
        cost,
        1.0,
    );
    common::write_spans(cfg, "flight", &spans);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_passes_are_the_least_stolen_half() {
        let pass = |steal: f64| Pass {
            execs: 0..0,
            wall: 1.0,
            steal,
        };
        let passes = [pass(0.3), pass(0.0), pass(0.2), pass(0.01), pass(0.05)];
        let q: Vec<f64> = quiet_passes(&passes).iter().map(|p| p.steal).collect();
        assert_eq!(q, [0.0, 0.01, 0.05]);
    }
}
