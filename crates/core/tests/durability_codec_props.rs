//! Property tests for the binary durability formats and the codec they
//! share with wire v2.
//!
//! * random WAL records round-trip through the log byte for byte, and
//!   randomly populated platforms recover to the same state from the WAL
//!   alone, from a snapshot, and from a snapshot plus a WAL tail;
//! * cutting the last WAL frame at any byte recovers exactly the intact
//!   prefix, with one torn record;
//! * a flipped byte anywhere in a snapshot fails recovery with
//!   `InvalidData`;
//! * arbitrary and mutated bytes fed to `decode_request`, `decode_reply`
//!   and the WAL parser never panic and never allocate more than a small
//!   multiple of their input — measured by the counting allocator below.

use proptest::prelude::*;
use sqalpel_core::durability::{
    parse_wal, recover, state_fingerprint, WalRecord, WalWriter, WAL_FILE,
};
use sqalpel_core::wire::proto::v2::{
    decode_reply, decode_request, encode_reply_frame, encode_request_frame, take_frame,
    DEFAULT_MAX_FRAME,
};
use sqalpel_core::wire::{Reply, Request, WireResultSet, WireValue};
use sqalpel_core::{
    CacheStatus, ContributorKey, DbmsEntry, ExecOutcome, ExperimentId, HostEntry, LoadAvg,
    OperatorProfile, Origin, PoolEntry, ProjectId, ProjectShard, QueryId, ResultRecord, RunOutcome,
    SqalpelServer, Strategy, Task, TaskId, TaskState, UserId, Visibility,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

// ------------------------------------------------- counting allocator

/// Counts the live bytes each thread allocates and their peak, so one
/// decode's footprint can be read without other tests' noise.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        track(-(layout.size() as isize));
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak bytes allocated on this thread while `f` runs, above the level
/// it started at.
fn peak_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, (PEAK.with(Cell::get) - base).max(0) as usize)
}

/// The allocation a decoder may make for `len` input bytes: a small
/// multiple of the input plus fixed slack for the first allocations.
fn alloc_bound(len: usize) -> usize {
    32 * len + (64 << 10)
}

// ------------------------------------------------------- generators

/// SplitMix64: the vendored proptest has no collection strategies, so
/// each case expands one seed into its inputs.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
    fn text(&mut self) -> String {
        const CHARS: [&str; 8] = ["a", "Z", "7", " ", "'", "é", "∑", "\n"];
        (0..self.below(12))
            .map(|_| CHARS[self.below(8) as usize])
            .collect()
    }
    fn texts(&mut self) -> Vec<String> {
        (0..self.below(4)).map(|_| self.text()).collect()
    }
    fn opt_text(&mut self) -> Option<String> {
        self.chance(50).then(|| self.text())
    }
    fn key(&mut self) -> ContributorKey {
        ContributorKey(format!("ck_{}", self.text()))
    }
    fn load(&mut self) -> LoadAvg {
        LoadAvg {
            one: f64::from_bits(self.next()),
            five: self.below(1000) as f64 / 8.0,
            fifteen: -0.0,
        }
    }
    fn extras(&mut self) -> serde_json::Value {
        match self.below(4) {
            0 => serde_json::Value::Null,
            1 => serde_json::json!({"cache": self.text(), "n": self.below(1 << 40) as i64}),
            2 => serde_json::json!([self.text(), true, serde_json::json!({"deep": vec![1, 2]})]),
            _ => serde_json::Value::from(self.text()),
        }
    }
    fn profile(&mut self) -> Option<Vec<OperatorProfile>> {
        self.chance(40).then(|| {
            (0..self.below(3))
                .map(|_| OperatorProfile {
                    op: self.text(),
                    rows_in: self.next(),
                    rows_out: self.below(100),
                    batches: self.below(9),
                    nanos: self.next(),
                    chunks_scanned: self.below(5),
                    chunks_skipped: self.below(5),
                })
                .collect()
        })
    }
    fn outcome(&mut self) -> RunOutcome {
        RunOutcome {
            times_ms: (0..self.below(4))
                .map(|_| f64::from_bits(self.next()))
                .collect(),
            rows: self.below(1 << 20) as usize,
            error: self.chance(30).then(|| self.text()),
            load_before: self.load(),
            load_after: self.load(),
            extras: self.extras(),
            fingerprint: self.chance(50).then(|| self.next()),
            profile: self.profile(),
        }
    }
    fn record(&mut self) -> ResultRecord {
        let o = self.outcome();
        ResultRecord {
            task: self.next(),
            project: self.below(9),
            experiment: self.below(9),
            query: self.next(),
            dbms_label: self.text(),
            host: self.text(),
            contributor: self.text(),
            times_ms: o.times_ms,
            rows: o.rows,
            error: o.error,
            load_before: o.load_before,
            load_after: o.load_after,
            extras: o.extras,
            hidden: self.chance(20),
            fingerprint: o.fingerprint,
            profile: o.profile,
        }
    }
    fn task(&mut self) -> Task {
        Task {
            id: TaskId(self.next()),
            project: ProjectId(self.below(9)),
            experiment: ExperimentId(self.below(9)),
            query: QueryId(self.next()),
            sql: self.text(),
            dbms_label: self.text(),
            host: self.text(),
            state: match self.below(5) {
                0 => TaskState::Queued,
                1 => TaskState::Running {
                    contributor: self.key(),
                },
                2 => TaskState::Done,
                3 => TaskState::Failed(self.text()),
                _ => TaskState::TimedOut,
            },
            started: None,
        }
    }
    fn pool_entry(&mut self) -> PoolEntry {
        PoolEntry {
            id: QueryId(self.next()),
            sql: self.text(),
            template: self.below(100) as usize,
            choice: (0..self.below(3))
                .map(|_| {
                    (
                        self.text(),
                        (0..self.below(3))
                            .map(|_| self.below(50) as usize)
                            .collect(),
                    )
                })
                .collect(),
            origin: match self.below(3) {
                0 => Origin::Baseline,
                1 => Origin::Random,
                _ => Origin::Morph {
                    strategy: [Strategy::Alter, Strategy::Expand, Strategy::Prune]
                        [self.below(3) as usize],
                    parent: QueryId(self.next()),
                },
            },
            step: self.below(1000) as usize,
            fingerprint: self.chance(50).then(|| self.next()),
        }
    }
    fn visibility(&mut self) -> Visibility {
        if self.chance(50) {
            Visibility::Public
        } else {
            Visibility::Private
        }
    }
    /// A record of kind `kind` (mod 17), fields drawn at random.
    fn wal_record(&mut self, kind: u64) -> WalRecord {
        match kind % 17 {
            0 => WalRecord::UserRegistered {
                id: UserId(self.next()),
                nickname: self.text(),
                email: self.text(),
            },
            1 => WalRecord::KeyIssued {
                user: UserId(self.next()),
                key: self.key(),
                counter: self.next(),
            },
            2 => WalRecord::DbmsAdded {
                entry: DbmsEntry {
                    name: self.text(),
                    version: self.text(),
                    vendor: self.text(),
                    settings: (0..self.below(3))
                        .map(|_| (self.text(), self.text()))
                        .collect(),
                    visibility: self.visibility(),
                },
            },
            3 => WalRecord::HostAdded {
                entry: HostEntry {
                    name: self.text(),
                    cpu: self.text(),
                    cores: self.next() as u32,
                    ram_gb: self.next() as u32,
                    os: self.text(),
                    visibility: self.visibility(),
                },
            },
            4 => WalRecord::ProjectCreated {
                id: ProjectId(self.next()),
                owner: UserId(self.next()),
                title: self.text(),
                synopsis: self.text(),
                visibility: self.visibility(),
            },
            5 => WalRecord::Invited {
                project: ProjectId(self.next()),
                user: UserId(self.next()),
            },
            6 => WalRecord::TargetsSet {
                project: ProjectId(self.next()),
                dbms_labels: self.texts(),
                hosts: self.texts(),
            },
            7 => WalRecord::CommentAdded {
                project: ProjectId(self.next()),
                author: UserId(self.next()),
                text: self.text(),
            },
            8 => WalRecord::TakenDown {
                project: ProjectId(self.next()),
            },
            9 => WalRecord::ExperimentAdded {
                project: ProjectId(self.next()),
                id: ExperimentId(self.next()),
                title: self.text(),
                baseline_sql: self.text(),
                grammar: self.text(),
                template_cap: self.next() as usize,
                pool_cap: self.next() as usize,
                dialect: self.opt_text(),
            },
            10 => WalRecord::PoolExtended {
                project: ProjectId(self.next()),
                experiment: ExperimentId(self.next()),
                entries: (0..self.below(4)).map(|_| self.pool_entry()).collect(),
            },
            11 => WalRecord::TasksEnqueued {
                project: ProjectId(self.next()),
                tasks: (0..self.below(4)).map(|_| self.task()).collect(),
            },
            12 => WalRecord::TaskClaimed {
                task: TaskId(self.next()),
                key: self.key(),
            },
            13 => WalRecord::ReportsAccepted {
                records: (0..self.below(5)).map(|_| self.record()).collect(),
            },
            14 => WalRecord::TasksReaped {
                project: ProjectId(self.next()),
                tasks: (0..self.below(4)).map(|_| TaskId(self.next())).collect(),
            },
            15 => WalRecord::TaskRequeued {
                task: TaskId(self.next()),
            },
            _ => WalRecord::ResultHidden {
                project: ProjectId(self.next()),
                index: self.next() as usize,
                hidden: self.chance(50),
            },
        }
    }
}

// ---------------------------------------------------------- platforms

fn tmp_dir(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sqalpel-codec-props-{tag}-{}-{seed:x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const DBMS: [&str; 2] = ["rowstore-2.0", "colstore-5.1"];
const HOST: &str = "bench-server";

/// A platform in some random state: users and keys, a project or two
/// with a seeded and morphed pool, enqueued tasks, then `ops` random
/// claims, reports (single and batched), reaps, requeues, hides and
/// comments. Returns the owner and the projects.
fn populate(server: &SqalpelServer, g: &mut Gen) -> (UserId, Vec<ProjectId>) {
    let owner = server
        .register_user(&format!("o{:x}", g.next()), "owner@example.org")
        .unwrap();
    let contributor = server
        .register_user(&format!("c{:x}", g.next()), "c@example.org")
        .unwrap();
    let projects: Vec<ProjectId> = (0..1 + g.below(2))
        .map(|_| {
            let p = server
                .create_project(
                    owner,
                    &format!("t{}", g.text()),
                    &g.text(),
                    Visibility::Public,
                )
                .unwrap();
            server
                .set_targets(
                    p,
                    owner,
                    DBMS.iter().map(|d| d.to_string()).collect(),
                    vec![HOST.into()],
                )
                .unwrap();
            server.invite(p, owner, contributor).unwrap();
            server.comment(p, owner, &format!("c{}", g.text())).unwrap();
            let grammar = sqalpel_grammar::Grammar::parse(sqalpel_grammar::FIG1_GRAMMAR).unwrap();
            let baseline = "select count(*) from nation where n_name = 'BRAZIL'";
            let exp = server
                .add_experiment(p, owner, "nation", baseline, Some(grammar), 1000, 100)
                .unwrap();
            server
                .seed_pool(p, exp, owner, 3 + g.below(6) as usize, g.next())
                .unwrap();
            let _ = server.morph_pool(p, exp, owner, None, g.below(6) as usize, g.next());
            server.enqueue_experiment(p, exp, owner).unwrap();
            p
        })
        .collect();
    let keys: Vec<ContributorKey> = (0..2)
        .map(|_| server.issue_key(contributor).unwrap())
        .collect();
    let mut held: Vec<(ContributorKey, TaskId)> = Vec::new();
    let mut nonce = 0;
    for _ in 0..20 + g.below(40) {
        let key = keys[g.below(2) as usize].clone();
        match g.below(8) {
            0..=2 => {
                nonce += 1;
                if let Ok(Some(t)) =
                    server.request_task_claimed(&key, DBMS[g.below(2) as usize], HOST, Some(nonce))
                {
                    held.push((key, t.id));
                }
            }
            3 | 4 if !held.is_empty() => {
                let (key, task) = held.swap_remove(g.below(held.len() as u64) as usize);
                let _ = server.report_result(&key, task, g.outcome());
            }
            5 => {
                let mut batch = Vec::new();
                for _ in 0..1 + g.below(3) {
                    nonce += 1;
                    if let Ok(Some(t)) = server.request_task_claimed(
                        &key,
                        DBMS[g.below(2) as usize],
                        HOST,
                        Some(nonce),
                    ) {
                        batch.push((t.id, g.outcome()));
                    }
                }
                let _ = server.report_batch(&key, &batch);
            }
            6 => {
                let p = projects[g.below(projects.len() as u64) as usize];
                let _ = server.hide_result(p, owner, g.below(4) as usize, g.chance(50));
                if g.chance(20) {
                    for task in server.reap_stuck(Duration::ZERO) {
                        let _ = server.requeue(task);
                    }
                    held.clear();
                }
            }
            _ => {
                let _ = server.comment(projects[0], contributor, &g.text());
            }
        }
    }
    // End on one single report, so the WAL's last frame is one record.
    if let Ok(Some(t)) = server.request_task(&keys[0], DBMS[0], HOST) {
        server.report_result(&keys[0], t.id, g.outcome()).unwrap();
    }
    (owner, projects)
}

fn fingerprint(dir: &Path) -> u64 {
    let rec = recover(dir).unwrap();
    state_fingerprint(
        &rec.global,
        &rec.shards.iter().collect::<Vec<&ProjectShard>>(),
    )
}

/// What readers see: every project's CSV export plus the queue summary.
fn visible(server: &SqalpelServer, owner: UserId, projects: &[ProjectId]) -> String {
    let mut out = format!("{:?}", server.queue_summary());
    for &p in projects {
        out.push_str(&server.export_csv(p, owner).unwrap());
    }
    out
}

// ------------------------------------------------------------ corpus

/// Valid request/reply bodies and a WAL image to mutate.
fn corpus(g: &mut Gen) -> Vec<Vec<u8>> {
    let body = |frame: Vec<u8>| {
        let mut buf = frame;
        take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap().1
    };
    let key = g.key();
    let reports: Vec<(TaskId, RunOutcome)> = (0..1 + g.below(3))
        .map(|_| (TaskId(g.next()), g.outcome()))
        .collect();
    let mut out = vec![
        body(encode_request_frame(
            1,
            &Request::ReportResult {
                key: key.clone(),
                task: TaskId(g.next()),
                outcome: g.outcome(),
            },
        )),
        body(encode_request_frame(
            2,
            &Request::ReportBatch {
                key: key.clone(),
                reports,
            },
        )),
        body(encode_request_frame(
            3,
            &Request::SetTargets {
                project: ProjectId(1),
                actor: UserId(2),
                dbms_labels: g.texts(),
                hosts: g.texts(),
            },
        )),
        body(encode_request_frame(
            4,
            &Request::RequestTask {
                key,
                dbms_label: g.text(),
                host: g.text(),
                claim: Some(g.next()),
            },
        )),
        body(encode_reply_frame(
            5,
            &Ok(Reply::Results(
                (0..1 + g.below(4)).map(|_| g.record()).collect(),
            )),
        )),
        body(encode_reply_frame(6, &Ok(Reply::Handout(Some(g.task()))))),
        body(encode_reply_frame(
            7,
            &Ok(Reply::Batch(vec![g.next(), g.next()])),
        )),
        body(encode_reply_frame(
            8,
            &Ok(Reply::Execution(ExecOutcome {
                result: WireResultSet {
                    columns: vec![g.text(), g.text()],
                    data: vec![
                        vec![WireValue::Int(1), WireValue::Null, WireValue::Str(g.text())],
                        vec![
                            WireValue::Null,
                            WireValue::Decimal {
                                raw: 12345,
                                scale: 2,
                            },
                            WireValue::Date(9),
                        ],
                    ],
                },
                fingerprint: g.next(),
                cache: CacheStatus::Hit,
            })),
        )),
    ];
    // Null-heavy result sets: decoded, every null is a whole `WireValue`,
    // so these decode at close to the 32x bound. All null, then one Int
    // in sixteen.
    for every in [0, 16] {
        let column = (0..1 << 16)
            .map(|i| match every {
                0 => WireValue::Null,
                n if i % n == 0 => WireValue::Int(i as i64),
                _ => WireValue::Null,
            })
            .collect();
        out.push(body(encode_reply_frame(
            9,
            &Ok(Reply::Execution(ExecOutcome {
                result: WireResultSet {
                    columns: vec![g.text()],
                    data: vec![column],
                },
                fingerprint: g.next(),
                cache: CacheStatus::Miss,
            })),
        )));
    }
    let dir = tmp_dir("corpus", g.next());
    let mut wal = WalWriter::open(&dir, 0).unwrap();
    for kind in 0..17 {
        wal.append(&g.wal_record(kind)).unwrap();
    }
    drop(wal);
    out.push(std::fs::read(dir.join(WAL_FILE)).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

/// Damage a valid body: flipped bytes, counts overwritten with huge
/// values, truncation, appended garbage.
fn mutate(g: &mut Gen, mut b: Vec<u8>) -> Vec<u8> {
    for _ in 0..1 + g.below(3) {
        match g.below(4) {
            0 if !b.is_empty() => {
                let at = g.below(b.len() as u64) as usize;
                b[at] ^= 1 << g.below(8);
            }
            1 if b.len() >= 4 => {
                let at = g.below(b.len() as u64 - 3) as usize;
                let v: u32 = [u32::MAX, 0x7FFF_FFFF, 1 << 22, g.next() as u32][g.below(4) as usize];
                b[at..at + 4].copy_from_slice(&v.to_le_bytes());
            }
            2 => b.truncate(g.below(b.len() as u64 + 1) as usize),
            _ => b.extend((0..g.below(16)).map(|_| g.next() as u8)),
        }
    }
    b
}

/// Feed `input` to every decoder; none may panic or over-allocate.
fn decode_all(input: &[u8]) {
    let bound = alloc_bound(input.len());
    let (_, peak) = peak_alloc(|| decode_request(input).is_ok());
    assert!(
        peak <= bound,
        "decode_request: {peak} bytes for {} input bytes",
        input.len()
    );
    let (_, peak) = peak_alloc(|| decode_reply(input).is_ok());
    assert!(
        peak <= bound,
        "decode_reply: {peak} bytes for {} input bytes",
        input.len()
    );
    let (_, peak) = peak_alloc(|| parse_wal(input).is_ok());
    assert!(
        peak <= bound,
        "parse_wal: {peak} bytes for {} input bytes",
        input.len()
    );
    // The WAL parser also sees the input behind a valid header.
    let mut framed = b"SQALWAL\x03".to_vec();
    framed.extend_from_slice(input);
    let (_, peak) = peak_alloc(|| parse_wal(&framed).is_ok());
    assert!(
        peak <= alloc_bound(framed.len()),
        "parse_wal (framed): {peak} bytes for {} input bytes",
        framed.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random records of every kind survive the log verbatim, stamped
    /// with consecutive LSNs.
    #[test]
    fn wal_records_round_trip(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let records: Vec<WalRecord> = (0..36)
            .map(|k| {
                let kind = k + g.below(17);
                g.wal_record(kind)
            })
            .collect();
        let dir = tmp_dir("records", seed);
        let mut wal = WalWriter::open(&dir, 0).unwrap();
        for r in &records {
            wal.append(r).unwrap();
        }
        drop(wal);
        let scan = parse_wal(&std::fs::read(dir.join(WAL_FILE)).unwrap()).unwrap();
        prop_assert_eq!(scan.torn, 0);
        prop_assert_eq!(scan.records.len(), records.len());
        for (i, (e, r)) in scan.records.iter().zip(&records).enumerate() {
            prop_assert_eq!(e.lsn, i as u64 + 1);
            prop_assert_eq!(format!("{:?}", e.record), format!("{r:?}"));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Arbitrary bytes, and valid bodies damaged at random, never make a
    /// decoder panic or allocate out of proportion to its input.
    #[test]
    fn hostile_bytes_never_panic_or_over_allocate(seed in any::<u64>()) {
        let mut g = Gen(seed);
        for _ in 0..8 {
            let len = g.below(2048) as usize;
            let noise: Vec<u8> = (0..len).map(|_| g.next() as u8).collect();
            decode_all(&noise);
        }
        for body in corpus(&mut g) {
            decode_all(&body);
            for _ in 0..16 {
                decode_all(&mutate(&mut g, body.clone()));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A populated platform recovers to the same state from its WAL, from
    /// a snapshot of it, and from a snapshot plus the WAL tail after it,
    /// and readers see the same exports throughout.
    #[test]
    fn populated_states_round_trip(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let dir = tmp_dir("states", seed);
        let (owner, projects) = populate(&SqalpelServer::open(&dir).unwrap(), &mut g);
        let from_wal = fingerprint(&dir);

        let server = SqalpelServer::open(&dir).unwrap();
        let seen = visible(&server, owner, &projects);
        server.snapshot_now().unwrap();
        drop(server);
        let rec = recover(&dir).unwrap();
        prop_assert!(rec.snapshot_lsn > 0);
        prop_assert_eq!(rec.replayed_records, 0);
        prop_assert_eq!(fingerprint(&dir), from_wal);

        // More history on top of the snapshot, then a second snapshot.
        let server = SqalpelServer::open(&dir).unwrap();
        prop_assert_eq!(visible(&server, owner, &projects), seen);
        populate(&server, &mut g);
        let seen = visible(&server, owner, &projects);
        drop(server);
        prop_assert!(recover(&dir).unwrap().replayed_records > 0);
        let from_tail = fingerprint(&dir);
        let server = SqalpelServer::open(&dir).unwrap();
        prop_assert_eq!(visible(&server, owner, &projects), seen);
        server.snapshot_now().unwrap();
        drop(server);
        prop_assert_eq!(fingerprint(&dir), from_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A snapshot with any one byte flipped refuses to recover.
    #[test]
    fn flipped_snapshot_byte_fails_with_invalid_data(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let dir = tmp_dir("flip", seed);
        let server = SqalpelServer::open(&dir).unwrap();
        populate(&server, &mut g);
        server.snapshot_now().unwrap();
        drop(server);
        let (path, _) = sqalpel_core::durability::latest_snapshot(&dir).unwrap().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Every header byte, then a random sample of the rest.
        let mut picks: Vec<usize> = (0..64.min(bytes.len())).collect();
        picks.extend((0..256).map(|_| g.below(bytes.len() as u64) as usize));
        for at in picks {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << g.below(8);
            std::fs::write(&path, &flipped).unwrap();
            let err = recover(&dir).map(|_| ()).unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at {}: {}", at, err);
        }
        std::fs::write(&path, &bytes).unwrap();
        prop_assert!(recover(&dir).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Cutting the WAL's last frame at any byte recovers exactly the
    /// state before that record, with one torn record.
    #[test]
    fn torn_last_record_recovers_the_intact_prefix(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let dir = tmp_dir("torn", seed);
        populate(&SqalpelServer::open(&dir).unwrap(), &mut g);
        let wal = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal).unwrap();
        let scan = parse_wal(&bytes).unwrap();
        let n = scan.records.len() as u64;
        let start = bytes.len() - scan.records.last().unwrap().bytes;
        std::fs::write(&wal, &bytes[..start]).unwrap();
        let prefix = fingerprint(&dir);
        for cut in start + 1..bytes.len() {
            std::fs::write(&wal, &bytes[..cut]).unwrap();
            let rec = recover(&dir).unwrap();
            prop_assert_eq!((rec.replayed_records, rec.torn_records), (n - 1, 1), "cut at {}", cut);
            prop_assert_eq!(
                state_fingerprint(&rec.global, &rec.shards.iter().collect::<Vec<_>>()),
                prefix
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
