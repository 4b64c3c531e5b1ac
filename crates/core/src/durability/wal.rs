//! The append-only record log.
//!
//! Every mutating platform operation appends one typed [`WalRecord`]
//! *before* the caller sees its acknowledgement. Records are physical,
//! not logical: they carry the concrete ids, SQL texts and catalog
//! entries the operation produced, so replay never re-runs grammar
//! conversion, random seeding or role checks — it re-applies outcomes.
//! (The alternative, logging API calls, founders on the pool's
//! [`Fingerprinter`](crate::pool::Fingerprinter): an in-process closure
//! that cannot be serialized, and without which a replayed morph walk
//! would diverge.)
//!
//! # Format
//!
//! The file opens with an 8-byte header, the magic `SQALWAL` and the
//! format version byte ([`FORMAT_VERSION`], 3). Then one frame per
//! record:
//!
//! ```text
//! [lsn: u64 LE] [len: u32 LE] [fnv64: u64 LE] [body: len bytes]
//! body = [kind: u8] [fields in the shared binary codec]
//! ```
//!
//! `lsn` is the record's log sequence number and `fnv64` the FNV-1a
//! checksum of the lsn, the length and the body. The body encodes its
//! fields with [`crate::codec`], the same bytes wire v2 sends: an
//! accepted report call is one columnar block of its result records (one
//! row for a single report), each record carrying its task, contributor
//! and error. A torn tail — short frame, bad length, bad checksum, a
//! body that does not decode — ends replay at the last intact record,
//! which is exactly the prefix the platform acknowledged before the
//! crash; reopening cuts the file back to that prefix before appending.
//! The LSN stamp lets recovery skip records a snapshot already contains:
//! if a crash lands between persisting a snapshot and truncating the
//! log, the stale prefix (lsn <= snapshot lsn) is ignored instead of
//! replayed twice. A file without the header (the text-framed JSON log
//! of format 1) or with another version byte (format 2, whose report
//! records this build cannot decode) is refused with `InvalidData` and
//! left untouched — never read as a torn tail and cut.
//!
//! Each append is written to the OS before the operation acks, which
//! survives process death (`kill -9`). Full fsync happens at snapshot
//! time; the log is truncated there, so the WAL is always the tail
//! since the latest snapshot.

use crate::catalog::{DbmsEntry, HostEntry, Visibility};
use crate::codec::{
    file_header, fnv64, fnv64_from, read_dbms, read_host, read_pool_entry, read_records, read_strs,
    read_task, read_u64s, read_visibility, write_dbms, write_host, write_pool_entry, write_records,
    write_strs, write_task, write_u64s, write_visibility, D, FORMAT_VERSION, MIN_POOL_ENTRY_BYTES,
    MIN_TASK_BYTES, R, W,
};
use crate::pool::PoolEntry;
use crate::project::{ExperimentId, ProjectId};
use crate::queue::{Task, TaskId};
use crate::results::ResultRecord;
use crate::user::{ContributorKey, UserId};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// One durable platform mutation.
#[derive(Debug, Clone)]
pub enum WalRecord {
    UserRegistered {
        id: UserId,
        nickname: String,
        email: String,
    },
    KeyIssued {
        user: UserId,
        key: ContributorKey,
        /// The registry's issue counter at derivation time; replay
        /// advances past it so fresh keys never collide.
        counter: u64,
    },
    DbmsAdded {
        entry: DbmsEntry,
    },
    HostAdded {
        entry: HostEntry,
    },
    ProjectCreated {
        id: ProjectId,
        owner: UserId,
        title: String,
        synopsis: String,
        visibility: Visibility,
    },
    Invited {
        project: ProjectId,
        user: UserId,
    },
    TargetsSet {
        project: ProjectId,
        dbms_labels: Vec<String>,
        hosts: Vec<String>,
    },
    CommentAdded {
        project: ProjectId,
        author: UserId,
        text: String,
    },
    TakenDown {
        project: ProjectId,
    },
    ExperimentAdded {
        project: ProjectId,
        id: ExperimentId,
        title: String,
        baseline_sql: String,
        /// The resolved grammar rendered back to the DSL — covers both
        /// hand-written grammars and auto-converted baselines.
        grammar: String,
        template_cap: usize,
        pool_cap: usize,
        dialect: Option<String>,
    },
    /// Pool entries added by seeding or a morph step (physical: the
    /// instantiated SQL, not the random walk that found it).
    PoolExtended {
        project: ProjectId,
        experiment: ExperimentId,
        entries: Vec<PoolEntry>,
    },
    TasksEnqueued {
        project: ProjectId,
        tasks: Vec<Task>,
    },
    TaskClaimed {
        task: TaskId,
        key: ContributorKey,
    },
    /// The reports one `report_result` or one shard of a `report_batch`
    /// accepted, in upload order. Each record is self-describing: its
    /// `task`, `contributor` and `error` are the queue completion replay
    /// applies before storing it. One frame, one checksum, so a torn
    /// tail drops the whole group atomically — an unacked batch never
    /// replays partially.
    ReportsAccepted {
        records: Vec<ResultRecord>,
    },
    TasksReaped {
        project: ProjectId,
        tasks: Vec<TaskId>,
    },
    TaskRequeued {
        task: TaskId,
    },
    ResultHidden {
        project: ProjectId,
        index: usize,
        hidden: bool,
    },
}

/// Record kind names, indexed by the kind byte minus one.
const KIND_NAMES: [&str; 17] = [
    "user_registered",
    "key_issued",
    "dbms_added",
    "host_added",
    "project_created",
    "invited",
    "targets_set",
    "comment_added",
    "taken_down",
    "experiment_added",
    "pool_extended",
    "tasks_enqueued",
    "task_claimed",
    "reports_accepted",
    "tasks_reaped",
    "task_requeued",
    "result_hidden",
];

impl WalRecord {
    /// The record's kind byte (1-based, in declaration order).
    fn kind_byte(&self) -> u8 {
        match self {
            WalRecord::UserRegistered { .. } => 1,
            WalRecord::KeyIssued { .. } => 2,
            WalRecord::DbmsAdded { .. } => 3,
            WalRecord::HostAdded { .. } => 4,
            WalRecord::ProjectCreated { .. } => 5,
            WalRecord::Invited { .. } => 6,
            WalRecord::TargetsSet { .. } => 7,
            WalRecord::CommentAdded { .. } => 8,
            WalRecord::TakenDown { .. } => 9,
            WalRecord::ExperimentAdded { .. } => 10,
            WalRecord::PoolExtended { .. } => 11,
            WalRecord::TasksEnqueued { .. } => 12,
            WalRecord::TaskClaimed { .. } => 13,
            WalRecord::ReportsAccepted { .. } => 14,
            WalRecord::TasksReaped { .. } => 15,
            WalRecord::TaskRequeued { .. } => 16,
            WalRecord::ResultHidden { .. } => 17,
        }
    }

    /// The record kind's name, e.g. `"reports_accepted"`.
    pub fn kind(&self) -> &'static str {
        KIND_NAMES[self.kind_byte() as usize - 1]
    }

    /// Encode the record body: the kind byte, then its fields.
    pub(crate) fn encode(&self, w: &mut W) {
        w.u8(self.kind_byte());
        match self {
            WalRecord::UserRegistered {
                id,
                nickname,
                email,
            } => {
                w.u64(id.0);
                w.str(nickname);
                w.str(email);
            }
            WalRecord::KeyIssued { user, key, counter } => {
                w.u64(user.0);
                w.str(&key.0);
                w.u64(*counter);
            }
            WalRecord::DbmsAdded { entry } => write_dbms(w, entry),
            WalRecord::HostAdded { entry } => write_host(w, entry),
            WalRecord::ProjectCreated {
                id,
                owner,
                title,
                synopsis,
                visibility,
            } => {
                w.u64(id.0);
                w.u64(owner.0);
                w.str(title);
                w.str(synopsis);
                write_visibility(w, *visibility);
            }
            WalRecord::Invited { project, user } => {
                w.u64(project.0);
                w.u64(user.0);
            }
            WalRecord::TargetsSet {
                project,
                dbms_labels,
                hosts,
            } => {
                w.u64(project.0);
                write_strs(w, dbms_labels);
                write_strs(w, hosts);
            }
            WalRecord::CommentAdded {
                project,
                author,
                text,
            } => {
                w.u64(project.0);
                w.u64(author.0);
                w.str(text);
            }
            WalRecord::TakenDown { project } => w.u64(project.0),
            WalRecord::ExperimentAdded {
                project,
                id,
                title,
                baseline_sql,
                grammar,
                template_cap,
                pool_cap,
                dialect,
            } => {
                w.u64(project.0);
                w.u64(id.0);
                w.str(title);
                w.str(baseline_sql);
                w.str(grammar);
                w.u64(*template_cap as u64);
                w.u64(*pool_cap as u64);
                w.opt_str(dialect.as_deref());
            }
            WalRecord::PoolExtended {
                project,
                experiment,
                entries,
            } => {
                w.u64(project.0);
                w.u64(experiment.0);
                w.u32(entries.len() as u32);
                for e in entries {
                    write_pool_entry(w, e);
                }
            }
            WalRecord::TasksEnqueued { project, tasks } => {
                w.u64(project.0);
                w.u32(tasks.len() as u32);
                for t in tasks {
                    write_task(w, t);
                }
            }
            WalRecord::TaskClaimed { task, key } => {
                w.u64(task.0);
                w.str(&key.0);
            }
            WalRecord::ReportsAccepted { records } => write_records(w, records),
            WalRecord::TasksReaped { project, tasks } => {
                w.u64(project.0);
                write_u64s(w, tasks.iter().map(|t| t.0));
            }
            WalRecord::TaskRequeued { task } => w.u64(task.0),
            WalRecord::ResultHidden {
                project,
                index,
                hidden,
            } => {
                w.u64(project.0);
                w.u64(*index as u64);
                w.bool(*hidden);
            }
        }
    }

    /// Decode one record body written by [`WalRecord::encode`].
    pub(crate) fn decode(r: &mut R<'_>) -> D<WalRecord> {
        let record = match r.u8()? {
            1 => WalRecord::UserRegistered {
                id: UserId(r.u64()?),
                nickname: r.str()?,
                email: r.str()?,
            },
            2 => WalRecord::KeyIssued {
                user: UserId(r.u64()?),
                key: ContributorKey(r.str()?),
                counter: r.u64()?,
            },
            3 => WalRecord::DbmsAdded {
                entry: read_dbms(r)?,
            },
            4 => WalRecord::HostAdded {
                entry: read_host(r)?,
            },
            5 => WalRecord::ProjectCreated {
                id: ProjectId(r.u64()?),
                owner: UserId(r.u64()?),
                title: r.str()?,
                synopsis: r.str()?,
                visibility: read_visibility(r)?,
            },
            6 => WalRecord::Invited {
                project: ProjectId(r.u64()?),
                user: UserId(r.u64()?),
            },
            7 => WalRecord::TargetsSet {
                project: ProjectId(r.u64()?),
                dbms_labels: read_strs(r)?,
                hosts: read_strs(r)?,
            },
            8 => WalRecord::CommentAdded {
                project: ProjectId(r.u64()?),
                author: UserId(r.u64()?),
                text: r.str()?,
            },
            9 => WalRecord::TakenDown {
                project: ProjectId(r.u64()?),
            },
            10 => WalRecord::ExperimentAdded {
                project: ProjectId(r.u64()?),
                id: ExperimentId(r.u64()?),
                title: r.str()?,
                baseline_sql: r.str()?,
                grammar: r.str()?,
                template_cap: r.u64()? as usize,
                pool_cap: r.u64()? as usize,
                dialect: r.opt_str()?,
            },
            11 => {
                let project = ProjectId(r.u64()?);
                let experiment = ExperimentId(r.u64()?);
                let n = r.count(MIN_POOL_ENTRY_BYTES)?;
                let entries = (0..n).map(|_| read_pool_entry(r)).collect::<D<_>>()?;
                WalRecord::PoolExtended {
                    project,
                    experiment,
                    entries,
                }
            }
            12 => {
                let project = ProjectId(r.u64()?);
                let n = r.count(MIN_TASK_BYTES)?;
                let tasks = (0..n).map(|_| read_task(r)).collect::<D<_>>()?;
                WalRecord::TasksEnqueued { project, tasks }
            }
            13 => WalRecord::TaskClaimed {
                task: TaskId(r.u64()?),
                key: ContributorKey(r.str()?),
            },
            14 => WalRecord::ReportsAccepted {
                records: read_records(r)?,
            },
            15 => WalRecord::TasksReaped {
                project: ProjectId(r.u64()?),
                tasks: read_u64s(r)?.into_iter().map(TaskId).collect(),
            },
            16 => WalRecord::TaskRequeued {
                task: TaskId(r.u64()?),
            },
            17 => WalRecord::ResultHidden {
                project: ProjectId(r.u64()?),
                index: r.u64()? as usize,
                hidden: r.bool()?,
            },
            b => return Err(format!("unknown wal record kind {b}")),
        };
        r.done()?;
        Ok(record)
    }
}

/// The WAL file name inside a state directory.
pub const WAL_FILE: &str = "wal.log";

/// The file header: magic, then the format version byte.
const WAL_HEADER: [u8; 8] = file_header(b"SQALWAL");
const WAL_HEADER_LEN: u64 = WAL_HEADER.len() as u64;

/// Frame header: lsn u64, body length u32, checksum u64.
const FRAME_HEADER_LEN: usize = 20;

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Check the first bytes of a WAL file. A prefix of the header (a crash
/// while the file was being created) passes; anything else is a file
/// this build does not read.
fn check_header(head: &[u8]) -> io::Result<()> {
    if WAL_HEADER.starts_with(head) {
        return Ok(());
    }
    if head.len() == WAL_HEADER.len() && head[..7] == WAL_HEADER[..7] {
        return Err(corrupt(format!(
            "{WAL_FILE} is WAL format version {}; this build reads version {FORMAT_VERSION}",
            head[7]
        )));
    }
    Err(corrupt(format!(
        "{WAL_FILE} is not a format-{FORMAT_VERSION} WAL (a text-framed JSON log from a format-1 \
         build?); this build reads state format version {FORMAT_VERSION} only"
    )))
}

/// Appender over the single live WAL file.
pub struct WalWriter {
    path: PathBuf,
    file: File,
    /// The file's length: the header plus every frame appended. Tracked
    /// here, so an append costs one `write` and no `fstat`.
    len: u64,
    /// Records appended since the file was last truncated, plus the
    /// starting sequence handed in at open — a monotone record sequence
    /// used to name snapshots.
    lsn: u64,
    /// Reused frame buffer.
    frame: Vec<u8>,
}

impl WalWriter {
    /// Open (creating if absent) the WAL for appending. `lsn` is the
    /// sequence number recovery established for the existing tail.
    pub fn open(dir: &Path, lsn: u64) -> io::Result<WalWriter> {
        let path = dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let mut head = Vec::with_capacity(WAL_HEADER.len());
        (&mut file).take(WAL_HEADER_LEN).read_to_end(&mut head)?;
        check_header(&head)?;
        let mut len = file.metadata()?.len();
        if len < WAL_HEADER_LEN {
            file.set_len(0)?;
            file.write_all(&WAL_HEADER)?;
            len = WAL_HEADER_LEN;
        }
        Ok(WalWriter {
            path,
            file,
            len,
            lsn,
            frame: Vec::new(),
        })
    }

    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Append one record, stamped with the next LSN, and write it to the
    /// OS. Returns the frame's byte length (for the `wal.bytes` counter).
    /// A failed append truncates back to the pre-append length so a
    /// partial frame cannot tear off later, successful records.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<u64> {
        let lsn = self.lsn + 1;
        let mut w = W {
            buf: std::mem::take(&mut self.frame),
        };
        w.buf.clear();
        w.buf.resize(FRAME_HEADER_LEN, 0);
        record.encode(&mut w);
        let mut frame = w.buf;
        let body_len = u32::try_from(frame.len() - FRAME_HEADER_LEN)
            .map_err(|_| corrupt("wal record larger than 4 GiB".into()))?;
        frame[0..8].copy_from_slice(&lsn.to_le_bytes());
        frame[8..12].copy_from_slice(&body_len.to_le_bytes());
        let sum = fnv64_from(fnv64(&frame[..12]), &frame[FRAME_HEADER_LEN..]);
        frame[12..20].copy_from_slice(&sum.to_le_bytes());
        let written = self.file.write_all(&frame);
        let n = frame.len() as u64;
        self.frame = frame;
        if let Err(e) = written {
            let _ = self.file.set_len(self.len);
            return Err(e);
        }
        self.len += n;
        self.lsn = lsn;
        Ok(n)
    }

    /// Cut the file back to its first `len` bytes — the intact prefix
    /// recovery replayed — so appends do not land behind a torn frame.
    pub fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        let len = len.max(WAL_HEADER_LEN);
        if len < self.len {
            self.file.set_len(len)?;
            self.len = len;
        }
        Ok(())
    }

    /// Fsync then truncate: called under all platform locks right after
    /// a snapshot at the current LSN has been persisted, making the WAL
    /// the empty tail of that snapshot.
    pub fn reset_after_snapshot(&mut self) -> io::Result<()> {
        self.file.sync_all()?;
        self.file.set_len(WAL_HEADER_LEN)?;
        self.file.sync_all()?;
        self.len = WAL_HEADER_LEN;
        Ok(())
    }

    /// Fsync without truncating (graceful shutdown).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// One intact WAL record.
#[derive(Debug)]
pub struct WalEntry {
    pub lsn: u64,
    /// The frame's size in bytes, header included.
    pub bytes: usize,
    pub record: WalRecord,
}

/// What a WAL file holds.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Every intact record, in log order.
    pub records: Vec<WalEntry>,
    /// Torn or corrupt frames at the tail (0 or 1: replay stops at the
    /// first).
    pub torn: usize,
    /// Bytes of the header plus the intact frames: where appends resume.
    pub intact_len: u64,
}

/// Read every intact record from a WAL file, stopping silently at a torn
/// tail. A missing file reads as empty; a file in another format is an
/// `InvalidData` error.
pub fn read_wal(path: &Path) -> io::Result<WalScan> {
    match std::fs::read(path) {
        Ok(bytes) => parse_wal(&bytes),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(WalScan::default()),
        Err(e) => Err(e),
    }
}

/// Parse a whole WAL file image (see [`read_wal`]).
pub fn parse_wal(bytes: &[u8]) -> io::Result<WalScan> {
    let header_len = bytes.len().min(WAL_HEADER.len());
    check_header(&bytes[..header_len])?;
    let mut scan = WalScan::default();
    if bytes.len() < WAL_HEADER.len() {
        return Ok(scan);
    }
    let mut pos = WAL_HEADER.len();
    while pos < bytes.len() {
        let Some(entry) = parse_frame(&bytes[pos..]) else {
            // Torn or corrupt: everything from here on is past the
            // acknowledged prefix.
            scan.torn = 1;
            break;
        };
        pos += entry.bytes;
        scan.records.push(entry);
    }
    scan.intact_len = pos as u64;
    Ok(scan)
}

/// One frame off the front of `b`, or `None` when it is torn or corrupt.
fn parse_frame(b: &[u8]) -> Option<WalEntry> {
    let header = b.get(..FRAME_HEADER_LEN)?;
    let lsn = u64::from_le_bytes(header[0..8].try_into().ok()?);
    let len = u32::from_le_bytes(header[8..12].try_into().ok()?) as usize;
    let sum = u64::from_le_bytes(header[12..20].try_into().ok()?);
    let body = b.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN.checked_add(len)?)?;
    if fnv64_from(fnv64(&header[..12]), body) != sum {
        return None;
    }
    let record = WalRecord::decode(&mut R::new(body)).ok()?;
    Some(WalEntry {
        lsn,
        bytes: FRAME_HEADER_LEN + len,
        record,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::record;
    use crate::{pool::QueryId, queue::TaskState};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqalpel-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::UserRegistered {
                id: UserId(1),
                nickname: "mlk".into(),
                email: "mlk@cwi.nl".into(),
            },
            WalRecord::KeyIssued {
                user: UserId(1),
                key: ContributorKey("ck_feed".into()),
                counter: 3,
            },
            WalRecord::ProjectCreated {
                id: ProjectId(1),
                owner: UserId(1),
                title: "nation".into(),
                synopsis: "s".into(),
                visibility: Visibility::Public,
            },
            WalRecord::TargetsSet {
                project: ProjectId(1),
                dbms_labels: vec!["rowstore-2.0".into()],
                hosts: vec!["bench-server".into()],
            },
            WalRecord::TasksEnqueued {
                project: ProjectId(1),
                tasks: vec![Task {
                    id: TaskId(1 << 32),
                    project: ProjectId(1),
                    experiment: ExperimentId(0),
                    query: QueryId(0),
                    sql: "select 1 from t".into(),
                    dbms_label: "rowstore-2.0".into(),
                    host: "bench-server".into(),
                    state: TaskState::Queued,
                    started: None,
                }],
            },
            WalRecord::TaskClaimed {
                task: TaskId(1 << 32),
                key: ContributorKey("ck_feed".into()),
            },
            WalRecord::ReportsAccepted {
                records: vec![record(
                    TaskId(1 << 32),
                    ProjectId(1),
                    ExperimentId(0),
                    QueryId(0),
                    "rowstore-2.0",
                    "bench-server",
                    &ContributorKey("ck_feed".into()),
                    vec![1.0, 2.0],
                    3,
                    None,
                )],
            },
            WalRecord::ReportsAccepted {
                records: vec![record(
                    TaskId((1 << 32) | 1),
                    ProjectId(1),
                    ExperimentId(0),
                    QueryId(1),
                    "rowstore-2.0",
                    "bench-server",
                    &ContributorKey("ck_feed".into()),
                    vec![4.0],
                    0,
                    Some("timeout".into()),
                )],
            },
            WalRecord::TasksReaped {
                project: ProjectId(1),
                tasks: vec![TaskId(1 << 32)],
            },
            WalRecord::ResultHidden {
                project: ProjectId(1),
                index: 0,
                hidden: true,
            },
        ]
    }

    #[test]
    fn append_and_read_round_trips() {
        let dir = tmp_dir("roundtrip");
        let mut wal = WalWriter::open(&dir, 0).unwrap();
        let mut bytes = 0;
        for r in sample_records() {
            bytes += wal.append(&r).unwrap();
        }
        assert_eq!(wal.lsn(), sample_records().len() as u64);
        assert!(bytes > 0);

        let scan = read_wal(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(scan.torn, 0);
        let back = scan.records;
        assert_eq!(back.len(), sample_records().len());
        // LSNs stamp the records 1..=n in append order.
        let lsns: Vec<u64> = back.iter().map(|e| e.lsn).collect();
        assert_eq!(lsns, (1..=back.len() as u64).collect::<Vec<_>>());
        assert_eq!(back.iter().map(|e| e.bytes as u64).sum::<u64>(), bytes);
        // Every record survives verbatim.
        for (e, r) in back.iter().zip(sample_records()) {
            assert_eq!(format!("{:?}", e.record), format!("{r:?}"), "{}", r.kind());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_stops_replay_at_acknowledged_prefix() {
        let dir = tmp_dir("torn");
        let mut wal = WalWriter::open(&dir, 0).unwrap();
        for r in sample_records().into_iter().take(3) {
            wal.append(&r).unwrap();
        }
        drop(wal);
        // Simulate a crash mid-write: chop the last frame at every byte.
        let path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        let intact = parse_wal(&bytes).unwrap();
        let last = intact.records.last().unwrap().bytes;
        for cut in bytes.len() - last + 1..bytes.len() {
            let scan = parse_wal(&bytes[..cut]).unwrap();
            assert_eq!((scan.records.len(), scan.torn), (2, 1), "cut at {cut}");
            assert_eq!(scan.intact_len as usize, bytes.len() - last);
        }

        // A flipped byte (bad checksum) also ends replay there.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] = flipped[mid].wrapping_add(1);
        let scan = parse_wal(&flipped).unwrap();
        assert!(scan.records.len() <= 2);
        assert_eq!(scan.torn, 1);

        // Reopening cuts the torn frame off, so later appends replay.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let mut wal = WalWriter::open(&dir, 2).unwrap();
        wal.truncate_to(read_wal(&path).unwrap().intact_len)
            .unwrap();
        wal.append(&sample_records()[0]).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!((scan.records.len(), scan.torn), (3, 0));
        assert_eq!(scan.records[2].lsn, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_after_snapshot_empties_the_log() {
        let dir = tmp_dir("reset");
        let mut wal = WalWriter::open(&dir, 0).unwrap();
        for r in sample_records().into_iter().take(2) {
            wal.append(&r).unwrap();
        }
        wal.reset_after_snapshot().unwrap();
        assert_eq!(wal.lsn(), 2, "lsn keeps counting across truncation");
        let back = read_wal(&dir.join(WAL_FILE)).unwrap().records;
        assert!(back.is_empty());
        // Appends continue on the truncated file, LSNs past the snapshot.
        wal.append(&sample_records()[0]).unwrap();
        let back = read_wal(&dir.join(WAL_FILE)).unwrap().records;
        assert_eq!(back.len(), 1);
        assert_eq!(
            back[0].lsn, 3,
            "post-truncation records carry lsns past the snapshot"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_wal_reads_empty() {
        let scan = read_wal(Path::new("/nonexistent/wal.log")).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.torn, 0);
    }

    #[test]
    fn other_formats_are_refused_not_skipped() {
        // A format-1 text-framed JSON log.
        let text = b"1 2 00000000000000aa {}\n";
        let err = parse_wal(text).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("format version 3"), "{err}");
        // The right magic with another version byte names that version.
        let err = parse_wal(b"SQALWAL\x07").unwrap_err();
        assert!(err.to_string().contains("version 7"), "{err}");
        // A crash while creating the file leaves a header prefix: empty.
        assert!(parse_wal(b"SQAL").unwrap().records.is_empty());
    }
}
