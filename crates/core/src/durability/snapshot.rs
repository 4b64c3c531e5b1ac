//! Checkpointing: the full platform state as one binary file.
//!
//! A snapshot bounds recovery time — replay starts from the latest
//! snapshot instead of the beginning of history.
//!
//! # Format
//!
//! An 8-byte header — the magic `SQALSNP` and the format version byte
//! ([`FORMAT_VERSION`], 3) — then a stream of length-prefixed sections:
//!
//! ```text
//! [kind: u8] [len: u32 LE] [fnv64: u64 LE] [body: len bytes]
//! ```
//!
//! `fnv64` is the FNV-1a checksum of the kind byte, the length and the
//! body. Bodies use the shared [`crate::codec`]. Sections come in restore
//! order: `users`, `keys`, `key_counter`, `dbms`, `hosts`, then per
//! project its `project` header,
//! each `experiment` followed by its `pool` entries, its `tasks` and its
//! `results`. Collections are cut into blocks of at most [`BLOCK`] items,
//! each block a section whose body starts with its u32 item count;
//! results are columnar blocks, the same encoding wire v2 replies with.
//! The last section is the `end` marker, whose body is the number of
//! sections before it: a file without it is truncated, a section whose
//! checksum fails is corrupt, and either refuses to load.
//!
//! The writer streams sections through a `BufWriter` into a temp file,
//! fsyncs it and atomically renames it into place as
//! `snapshot-<lsn>.snap`; the directory is fsynced so the rename survives
//! a crash. The reader streams them back one section at a time — neither
//! side ever holds the whole file. Readers pick the highest LSN present;
//! older snapshots are pruned after a new one lands. A `snapshot-*.jsonl`
//! file (the JSON-lines snapshot of format 1) is refused with
//! `InvalidData`, never skipped.

use crate::codec::{
    file_header, fnv64, fnv64_from, read_dbms, read_host, read_pool_entry, read_records, read_strs,
    read_task, read_u64s, read_visibility, write_dbms, write_host, write_pool_entry, write_records,
    write_strs, write_task, write_u64s, write_visibility, D, FORMAT_VERSION, MIN_POOL_ENTRY_BYTES,
    MIN_TASK_BYTES, R, W,
};
use crate::project::{Comment, ExperimentId, Project, ProjectId};
use crate::shard::{GlobalShard, ProjectShard};
use crate::user::{ContributorKey, UserId};
use sqalpel_grammar::Grammar;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// The file header: magic, then the format version byte.
const SNAPSHOT_HEADER: [u8; 8] = file_header(b"SQALSNP");
/// Section header: kind u8, body length u32, checksum u64.
const SECTION_HEADER_LEN: usize = 13;
/// Items per block section.
const BLOCK: usize = 4096;
const SUFFIX: &str = ".snap";

const SEC_USERS: u8 = 1;
const SEC_KEYS: u8 = 2;
const SEC_KEY_COUNTER: u8 = 3;
const SEC_DBMS: u8 = 4;
const SEC_HOSTS: u8 = 5;
const SEC_PROJECT: u8 = 6;
const SEC_EXPERIMENT: u8 = 7;
const SEC_POOL: u8 = 8;
const SEC_TASKS: u8 = 9;
const SEC_RESULTS: u8 = 10;
const SEC_END: u8 = 0xFF;

/// A section kind's name, and whether its body is a block of items.
fn section_kind(kind: u8) -> Option<(&'static str, bool)> {
    Some(match kind {
        SEC_USERS => ("users", true),
        SEC_KEYS => ("keys", true),
        SEC_KEY_COUNTER => ("key_counter", false),
        SEC_DBMS => ("dbms", true),
        SEC_HOSTS => ("hosts", true),
        SEC_PROJECT => ("project", false),
        SEC_EXPERIMENT => ("experiment", false),
        SEC_POOL => ("pool", true),
        SEC_TASKS => ("tasks", true),
        SEC_RESULTS => ("results", true),
        SEC_END => ("end", false),
        _ => return None,
    })
}

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("snapshot: {}", msg.into()),
    )
}

/// Builds each section body in one reused buffer and hands it on.
struct Sections<F: FnMut(u8, &[u8]) -> io::Result<()>> {
    w: W,
    emit: F,
}

impl<F: FnMut(u8, &[u8]) -> io::Result<()>> Sections<F> {
    fn one(&mut self, kind: u8, fill: impl FnOnce(&mut W)) -> io::Result<()> {
        self.w.buf.clear();
        fill(&mut self.w);
        (self.emit)(kind, &self.w.buf)
    }

    /// One section per block of at most [`BLOCK`] items; `fill` writes
    /// the block's item count first.
    fn blocks<T>(&mut self, kind: u8, items: &[T], fill: impl Fn(&mut W, &[T])) -> io::Result<()> {
        for block in items.chunks(BLOCK) {
            self.one(kind, |w| fill(w, block))?;
        }
        Ok(())
    }
}

/// Walk the whole state in restore order, one section body at a time.
/// Keys go out sorted, so equal states encode to equal bytes.
fn encode_state(
    global: &GlobalShard,
    shards: &[&ProjectShard],
    emit: impl FnMut(u8, &[u8]) -> io::Result<()>,
) -> io::Result<()> {
    let mut out = Sections {
        w: W::default(),
        emit,
    };
    out.blocks(SEC_USERS, global.users.users(), |w, users| {
        w.u32(users.len() as u32);
        for u in users {
            w.u64(u.id.0);
            w.str(&u.nickname);
            w.str(u.email_for_legal_contact());
        }
    })?;
    let mut keys: Vec<(&ContributorKey, UserId)> = global.users.keys().collect();
    keys.sort_unstable_by(|a, b| a.0 .0.cmp(&b.0 .0));
    out.blocks(SEC_KEYS, &keys, |w, keys| {
        w.u32(keys.len() as u32);
        for (key, user) in keys {
            w.str(&key.0);
            w.u64(user.0);
        }
    })?;
    out.one(SEC_KEY_COUNTER, |w| w.u64(global.users.key_counter()))?;
    out.blocks(SEC_DBMS, global.catalogs.dbms_entries(), |w, entries| {
        w.u32(entries.len() as u32);
        for e in entries {
            write_dbms(w, e);
        }
    })?;
    out.blocks(SEC_HOSTS, global.catalogs.host_entries(), |w, entries| {
        w.u32(entries.len() as u32);
        for e in entries {
            write_host(w, e);
        }
    })?;

    for shard in shards {
        let p = &shard.project;
        out.one(SEC_PROJECT, |w| {
            w.u64(p.id.0);
            w.str(&p.title);
            w.str(&p.synopsis);
            w.u64(p.owner.0);
            write_visibility(w, p.visibility);
            write_u64s(w, p.contributors.iter().map(|u| u.0));
            w.u32(p.comments.len() as u32);
            for c in &p.comments {
                w.u64(c.author.0);
                w.str(&c.text);
            }
            write_strs(w, &p.dbms_labels);
            write_strs(w, &p.hosts);
            w.bool(p.taken_down);
        })?;
        for e in &p.experiments {
            out.one(SEC_EXPERIMENT, |w| {
                w.u64(p.id.0);
                w.u64(e.id.0);
                w.str(&e.title);
                w.str(&e.baseline_sql);
                w.str(&e.pool.grammar().to_string());
                w.u64(e.pool.template_cap() as u64);
                w.u64(e.pool.pool_cap() as u64);
                w.opt_str(e.pool.dialect());
            })?;
            out.blocks(SEC_POOL, e.pool.entries(), |w, entries| {
                w.u32(entries.len() as u32);
                w.u64(p.id.0);
                w.u64(e.id.0);
                for entry in entries {
                    write_pool_entry(w, entry);
                }
            })?;
        }
        out.blocks(SEC_TASKS, shard.queue.tasks(), |w, tasks| {
            w.u32(tasks.len() as u32);
            for t in tasks {
                write_task(w, t);
            }
        })?;
        out.blocks(SEC_RESULTS, shard.results.all(), write_records)?;
    }
    Ok(())
}

/// The snapshot file being written: sections go out as they are built.
struct SnapshotWriter {
    out: BufWriter<File>,
    sections: u64,
}

impl SnapshotWriter {
    fn section(&mut self, kind: u8, body: &[u8]) -> io::Result<()> {
        let len = u32::try_from(body.len()).map_err(|_| corrupt("section over 4 GiB"))?;
        let mut head = [0u8; SECTION_HEADER_LEN];
        head[0] = kind;
        head[1..5].copy_from_slice(&len.to_le_bytes());
        let sum = fnv64_from(fnv64(&head[..5]), body);
        head[5..].copy_from_slice(&sum.to_le_bytes());
        self.out.write_all(&head)?;
        self.out.write_all(body)?;
        self.sections += 1;
        Ok(())
    }
}

/// Write a snapshot of the given state at `lsn`. The caller must hold
/// every shard lock (the state must not move under the writer). Returns
/// the final snapshot path.
pub fn write_snapshot(
    dir: &Path,
    lsn: u64,
    global: &GlobalShard,
    shards: &[&ProjectShard],
) -> io::Result<PathBuf> {
    let tmp = dir.join(format!("snapshot-{lsn:020}.tmp"));
    let path = dir.join(format!("snapshot-{lsn:020}{SUFFIX}"));
    let mut out = SnapshotWriter {
        out: BufWriter::with_capacity(1 << 20, File::create(&tmp)?),
        sections: 0,
    };
    out.out.write_all(&SNAPSHOT_HEADER)?;
    encode_state(global, shards, |kind, body| out.section(kind, body))?;
    let sections = out.sections;
    out.section(SEC_END, &sections.to_le_bytes())?;
    out.out
        .into_inner()
        .map_err(|e| io::Error::other(e.to_string()))?
        .sync_all()?;
    fs::rename(&tmp, &path)?;
    // Fsync the directory so the rename itself is durable.
    File::open(dir)?.sync_all()?;
    Ok(path)
}

/// The snapshot LSN in a file name of this format, `None` for any other
/// file. A format-1 JSON-lines snapshot is an error.
fn snapshot_lsn(name: &str) -> io::Result<Option<u64>> {
    let Some(rest) = name.strip_prefix("snapshot-") else {
        return Ok(None);
    };
    if rest.ends_with(".jsonl") {
        return Err(corrupt(format!(
            "{name} is a format-1 JSON snapshot; this build reads state format version \
             {FORMAT_VERSION} only"
        )));
    }
    Ok(rest.strip_suffix(SUFFIX).and_then(|s| s.parse().ok()))
}

/// The newest complete snapshot in `dir`, as `(path, lsn)`.
pub fn latest_snapshot(dir: &Path) -> io::Result<Option<(PathBuf, u64)>> {
    let mut best: Option<(PathBuf, u64)> = None;
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(lsn) = snapshot_lsn(name)? else {
            continue;
        };
        if best.as_ref().is_none_or(|(_, b)| lsn > *b) {
            best = Some((entry.path(), lsn));
        }
    }
    Ok(best)
}

/// Remove snapshots (and stray temp files) older than `keep_lsn`.
pub fn prune_older(dir: &Path, keep_lsn: u64) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = snapshot_lsn(name)?.is_some_and(|lsn| lsn < keep_lsn) || name.ends_with(".tmp");
        if stale {
            fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Streams a snapshot's sections back, verifying each checksum.
struct SectionReader {
    input: BufReader<File>,
    /// Bytes of the file not yet read.
    left: u64,
    body: Vec<u8>,
    /// Sections read so far, the end marker excluded.
    seen: u64,
}

impl SectionReader {
    fn open(path: &Path) -> io::Result<SectionReader> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut input = BufReader::with_capacity(1 << 20, file);
        let mut head = [0u8; SNAPSHOT_HEADER.len()];
        if len < head.len() as u64 {
            return Err(corrupt("shorter than its header"));
        }
        input.read_exact(&mut head)?;
        if head[..7] != SNAPSHOT_HEADER[..7] {
            return Err(corrupt(format!("{} is not a snapshot", path.display())));
        }
        if head[7] != FORMAT_VERSION {
            return Err(corrupt(format!(
                "format version {}; this build reads version {FORMAT_VERSION}",
                head[7]
            )));
        }
        Ok(SectionReader {
            input,
            left: len - head.len() as u64,
            body: Vec::new(),
            seen: 0,
        })
    }

    /// The next section, or `None` after a valid end marker.
    fn next(&mut self) -> io::Result<Option<(u8, &[u8])>> {
        if self.left < SECTION_HEADER_LEN as u64 {
            return Err(corrupt("missing end marker (truncated snapshot)"));
        }
        let mut head = [0u8; SECTION_HEADER_LEN];
        self.input.read_exact(&mut head)?;
        let kind = head[0];
        let len = u32::from_le_bytes(head[1..5].try_into().expect("4 bytes"));
        let sum = u64::from_le_bytes(head[5..].try_into().expect("8 bytes"));
        self.left -= SECTION_HEADER_LEN as u64;
        if u64::from(len) > self.left {
            return Err(corrupt("section runs past the end of the file"));
        }
        self.body.resize(len as usize, 0);
        self.input.read_exact(&mut self.body)?;
        self.left -= u64::from(len);
        if fnv64_from(fnv64(&head[..5]), &self.body) != sum {
            return Err(corrupt("section checksum mismatch"));
        }
        if kind == SEC_END {
            if self.body[..] != self.seen.to_le_bytes() || self.left != 0 {
                return Err(corrupt("bad end marker"));
            }
            return Ok(None);
        }
        self.seen += 1;
        Ok(Some((kind, &self.body)))
    }
}

/// Load a snapshot back into state parts. Sections arrive in restore
/// order, so the per-structure `restore_*` methods see ids densely.
pub fn read_snapshot(path: &Path) -> io::Result<(GlobalShard, Vec<ProjectShard>)> {
    let mut global = GlobalShard {
        users: crate::user::UserRegistry::new(),
        catalogs: crate::catalog::Catalogs::new(),
    };
    let mut shards: Vec<ProjectShard> = Vec::new();
    let mut sections = SectionReader::open(path)?;
    while let Some((kind, body)) = sections.next()? {
        let mut r = R::new(body);
        restore_section(kind, &mut r, &mut global, &mut shards)
            .and_then(|()| r.done())
            .map_err(corrupt)?;
    }
    Ok((global, shards))
}

fn restore_section(
    kind: u8,
    r: &mut R<'_>,
    global: &mut GlobalShard,
    shards: &mut Vec<ProjectShard>,
) -> D<()> {
    match kind {
        SEC_USERS => {
            for _ in 0..r.count(16)? {
                let id = UserId(r.u64()?);
                global.users.restore_user(id, &r.str()?, &r.str()?)?;
            }
        }
        SEC_KEYS => {
            // The counter comes in its own section; 0 here, maxed there.
            for _ in 0..r.count(12)? {
                let key = ContributorKey(r.str()?);
                global.users.restore_key(key, UserId(r.u64()?), 0);
            }
        }
        SEC_KEY_COUNTER => global.users.restore_key_counter(r.u64()?),
        SEC_DBMS => {
            for _ in 0..r.count(17)? {
                global
                    .catalogs
                    .add_dbms(read_dbms(r)?)
                    .map_err(|e| e.to_string())?;
            }
        }
        SEC_HOSTS => {
            for _ in 0..r.count(21)? {
                global
                    .catalogs
                    .add_host(read_host(r)?)
                    .map_err(|e| e.to_string())?;
            }
        }
        SEC_PROJECT => {
            let id = ProjectId(r.u64()?);
            if id.0 as usize != shards.len() + 1 {
                return Err(format!("project #{} out of order", id.0));
            }
            let (title, synopsis) = (r.str()?, r.str()?);
            let mut p = Project::new(id, title, synopsis, UserId(r.u64()?), read_visibility(r)?);
            p.contributors = read_u64s(r)?.into_iter().map(UserId).collect();
            for _ in 0..r.count(12)? {
                p.comments.push(Comment {
                    author: UserId(r.u64()?),
                    text: r.str()?,
                });
            }
            p.dbms_labels = read_strs(r)?;
            p.hosts = read_strs(r)?;
            p.taken_down = r.bool()?;
            shards.push(ProjectShard::new(p));
        }
        SEC_EXPERIMENT => {
            let shard = shard_mut(shards, ProjectId(r.u64()?))?;
            let id = ExperimentId(r.u64()?);
            let (title, baseline_sql) = (r.str()?, r.str()?);
            let grammar = Grammar::parse(&r.str()?).map_err(|e| format!("grammar: {e}"))?;
            let (template_cap, pool_cap) = (r.u64()? as usize, r.u64()? as usize);
            shard
                .project
                .restore_experiment(
                    id,
                    &title,
                    &baseline_sql,
                    grammar,
                    template_cap,
                    pool_cap,
                    r.opt_str()?,
                )
                .map_err(|e| e.to_string())?;
        }
        SEC_POOL => {
            let n = r.count(MIN_POOL_ENTRY_BYTES)?;
            let shard = shard_mut(shards, ProjectId(r.u64()?))?;
            let exp = ExperimentId(r.u64()?);
            let pool = &mut shard
                .project
                .experiment_mut(exp)
                .map_err(|e| e.to_string())?
                .pool;
            for _ in 0..n {
                pool.restore_entry(read_pool_entry(r)?)?;
            }
        }
        SEC_TASKS => {
            for _ in 0..r.count(MIN_TASK_BYTES)? {
                let task = read_task(r)?;
                shard_mut(shards, task.project)?.queue.restore_task(task)?;
            }
        }
        SEC_RESULTS => {
            for record in read_records(r)? {
                shard_mut(shards, ProjectId(record.project))?
                    .results
                    .push(record);
            }
        }
        other => return Err(format!("unknown section kind {other}")),
    }
    Ok(())
}

fn shard_mut(shards: &mut [ProjectShard], id: ProjectId) -> D<&mut ProjectShard> {
    if id.0 == 0 {
        return Err("project id 0".into());
    }
    shards
        .get_mut((id.0 - 1) as usize)
        .ok_or_else(|| format!("item for unknown project #{}", id.0))
}

/// One section kind's share of a snapshot file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionSummary {
    pub kind: &'static str,
    pub sections: u64,
    /// Items in those sections (1 per non-block section).
    pub items: u64,
    /// Bytes of those sections, headers included.
    pub bytes: u64,
}

/// Per-kind section, item and byte counts of a snapshot file, in order
/// of first appearance. Verifies every checksum and the end marker.
pub fn snapshot_sections(path: &Path) -> io::Result<Vec<SectionSummary>> {
    let mut out: Vec<SectionSummary> = Vec::new();
    let mut sections = SectionReader::open(path)?;
    while let Some((kind, body)) = sections.next()? {
        let (name, block) =
            section_kind(kind).ok_or_else(|| corrupt(format!("unknown section kind {kind}")))?;
        let items = if block {
            u64::from(R::new(body).u32().map_err(corrupt)?)
        } else {
            1
        };
        let bytes = (SECTION_HEADER_LEN + body.len()) as u64;
        match out.iter_mut().find(|s| s.kind == name) {
            Some(s) => {
                s.sections += 1;
                s.items += items;
                s.bytes += bytes;
            }
            None => out.push(SectionSummary {
                kind: name,
                sections: 1,
                items,
                bytes,
            }),
        }
    }
    Ok(out)
}

/// A whole-state integrity fingerprint: the FNV-1a of every section a
/// snapshot of the state would hold. Tests compare a recovered state
/// against the original with it.
pub fn state_fingerprint(global: &GlobalShard, shards: &[&ProjectShard]) -> u64 {
    let mut h = fnv64(&[]);
    encode_state(global, shards, |kind, body| {
        h = fnv64_from(fnv64_from(h, &[kind]), body);
        Ok(())
    })
    .expect("hashing cannot fail");
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalogs, Visibility};
    use crate::user::UserRegistry;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqalpel-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn populated() -> (GlobalShard, Vec<ProjectShard>) {
        let mut users = UserRegistry::new();
        let owner = users.register("mlk", "mlk@cwi.nl").unwrap();
        let worker = users.register("pk", "pk@cwi.nl").unwrap();
        let key = users.issue_key(worker).unwrap();

        let mut project = Project::new(
            ProjectId(1),
            "nation-study",
            "TPC-H nation walk",
            owner,
            Visibility::Public,
        );
        project.invite(owner, worker).unwrap();
        project.dbms_labels.push("rowstore-2.0".into());
        project.hosts.push("bench-server".into());
        project
            .add_experiment(
                owner,
                "nation",
                "select count(*) from nation where n_name = 'BRAZIL'",
                None,
                1000,
                100,
            )
            .unwrap();
        let exp = &mut project.experiments[0];
        exp.pool.seed_baseline().unwrap();
        let mut rng = sqalpel_grammar::seeded_rng(42);
        exp.pool.add_random(4, &mut rng).unwrap();

        let mut shard = ProjectShard::new(project);
        for entry in shard.project.experiments[0].pool.entries().to_vec() {
            for dbms in ["rowstore-2.0", "colstore-5.1"] {
                shard
                    .queue
                    .enqueue(
                        ProjectId(1),
                        ExperimentId(0),
                        entry.id,
                        entry.sql.clone(),
                        dbms,
                        "bench-server",
                    )
                    .unwrap();
            }
        }
        let task = shard
            .queue
            .checkout(&key, "rowstore-2.0", "bench-server")
            .unwrap();
        shard.queue.complete(task.id, &key, None).unwrap();
        shard
            .queue
            .checkout(&key, "colstore-5.1", "bench-server")
            .unwrap();
        (
            GlobalShard {
                users,
                catalogs: Catalogs::bootstrap(),
            },
            vec![shard],
        )
    }

    #[test]
    fn snapshot_round_trips_full_state() {
        let dir = tmp_dir("roundtrip");
        let (global, shards) = populated();
        let refs: Vec<&ProjectShard> = shards.iter().collect();
        let path = write_snapshot(&dir, 7, &global, &refs).unwrap();
        assert_eq!(latest_snapshot(&dir).unwrap().unwrap(), (path.clone(), 7));

        let (g2, s2) = read_snapshot(&path).unwrap();
        assert_eq!(g2.users.len(), global.users.len());
        assert_eq!(g2.users.key_counter(), global.users.key_counter());
        assert_eq!(
            g2.catalogs.dbms_entries().len(),
            global.catalogs.dbms_entries().len()
        );
        assert_eq!(s2.len(), 1);
        let (a, b) = (&shards[0], &s2[0]);
        assert_eq!(b.project.title, a.project.title);
        assert_eq!(b.project.contributors, a.project.contributors);
        assert_eq!(
            b.project.experiments[0].pool.len(),
            a.project.experiments[0].pool.len()
        );
        assert_eq!(b.queue.summary(), a.queue.summary());
        assert_eq!(b.queue.id_base(), a.queue.id_base());
        assert_eq!(b.results.len(), a.results.len());
        assert_eq!(
            state_fingerprint(&g2, &s2.iter().collect::<Vec<_>>()),
            state_fingerprint(&global, &refs)
        );
        let kinds: Vec<&str> = snapshot_sections(&path)
            .unwrap()
            .iter()
            .map(|s| s.kind)
            .collect();
        assert_eq!(
            kinds,
            [
                "users",
                "keys",
                "key_counter",
                "dbms",
                "hosts",
                "project",
                "experiment",
                "pool",
                "tasks"
            ]
        );

        // A newer snapshot wins; pruning removes the older one.
        let path2 = write_snapshot(&dir, 9, &global, &refs).unwrap();
        assert_eq!(latest_snapshot(&dir).unwrap().unwrap().1, 9);
        prune_older(&dir, 9).unwrap();
        assert!(!path.exists());
        assert!(path2.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_or_flipped_snapshot_is_rejected() {
        let dir = tmp_dir("truncated");
        let (global, shards) = populated();
        let refs: Vec<&ProjectShard> = shards.iter().collect();
        let path = write_snapshot(&dir, 1, &global, &refs).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Drop the end marker.
        std::fs::write(&path, &bytes[..bytes.len() - SECTION_HEADER_LEN - 8]).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(err.to_string().contains("end marker"), "{err}");
        // Flip one byte anywhere: the file refuses to load.
        for at in (0..bytes.len()).step_by(7) {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x10;
            std::fs::write(&path, &flipped).unwrap();
            let err = read_snapshot(&path).map(|_| ()).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "flip at {at}: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_snapshots_are_refused() {
        let dir = tmp_dir("json");
        std::fs::write(dir.join("snapshot-00000000000000000003.jsonl"), "{}\n").unwrap();
        let err = latest_snapshot(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("format version 3"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_has_no_snapshot() {
        let dir = tmp_dir("empty");
        assert!(latest_snapshot(&dir).unwrap().is_none());
        assert!(latest_snapshot(Path::new("/nonexistent-state-dir"))
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
