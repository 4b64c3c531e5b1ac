//! The platform's one binary codec: little-endian primitives plus the
//! record codecs that wire v2, the WAL and snapshots all share.
//!
//! Pure — no I/O. Integers and floats are fixed-width little-endian;
//! strings are a u32 byte length followed by UTF-8; options are a
//! presence byte. The open-ended `extras` object of a run travels as
//! JSON text inside the binary — it is arbitrary user data, and JSON is
//! its documented shape.
//!
//! Every decoder sizes its allocations through [`R::count`], which
//! refuses a count the remaining input cannot hold: hostile or corrupt
//! bytes can make a decode fail, never make it reserve memory out of
//! proportion to its input.

use crate::catalog::{DbmsEntry, HostEntry, Visibility};
use crate::driver::{OperatorProfile, RunOutcome};
use crate::pool::{Origin, PoolEntry, QueryId, Strategy};
use crate::project::{ExperimentId, ProjectId};
use crate::queue::{Task, TaskId, TaskState};
use crate::results::{LoadAvg, ResultRecord};
use crate::user::ContributorKey;
use serde::{Deserialize, Serialize};
use sqalpel_grammar::Choice;
use std::borrow::Borrow;

/// Version of the on-disk formats (WAL and snapshots). Version 1 was
/// JSON text; version 2 logged a single report and a batch as two record
/// kinds that repeated each record's task, key and error. A state
/// directory in either is refused, not migrated.
pub const FORMAT_VERSION: u8 = 3;

/// An on-disk file header: a 7-byte magic, then [`FORMAT_VERSION`].
pub(crate) const fn file_header(magic: &[u8; 7]) -> [u8; 8] {
    let mut header = [FORMAT_VERSION; 8];
    let mut i = 0;
    while i < magic.len() {
        header[i] = magic[i];
        i += 1;
    }
    header
}

/// FNV-1a over a byte string — the WAL and snapshot checksum.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_from(0xcbf29ce484222325, bytes)
}

/// FNV-1a continued from a running hash `h`.
pub(crate) fn fnv64_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

// ------------------------------------------------------------- writer

/// A growable little-endian byte writer. Infallible.
#[derive(Default)]
pub(crate) struct W {
    pub buf: Vec<u8>,
}

impl W {
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn i128(&mut self, v: i128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    pub fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
            None => self.u8(0),
        }
    }
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
            None => self.u8(0),
        }
    }
    /// A presence bitmap: bit `i` set when `set(i)` is true.
    pub fn bitmap(&mut self, n: usize, set: impl Fn(usize) -> bool) {
        let mut byte = 0u8;
        for i in 0..n {
            if set(i) {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                self.buf.push(byte);
                byte = 0;
            }
        }
        if !n.is_multiple_of(8) {
            self.buf.push(byte);
        }
    }
    /// JSON-text payload for open-ended and cold values.
    pub fn json<T: Serialize>(&mut self, v: &T) {
        self.str(&serde_json::to_string(v).expect("value serializes"));
    }
}

// ------------------------------------------------------------- reader

/// A checked little-endian byte reader over one body.
pub(crate) struct R<'a> {
    b: &'a [u8],
    pos: usize,
}

pub(crate) type D<T> = Result<T, String>;

impl<'a> R<'a> {
    pub fn new(b: &'a [u8]) -> R<'a> {
        R { b, pos: 0 }
    }
    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }
    pub fn take(&mut self, n: usize) -> D<&'a [u8]> {
        if self.remaining() < n {
            return Err(format!(
                "truncated input: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn array<const N: usize>(&mut self) -> D<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }
    pub fn u8(&mut self) -> D<u8> {
        Ok(self.take(1)?[0])
    }
    pub fn bool(&mut self) -> D<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad bool byte {b}")),
        }
    }
    pub fn u32(&mut self) -> D<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    pub fn u64(&mut self) -> D<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    pub fn i32(&mut self) -> D<i32> {
        Ok(i32::from_le_bytes(self.array()?))
    }
    pub fn i64(&mut self) -> D<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }
    pub fn f64(&mut self) -> D<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }
    pub fn i128(&mut self) -> D<i128> {
        Ok(i128::from_le_bytes(self.array()?))
    }
    pub fn str(&mut self) -> D<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("non-UTF-8 string: {e}"))
    }
    pub fn opt_str(&mut self) -> D<Option<String>> {
        Ok(if self.bool()? {
            Some(self.str()?)
        } else {
            None
        })
    }
    pub fn opt_u64(&mut self) -> D<Option<u64>> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }
    /// An element count whose elements take at least `min_elem_size`
    /// bytes each: refused when the remaining input cannot hold that
    /// many, so the caller may reserve `count` elements up front.
    pub fn count(&mut self, min_elem_size: usize) -> D<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_size.max(1)) > self.remaining() {
            return Err(format!(
                "count {n} of ≥{min_elem_size}-byte elements exceeds the {} bytes left",
                self.remaining()
            ));
        }
        Ok(n)
    }
    /// The raw bytes of an `n`-bit presence bitmap; test bits with
    /// [`bit`].
    pub fn bitmap(&mut self, n: usize) -> D<&'a [u8]> {
        self.take(n.div_ceil(8))
    }
    pub fn json<T: Deserialize>(&mut self, what: &str) -> D<T> {
        let n = self.u32()? as usize;
        let text =
            std::str::from_utf8(self.take(n)?).map_err(|e| format!("non-UTF-8 {what}: {e}"))?;
        serde_json::from_str(text).map_err(|e| format!("bad {what} JSON: {e}"))
    }
    pub fn done(&self) -> D<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after payload", self.remaining()))
        }
    }
}

/// Bit `i` of a bitmap read by [`R::bitmap`].
pub(crate) fn bit(bits: &[u8], i: usize) -> bool {
    bits[i / 8] & (1 << (i % 8)) != 0
}

// ---------------------------------------------------------- small DTOs

pub(crate) fn write_strs(w: &mut W, items: &[String]) {
    w.u32(items.len() as u32);
    for s in items {
        w.str(s);
    }
}

pub(crate) fn read_strs(r: &mut R<'_>) -> D<Vec<String>> {
    let n = r.count(4)?;
    (0..n).map(|_| r.str()).collect()
}

pub(crate) fn write_u64s(w: &mut W, items: impl ExactSizeIterator<Item = u64>) {
    w.u32(items.len() as u32);
    for v in items {
        w.u64(v);
    }
}

pub(crate) fn read_u64s(r: &mut R<'_>) -> D<Vec<u64>> {
    let n = r.count(8)?;
    (0..n).map(|_| r.u64()).collect()
}

pub(crate) fn write_visibility(w: &mut W, v: Visibility) {
    w.u8(match v {
        Visibility::Public => 0,
        Visibility::Private => 1,
    });
}

pub(crate) fn read_visibility(r: &mut R<'_>) -> D<Visibility> {
    match r.u8()? {
        0 => Ok(Visibility::Public),
        1 => Ok(Visibility::Private),
        b => Err(format!("bad visibility byte {b}")),
    }
}

pub(crate) fn write_dbms(w: &mut W, e: &DbmsEntry) {
    w.str(&e.name);
    w.str(&e.version);
    w.str(&e.vendor);
    w.u32(e.settings.len() as u32);
    for (k, v) in &e.settings {
        w.str(k);
        w.str(v);
    }
    write_visibility(w, e.visibility);
}

pub(crate) fn read_dbms(r: &mut R<'_>) -> D<DbmsEntry> {
    let (name, version, vendor) = (r.str()?, r.str()?, r.str()?);
    let n = r.count(8)?;
    let settings = (0..n).map(|_| Ok((r.str()?, r.str()?))).collect::<D<_>>()?;
    Ok(DbmsEntry {
        name,
        version,
        vendor,
        settings,
        visibility: read_visibility(r)?,
    })
}

pub(crate) fn write_host(w: &mut W, e: &HostEntry) {
    w.str(&e.name);
    w.str(&e.cpu);
    w.u32(e.cores);
    w.u32(e.ram_gb);
    w.str(&e.os);
    write_visibility(w, e.visibility);
}

pub(crate) fn read_host(r: &mut R<'_>) -> D<HostEntry> {
    Ok(HostEntry {
        name: r.str()?,
        cpu: r.str()?,
        cores: r.u32()?,
        ram_gb: r.u32()?,
        os: r.str()?,
        visibility: read_visibility(r)?,
    })
}

// --------------------------------------------------------------- tasks

/// Smallest encoded task: four ids, three empty strings, a state byte.
pub(crate) const MIN_TASK_BYTES: usize = 4 * 8 + 3 * 4 + 1;

pub(crate) fn write_task(w: &mut W, t: &Task) {
    w.u64(t.id.0);
    w.u64(t.project.0);
    w.u64(t.experiment.0);
    w.u64(t.query.0);
    w.str(&t.sql);
    w.str(&t.dbms_label);
    w.str(&t.host);
    match &t.state {
        TaskState::Queued => w.u8(0),
        TaskState::Running { contributor } => {
            w.u8(1);
            w.str(&contributor.0);
        }
        TaskState::Done => w.u8(2),
        TaskState::Failed(e) => {
            w.u8(3);
            w.str(e);
        }
        TaskState::TimedOut => w.u8(4),
    }
}

pub(crate) fn read_task(r: &mut R<'_>) -> D<Task> {
    Ok(Task {
        id: TaskId(r.u64()?),
        project: ProjectId(r.u64()?),
        experiment: ExperimentId(r.u64()?),
        query: QueryId(r.u64()?),
        sql: r.str()?,
        dbms_label: r.str()?,
        host: r.str()?,
        state: match r.u8()? {
            0 => TaskState::Queued,
            1 => TaskState::Running {
                contributor: ContributorKey(r.str()?),
            },
            2 => TaskState::Done,
            3 => TaskState::Failed(r.str()?),
            4 => TaskState::TimedOut,
            b => return Err(format!("bad task state byte {b}")),
        },
        // The hand-out time is server-side only, never encoded.
        started: None,
    })
}

// ---------------------------------------------------------- pool entries

/// Smallest encoded pool entry: id, empty SQL, template, no choice
/// classes, an origin byte, step and the fingerprint flag.
pub(crate) const MIN_POOL_ENTRY_BYTES: usize = 8 + 4 + 8 + 4 + 1 + 8 + 1;

pub(crate) fn write_pool_entry(w: &mut W, e: &PoolEntry) {
    w.u64(e.id.0);
    w.str(&e.sql);
    w.u64(e.template as u64);
    w.u32(e.choice.len() as u32);
    for (class, idxs) in &e.choice {
        w.str(class);
        write_u64s(w, idxs.iter().map(|&i| i as u64));
    }
    match e.origin {
        Origin::Baseline => w.u8(0),
        Origin::Random => w.u8(1),
        Origin::Morph { strategy, parent } => {
            w.u8(match strategy {
                Strategy::Alter => 2,
                Strategy::Expand => 3,
                Strategy::Prune => 4,
            });
            w.u64(parent.0);
        }
    }
    w.u64(e.step as u64);
    w.opt_u64(e.fingerprint);
}

pub(crate) fn read_pool_entry(r: &mut R<'_>) -> D<PoolEntry> {
    let id = QueryId(r.u64()?);
    let sql = r.str()?;
    let template = r.u64()? as usize;
    let classes = r.count(8)?;
    let mut choice = Choice::new();
    for _ in 0..classes {
        let class = r.str()?;
        let idxs = read_u64s(r)?.into_iter().map(|i| i as usize).collect();
        choice.insert(class, idxs);
    }
    let origin = match r.u8()? {
        0 => Origin::Baseline,
        1 => Origin::Random,
        b @ 2..=4 => Origin::Morph {
            strategy: [Strategy::Alter, Strategy::Expand, Strategy::Prune][(b - 2) as usize],
            parent: QueryId(r.u64()?),
        },
        b => return Err(format!("bad pool origin byte {b}")),
    };
    Ok(PoolEntry {
        id,
        sql,
        template,
        choice,
        origin,
        step: r.u64()? as usize,
        fingerprint: r.opt_u64()?,
    })
}

// ------------------------------------------------------- run outcomes

/// Smallest encoded operator profile row: an empty label and six u64s.
const MIN_PROFILE_BYTES: usize = 4 + 6 * 8;

/// Smallest encoded run outcome: time count, rows, error flag, two load
/// triples, an extras string, fingerprint and profile flags.
const MIN_OUTCOME_BYTES: usize = 4 + 8 + 1 + 6 * 8 + 4 + 1 + 1;

fn write_profile(w: &mut W, ops: &[OperatorProfile]) {
    w.u32(ops.len() as u32);
    for op in ops {
        w.str(&op.op);
        w.u64(op.rows_in);
        w.u64(op.rows_out);
        w.u64(op.batches);
        w.u64(op.nanos);
        w.u64(op.chunks_scanned);
        w.u64(op.chunks_skipped);
    }
}

fn read_profile(r: &mut R<'_>) -> D<Vec<OperatorProfile>> {
    let n = r.count(MIN_PROFILE_BYTES)?;
    (0..n)
        .map(|_| {
            Ok(OperatorProfile {
                op: r.str()?,
                rows_in: r.u64()?,
                rows_out: r.u64()?,
                batches: r.u64()?,
                nanos: r.u64()?,
                chunks_scanned: r.u64()?,
                chunks_skipped: r.u64()?,
            })
        })
        .collect()
}

fn write_load(w: &mut W, l: &LoadAvg) {
    w.f64(l.one);
    w.f64(l.five);
    w.f64(l.fifteen);
}

fn read_load(r: &mut R<'_>) -> D<LoadAvg> {
    Ok(LoadAvg {
        one: r.f64()?,
        five: r.f64()?,
        fifteen: r.f64()?,
    })
}

pub(crate) fn write_outcome(w: &mut W, o: &RunOutcome) {
    w.u32(o.times_ms.len() as u32);
    for t in &o.times_ms {
        w.f64(*t);
    }
    w.u64(o.rows as u64);
    w.opt_str(o.error.as_deref());
    write_load(w, &o.load_before);
    write_load(w, &o.load_after);
    w.json(&o.extras);
    w.opt_u64(o.fingerprint);
    match &o.profile {
        Some(ops) => {
            w.u8(1);
            write_profile(w, ops);
        }
        None => w.u8(0),
    }
}

pub(crate) fn read_outcome(r: &mut R<'_>) -> D<RunOutcome> {
    let n = r.count(8)?;
    let times_ms = (0..n).map(|_| r.f64()).collect::<D<_>>()?;
    Ok(RunOutcome {
        times_ms,
        rows: r.u64()? as usize,
        error: r.opt_str()?,
        load_before: read_load(r)?,
        load_after: read_load(r)?,
        extras: r.json("extras")?,
        fingerprint: r.opt_u64()?,
        profile: if r.bool()? {
            Some(read_profile(r)?)
        } else {
            None
        },
    })
}

/// Columnar `(task, outcome)` pairs: `[count][task ids][outcomes]` — the
/// fixed-width task-id vector packs densely up front, the variable-width
/// outcomes follow.
pub(crate) fn write_report_pairs(w: &mut W, pairs: &[(TaskId, RunOutcome)]) {
    write_u64s(w, pairs.iter().map(|(task, _)| task.0));
    for (_, outcome) in pairs {
        write_outcome(w, outcome);
    }
}

pub(crate) fn read_report_pairs(r: &mut R<'_>) -> D<Vec<(TaskId, RunOutcome)>> {
    let n = r.count(8 + MIN_OUTCOME_BYTES)?;
    let tasks: Vec<u64> = (0..n).map(|_| r.u64()).collect::<D<_>>()?;
    tasks
        .into_iter()
        .map(|task| Ok((TaskId(task), read_outcome(r)?)))
        .collect()
}

// --------------------------------------------------- columnar records

/// Smallest encoded result record: four ids, three strings, a time
/// count, rows, two load triples and an extras string (the four
/// presence bitmaps round down to nothing per record).
const MIN_RECORD_BYTES: usize = 4 * 8 + 3 * 4 + 4 + 8 + 6 * 8 + 4;

/// Result records as per-field columns: all the `task` ids, then all the
/// `project` ids, … so the repetitive numeric fields pack densely and
/// the per-record framing disappears.
pub(crate) fn write_records<T: Borrow<ResultRecord>>(w: &mut W, records: &[T]) {
    let n = records.len();
    let recs = || records.iter().map(Borrow::borrow);
    w.u32(n as u32);
    for rec in recs() {
        w.u64(rec.task);
    }
    for rec in recs() {
        w.u64(rec.project);
    }
    for rec in recs() {
        w.u64(rec.experiment);
    }
    for rec in recs() {
        w.u64(rec.query);
    }
    for rec in recs() {
        w.str(&rec.dbms_label);
    }
    for rec in recs() {
        w.str(&rec.host);
    }
    for rec in recs() {
        w.str(&rec.contributor);
    }
    // times_ms: per-record counts, then one flat f64 vector.
    for rec in recs() {
        w.u32(rec.times_ms.len() as u32);
    }
    for rec in recs() {
        for t in &rec.times_ms {
            w.f64(*t);
        }
    }
    for rec in recs() {
        w.u64(rec.rows as u64);
    }
    let rec = |i: usize| records[i].borrow();
    w.bitmap(n, |i| rec(i).error.is_some());
    for rec in recs() {
        if let Some(e) = &rec.error {
            w.str(e);
        }
    }
    for rec in recs() {
        write_load(w, &rec.load_before);
        write_load(w, &rec.load_after);
    }
    for rec in recs() {
        w.json(&rec.extras);
    }
    w.bitmap(n, |i| rec(i).hidden);
    w.bitmap(n, |i| rec(i).fingerprint.is_some());
    for rec in recs() {
        if let Some(fp) = rec.fingerprint {
            w.u64(fp);
        }
    }
    w.bitmap(n, |i| rec(i).profile.is_some());
    for rec in recs() {
        if let Some(ops) = &rec.profile {
            write_profile(w, ops);
        }
    }
}

/// Decode a columnar block straight into its records: the first column
/// creates them, every later column fills its field in place, so no
/// per-column vector is built and nothing is copied twice.
pub(crate) fn read_records(r: &mut R<'_>) -> D<Vec<ResultRecord>> {
    let n = r.count(MIN_RECORD_BYTES)?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        records.push(ResultRecord {
            task: r.u64()?,
            project: 0,
            experiment: 0,
            query: 0,
            dbms_label: String::new(),
            host: String::new(),
            contributor: String::new(),
            times_ms: Vec::new(),
            rows: 0,
            error: None,
            load_before: LoadAvg::default(),
            load_after: LoadAvg::default(),
            extras: serde_json::Value::Null,
            hidden: false,
            fingerprint: None,
            profile: None,
        });
    }
    for rec in &mut records {
        rec.project = r.u64()?;
    }
    for rec in &mut records {
        rec.experiment = r.u64()?;
    }
    for rec in &mut records {
        rec.query = r.u64()?;
    }
    for rec in &mut records {
        rec.dbms_label = r.str()?;
    }
    for rec in &mut records {
        rec.host = r.str()?;
    }
    for rec in &mut records {
        rec.contributor = r.str()?;
    }
    let lens: Vec<usize> = (0..n).map(|_| Ok(r.u32()? as usize)).collect::<D<_>>()?;
    let total = lens.iter().try_fold(0usize, |acc, &l| acc.checked_add(l));
    if total.is_none_or(|t| t.saturating_mul(8) > r.remaining()) {
        return Err("time counts exceed the bytes left".into());
    }
    for (rec, len) in records.iter_mut().zip(lens) {
        rec.times_ms = (0..len).map(|_| r.f64()).collect::<D<_>>()?;
    }
    for rec in &mut records {
        rec.rows = r.u64()? as usize;
    }
    let has_error = r.bitmap(n)?;
    for (i, rec) in records.iter_mut().enumerate() {
        if bit(has_error, i) {
            rec.error = Some(r.str()?);
        }
    }
    for rec in &mut records {
        rec.load_before = read_load(r)?;
        rec.load_after = read_load(r)?;
    }
    for rec in &mut records {
        rec.extras = r.json("extras")?;
    }
    let hidden = r.bitmap(n)?;
    let has_fp = r.bitmap(n)?;
    for (i, rec) in records.iter_mut().enumerate() {
        rec.hidden = bit(hidden, i);
        if bit(has_fp, i) {
            rec.fingerprint = Some(r.u64()?);
        }
    }
    let has_profile = r.bitmap(n)?;
    for (i, rec) in records.iter_mut().enumerate() {
        if bit(has_profile, i) {
            rec.profile = Some(read_profile(r)?);
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_refuses_what_the_input_cannot_hold() {
        // 4M pairs claimed by a 12-byte body: refused before any reserve.
        let mut w = W::default();
        w.u32(4 << 20);
        w.u64(0);
        assert!(read_report_pairs(&mut R::new(&w.buf)).is_err());
        // A record block claiming 4M records in a handful of bytes.
        let mut w = W::default();
        w.u32(4 << 20);
        w.u32(0);
        assert!(read_records(&mut R::new(&w.buf)).is_err());
        // Counts the input can hold pass.
        let mut w = W::default();
        write_u64s(&mut w, [1u64, 2, 3].into_iter());
        assert_eq!(read_u64s(&mut R::new(&w.buf)).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn pool_entries_round_trip_every_origin() {
        let mut choice = Choice::new();
        choice.insert("$a".into(), vec![0, 3]);
        for origin in [
            Origin::Baseline,
            Origin::Random,
            Origin::Morph {
                strategy: Strategy::Alter,
                parent: QueryId(1),
            },
            Origin::Morph {
                strategy: Strategy::Expand,
                parent: QueryId(2),
            },
            Origin::Morph {
                strategy: Strategy::Prune,
                parent: QueryId(3),
            },
        ] {
            let entry = PoolEntry {
                id: QueryId(4),
                sql: "select 1 from t".into(),
                template: 2,
                choice: choice.clone(),
                origin,
                step: 9,
                fingerprint: Some(u64::MAX),
            };
            let mut w = W::default();
            write_pool_entry(&mut w, &entry);
            let mut r = R::new(&w.buf);
            let back = read_pool_entry(&mut r).unwrap();
            r.done().unwrap();
            assert_eq!(format!("{back:?}"), format!("{entry:?}"));
        }
    }
}
