//! Durability for the platform state: write-ahead record log, periodic
//! snapshots, boot-time recovery.
//!
//! The contract: **once an operation is acknowledged, it survives a
//! crash.** The server logs a typed [`WalRecord`] for every mutation
//! *before* releasing the lock that made it (so WAL order equals
//! mutation order per lock domain), written to the OS per record. A
//! report call logs one [`WalRecord::ReportsAccepted`] frame per shard
//! it touches (a single report is a batch of one); a bulk upload's
//! reports thus group-commit — one append, one write, one checksum — so
//! the batch is acknowledged, and replays, atomically.
//! Snapshots bound replay time; the WAL is truncated when one lands.
//! Records carry their LSN, so on boot [`recover`] loads the newest
//! snapshot and replays only records past its LSN — a crash between the
//! snapshot rename and the truncation leaves a stale prefix that is
//! skipped, not double-applied. A torn final record — the crash
//! interrupted an append whose operation was never acknowledged — is
//! discarded, which is precisely the at-least-acknowledged, at-most-once
//! semantics the wire protocol's idempotent retries expect.
//!
//! The WAL and snapshots are binary, in the [`crate::codec`] wire v2
//! speaks, behind a format version byte ([`crate::codec::FORMAT_VERSION`],
//! 3); see [`wal`] and [`snapshot`] for the layouts. A state directory
//! written in another format (1: JSON text; 2: separate single and batch
//! report records) is refused at open and left as it was, never read as
//! empty or cut as a torn tail.

pub mod recovery;
pub mod snapshot;
pub mod wal;

pub use recovery::{recover, RecoveredState};
pub use snapshot::{
    latest_snapshot, read_snapshot, snapshot_sections, state_fingerprint, write_snapshot,
};
pub use wal::{parse_wal, read_wal, WalRecord, WalWriter, WAL_FILE};

use crate::shard::{GlobalShard, ProjectShard};
use parking_lot::Mutex;
use std::io;
use std::path::{Path, PathBuf};

/// Handle to a state directory: the open WAL plus snapshot plumbing.
pub struct Durability {
    dir: PathBuf,
    wal: Mutex<WalWriter>,
}

impl Durability {
    /// Open a state directory: recover whatever is there, then position
    /// the WAL for appending. Creates the directory if needed.
    pub fn open(dir: &Path) -> io::Result<(Durability, RecoveredState)> {
        std::fs::create_dir_all(dir)?;
        let recovered = recover(dir)?;
        let mut wal = WalWriter::open(dir, recovered.next_lsn)?;
        wal.truncate_to(recovered.wal_intact_len)?;
        Ok((
            Durability {
                dir: dir.to_path_buf(),
                wal: Mutex::new(wal),
            },
            recovered,
        ))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append one record, written to the OS. Returns the frame's byte
    /// length. The caller must hold the lock of the state it mutated.
    pub fn log(&self, record: &WalRecord) -> io::Result<u64> {
        self.wal.lock().append(record)
    }

    /// Current record sequence number.
    pub fn lsn(&self) -> u64 {
        self.wal.lock().lsn()
    }

    /// Write a snapshot of the given state and truncate the WAL behind
    /// it. The caller must hold **all** platform locks (global, shard
    /// map, every shard) so the state cannot move between the snapshot
    /// and the truncation.
    pub fn snapshot(&self, global: &GlobalShard, shards: &[&ProjectShard]) -> io::Result<u64> {
        let mut wal = self.wal.lock();
        let lsn = wal.lsn();
        write_snapshot(&self.dir, lsn, global, shards)?;
        wal.reset_after_snapshot()?;
        snapshot::prune_older(&self.dir, lsn)?;
        Ok(lsn)
    }

    /// Fsync the WAL without truncating (graceful shutdown).
    pub fn sync(&self) -> io::Result<()> {
        self.wal.lock().sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqalpel-durability-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A format-1 directory — JSON-lines snapshot, text-framed WAL — must
    /// not open as an empty platform: that would drop acked results.
    #[test]
    fn open_refuses_format_one_state_dirs() {
        let dir = tmp_dir("old-snapshot");
        std::fs::write(dir.join("snapshot-00000000000000000012.jsonl"), "{\"t\":\"end\"}\n").unwrap();
        std::fs::write(dir.join(WAL_FILE), "").unwrap();
        let err = Durability::open(&dir).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("format version 3"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();

        let dir = tmp_dir("old-wal");
        let line = "1 2 000000000000abcd {}\n";
        std::fs::write(dir.join(WAL_FILE), line).unwrap();
        let err = Durability::open(&dir).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("format version 3"), "{err}");
        // The refused log is left exactly as it was.
        assert_eq!(std::fs::read_to_string(dir.join(WAL_FILE)).unwrap(), line);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
