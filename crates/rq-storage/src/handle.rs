//! Opening, appending to, and compacting a store directory.
//!
//! A store is a directory holding exactly two files:
//!
//! * `snapshot.rqs` — the checksummed, sharded snapshot ([`crate::format`]);
//! * `deltas.rqlog` — the append-only edge-delta log ([`crate::log`]).
//!
//! Snapshot writes are atomic: the image is written to `snapshot.rqs.tmp`,
//! fsync'd, renamed over `snapshot.rqs`, and the directory is fsync'd so
//! the rename itself is durable. Compaction writes the new snapshot
//! *before* truncating the log; a crash between the two leaves a snapshot
//! that already contains the logged deltas plus a log that still holds
//! them — harmless, because replay is idempotent.

use crate::{format, log, metrics, StorageConfig, StorageError};
use rq_graph::{Delta, GraphDb};
use rq_metrics::span;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

const SNAPSHOT: &str = "snapshot.rqs";
const SNAPSHOT_TMP: &str = "snapshot.rqs.tmp";
const LOG: &str = "deltas.rqlog";

/// What [`StorageHandle::open`] found and did.
#[derive(Debug, Clone, Copy)]
pub struct OpenReport {
    /// Nodes in the loaded graph (after replay).
    pub nodes: usize,
    /// Distinct labeled edges in the loaded graph (after replay).
    pub edges: usize,
    /// Shards the snapshot was split into.
    pub shards: u32,
    /// Graph epoch recorded in the snapshot superblock.
    pub snapshot_epoch: u64,
    /// Log records replayed over the snapshot.
    pub replayed: u64,
    /// Replayed records that actually changed the graph (the rest were
    /// idempotent re-applies).
    pub applied: u64,
    /// Whether a torn, never-acknowledged log tail was truncated away.
    pub torn_tail_dropped: bool,
    /// Wall time of the whole open (read + decode + replay), microseconds.
    pub open_us: u64,
}

/// An open store: the durable twin of an in-memory [`GraphDb`].
///
/// The handle owns the log file descriptor. It deliberately does *not*
/// own the `GraphDb` — the engine keeps the in-memory graph, and callers
/// sequence `append` (durability) before in-memory application, so an
/// acknowledged delta is always on disk before any query can observe it.
pub struct StorageHandle {
    dir: PathBuf,
    config: StorageConfig,
    log_file: File,
    log_records: u64,
    epoch: u64,
}

impl std::fmt::Debug for StorageHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageHandle")
            .field("dir", &self.dir)
            .field("log_records", &self.log_records)
            .field("epoch", &self.epoch)
            .finish()
    }
}

fn fsync_dir(dir: &Path) -> Result<(), StorageError> {
    let d = File::open(dir).map_err(|e| StorageError::io(dir, "open dir", e))?;
    d.sync_all()
        .map_err(|e| StorageError::io(dir, "fsync dir", e))
}

fn write_snapshot_atomic(
    dir: &Path,
    db: &GraphDb,
    config: &StorageConfig,
    epoch: u64,
) -> Result<u64, StorageError> {
    let tmp = dir.join(SNAPSHOT_TMP);
    let dst = dir.join(SNAPSHOT);
    let image = format::encode(db, config, epoch);
    let mut f = File::create(&tmp).map_err(|e| StorageError::io(&tmp, "create", e))?;
    f.write_all(&image)
        .map_err(|e| StorageError::io(&tmp, "write", e))?;
    f.sync_all()
        .map_err(|e| StorageError::io(&tmp, "fsync", e))?;
    drop(f);
    fs::rename(&tmp, &dst).map_err(|e| StorageError::io(&dst, "rename", e))?;
    fsync_dir(dir)?;
    metrics::snapshot_bytes().set(image.len() as u64);
    Ok(image.len() as u64)
}

impl StorageHandle {
    /// Create (or overwrite) a store at `dir` from an in-memory database:
    /// an atomic snapshot plus an empty log.
    pub fn create(
        dir: &Path,
        db: &GraphDb,
        config: StorageConfig,
    ) -> Result<StorageHandle, StorageError> {
        fs::create_dir_all(dir).map_err(|e| StorageError::io(dir, "create dir", e))?;
        write_snapshot_atomic(dir, db, &config, 0)?;
        let log_path = dir.join(LOG);
        let mut log_file =
            File::create(&log_path).map_err(|e| StorageError::io(&log_path, "create", e))?;
        log_file
            .write_all(log::MAGIC)
            .map_err(|e| StorageError::io(&log_path, "write", e))?;
        log_file
            .sync_all()
            .map_err(|e| StorageError::io(&log_path, "fsync", e))?;
        fsync_dir(dir)?;
        metrics::log_records().set(0);
        Ok(StorageHandle {
            dir: dir.to_owned(),
            config,
            log_file,
            log_records: 0,
            epoch: 0,
        })
    }

    /// Open the store at `dir`: block-load the snapshot (verifying every
    /// checksum, decoding shards in parallel), replay the delta log over
    /// it, and return the handle, the loaded database, and a report.
    pub fn open(
        dir: &Path,
        config: StorageConfig,
    ) -> Result<(StorageHandle, GraphDb, OpenReport), StorageError> {
        let start = Instant::now();
        let mut open_span = span::start("storage.open");

        let snap_path = dir.join(SNAPSHOT);
        let mut bytes = Vec::new();
        File::open(&snap_path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| StorageError::io(&snap_path, "read", e))?;
        let (mut db, info) = format::decode(&bytes, &snap_path)?;
        metrics::snapshot_bytes().set(info.bytes);

        // Replay the log.
        let mut replay_span = span::start("storage.replay");
        let log_path = dir.join(LOG);
        let mut log_bytes = Vec::new();
        File::open(&log_path)
            .and_then(|mut f| f.read_to_end(&mut log_bytes))
            .map_err(|e| StorageError::io(&log_path, "read", e))?;
        let scan = log::scan(&log_bytes, &log_path, &config)?;
        let replayed = scan.deltas.len() as u64;
        let mut applied = 0u64;
        for d in &scan.deltas {
            if db.apply_delta(d) {
                applied += 1;
            }
        }
        metrics::replay_records().add(replayed);
        if replay_span.active() {
            replay_span.record("records", replayed);
            replay_span.record("applied", applied);
            replay_span.record("torn", scan.torn);
        }
        drop(replay_span);

        // Truncate a torn (never-acknowledged) tail so the next append
        // starts from a clean frame boundary.
        let mut log_file = OpenOptions::new()
            .write(true)
            .open(&log_path)
            .map_err(|e| StorageError::io(&log_path, "open", e))?;
        if scan.torn {
            log_file
                .set_len(scan.valid_len)
                .map_err(|e| StorageError::io(&log_path, "truncate", e))?;
            log_file
                .sync_all()
                .map_err(|e| StorageError::io(&log_path, "fsync", e))?;
            metrics::replay_dropped().inc();
        }
        log_file
            .seek(SeekFrom::Start(scan.valid_len))
            .map_err(|e| StorageError::io(&log_path, "seek", e))?;
        metrics::log_records().set(replayed);

        let open_us = start.elapsed().as_micros() as u64;
        metrics::open_us().observe(open_us);
        if open_span.active() {
            open_span.record("nodes", db.num_nodes());
            open_span.record("edges", db.num_edges());
            open_span.record("shards", info.shards);
            open_span.record("replayed", replayed);
            open_span.record("us", open_us);
        }

        let report = OpenReport {
            nodes: db.num_nodes(),
            edges: db.num_edges(),
            shards: info.shards,
            snapshot_epoch: info.epoch,
            replayed,
            applied,
            torn_tail_dropped: scan.torn,
            open_us,
        };
        let handle = StorageHandle {
            dir: dir.to_owned(),
            config,
            log_file,
            log_records: replayed,
            epoch: info.epoch + applied,
        };
        Ok((handle, db, report))
    }

    /// Durably append a batch of deltas. When this returns `Ok`, every
    /// delta in the batch is acknowledged: the bytes are fsync'd and will
    /// be replayed by any future [`StorageHandle::open`], crash or not.
    pub fn append(&mut self, deltas: &[Delta]) -> Result<(), StorageError> {
        if deltas.is_empty() {
            return Ok(());
        }
        let mut span = span::start("storage.append");
        let mut buf = Vec::new();
        for d in deltas {
            buf.extend_from_slice(&log::encode_record(d));
        }
        let log_path = self.dir.join(LOG);
        self.log_file
            .write_all(&buf)
            .map_err(|e| StorageError::io(&log_path, "write", e))?;
        self.log_file
            .sync_data()
            .map_err(|e| StorageError::io(&log_path, "fsync", e))?;
        self.log_records += deltas.len() as u64;
        self.epoch += deltas.len() as u64;
        metrics::appends().add(deltas.len() as u64);
        metrics::log_records().set(self.log_records);
        if span.active() {
            span.record("records", deltas.len());
            span.record("bytes", buf.len());
        }
        Ok(())
    }

    /// Whether the log has grown past the configured compaction threshold.
    pub fn needs_compaction(&self) -> bool {
        self.log_records >= self.config.compact_threshold
    }

    /// Records currently in the log.
    pub fn log_records(&self) -> u64 {
        self.log_records
    }

    /// The store's epoch: the snapshot's epoch plus every acknowledged
    /// delta since. Persisted into the superblock on compaction.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Fold the log into a fresh snapshot of `db` (which must already
    /// reflect every acknowledged delta — the caller keeps the in-memory
    /// graph current) and truncate the log.
    ///
    /// Crash-safe: the snapshot rename lands before the log truncation,
    /// and replaying an already-folded log over the new snapshot is a
    /// no-op by idempotency.
    pub fn compact(&mut self, db: &GraphDb) -> Result<(), StorageError> {
        let mut span = span::start("storage.compact");
        let folded = self.log_records;
        write_snapshot_atomic(&self.dir, db, &self.config, self.epoch)?;
        let log_path = self.dir.join(LOG);
        self.log_file
            .set_len(log::MAGIC.len() as u64)
            .map_err(|e| StorageError::io(&log_path, "truncate", e))?;
        self.log_file
            .seek(SeekFrom::Start(log::MAGIC.len() as u64))
            .map_err(|e| StorageError::io(&log_path, "seek", e))?;
        self.log_file
            .sync_all()
            .map_err(|e| StorageError::io(&log_path, "fsync", e))?;
        self.log_records = 0;
        metrics::compactions().inc();
        metrics::log_records().set(0);
        if span.active() {
            span.record("folded_records", folded);
            span.record("epoch", self.epoch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_graph::text;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rq-storage-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_db() -> GraphDb {
        text::parse("alice knows bob\nbob knows carol\ncarol worksAt acme\nnode dave\n").unwrap()
    }

    #[test]
    fn create_open_roundtrip() {
        let dir = temp_dir("roundtrip");
        let db = sample_db();
        StorageHandle::create(&dir, &db, StorageConfig::default()).unwrap();
        let (_h, back, report) = StorageHandle::open(&dir, StorageConfig::default()).unwrap();
        assert_eq!(report.nodes, db.num_nodes());
        assert_eq!(report.edges, db.num_edges());
        assert_eq!(report.replayed, 0);
        assert_eq!(back.num_edges(), db.num_edges());
        assert!(back.find_node("dave").is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_then_reopen_replays() {
        let dir = temp_dir("append");
        let db = sample_db();
        let mut h = StorageHandle::create(&dir, &db, StorageConfig::default()).unwrap();
        h.append(&[
            Delta::add("dave", "knows", "alice"),
            Delta::remove("alice", "knows", "bob"),
        ])
        .unwrap();
        assert_eq!(h.log_records(), 2);
        drop(h);
        let (h2, back, report) = StorageHandle::open(&dir, StorageConfig::default()).unwrap();
        assert_eq!(report.replayed, 2);
        assert_eq!(report.applied, 2);
        assert_eq!(h2.log_records(), 2);
        let dave = back.find_node("dave").unwrap();
        let alice = back.find_node("alice").unwrap();
        let bob = back.find_node("bob").unwrap();
        let knows = back.alphabet().get("knows").unwrap();
        assert!(back.has_edge(dave, knows, alice));
        assert!(!back.has_edge(alice, knows, bob));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_folds_log_and_preserves_graph() {
        let dir = temp_dir("compact");
        let db = sample_db();
        let config = StorageConfig {
            compact_threshold: 2,
            ..StorageConfig::default()
        };
        let mut h = StorageHandle::create(&dir, &db, config.clone()).unwrap();
        let mut live = db.clone();
        let deltas = [
            Delta::add("dave", "knows", "alice"),
            Delta::add("erin", "knows", "dave"),
        ];
        h.append(&deltas).unwrap();
        for d in &deltas {
            live.apply_delta(d);
        }
        assert!(h.needs_compaction());
        h.compact(&live).unwrap();
        assert_eq!(h.log_records(), 0);
        assert!(!h.needs_compaction());
        // Reopen: snapshot already holds the deltas, log is empty.
        drop(h);
        let (h2, back, report) = StorageHandle::open(&dir, config).unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(report.snapshot_epoch, 2);
        assert_eq!(h2.epoch(), 2);
        assert_eq!(back.num_edges(), live.num_edges());
        assert!(back.find_node("erin").is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_after_compact_and_reopen_continues_the_log() {
        let dir = temp_dir("resume");
        let db = sample_db();
        let mut h = StorageHandle::create(&dir, &db, StorageConfig::default()).unwrap();
        let mut live = db.clone();
        h.append(&[Delta::add("x", "knows", "y")]).unwrap();
        live.apply_delta(&Delta::add("x", "knows", "y"));
        h.compact(&live).unwrap();
        h.append(&[Delta::add("y", "knows", "z")]).unwrap();
        drop(h);
        let (h2, back, report) = StorageHandle::open(&dir, StorageConfig::default()).unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(h2.epoch(), 2);
        assert!(back.find_node("z").is_some());
        assert!(back.find_node("x").is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_acknowledged_deltas_survive() {
        let dir = temp_dir("torn");
        let db = sample_db();
        let mut h = StorageHandle::create(&dir, &db, StorageConfig::default()).unwrap();
        h.append(&[Delta::add("dave", "knows", "alice")]).unwrap();
        drop(h);
        // Simulate a crash mid-append: half a record at the tail.
        let log_path = dir.join(LOG);
        let rec = log::encode_record(&Delta::add("erin", "knows", "frank"));
        let mut f = OpenOptions::new().append(true).open(&log_path).unwrap();
        f.write_all(&rec[..rec.len() - 3]).unwrap();
        drop(f);
        let (h2, back, report) = StorageHandle::open(&dir, StorageConfig::default()).unwrap();
        assert_eq!(report.replayed, 1, "acknowledged delta survives");
        assert!(report.torn_tail_dropped);
        assert!(back.find_node("erin").is_none(), "torn record not applied");
        // The truncation is physical: appending now works and reopening
        // sees both records intact.
        let mut h2 = h2;
        h2.append(&[Delta::add("gina", "knows", "dave")]).unwrap();
        drop(h2);
        let (_h3, back3, report3) = StorageHandle::open(&dir, StorageConfig::default()).unwrap();
        assert_eq!(report3.replayed, 2);
        assert!(!report3.torn_tail_dropped);
        assert!(back3.find_node("gina").is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn double_replay_is_idempotent_after_compaction_crash_window() {
        // Simulate the compaction crash window: snapshot already contains
        // the logged deltas, but the log was not truncated.
        let dir = temp_dir("crashwin");
        let db = sample_db();
        let mut h = StorageHandle::create(&dir, &db, StorageConfig::default()).unwrap();
        let mut live = db.clone();
        let deltas = [
            Delta::add("dave", "knows", "alice"),
            Delta::remove("bob", "knows", "carol"),
        ];
        h.append(&deltas).unwrap();
        for d in &deltas {
            live.apply_delta(d);
        }
        drop(h);
        // Write the new snapshot manually, leaving the stale log behind.
        write_snapshot_atomic(&dir, &live, &StorageConfig::default(), 2).unwrap();
        let (_h2, back, report) = StorageHandle::open(&dir, StorageConfig::default()).unwrap();
        assert_eq!(report.replayed, 2);
        assert_eq!(report.applied, 0, "replay over folded snapshot is a no-op");
        assert_eq!(back.num_edges(), live.num_edges());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_is_a_structured_error() {
        let dir = temp_dir("missing");
        fs::create_dir_all(&dir).unwrap();
        let err = StorageHandle::open(&dir, StorageConfig::default()).unwrap_err();
        assert!(err.to_string().starts_with("error[storage]:"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }
}
