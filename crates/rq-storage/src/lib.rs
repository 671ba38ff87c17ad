//! # rq-storage
//!
//! Persistent, sharded storage for [`rq_graph::GraphDb`].
//!
//! Every layer above this one — the governed engine, the semantic cache,
//! the serve front-end — evaluates regular queries (Vardi, PODS 2016) over
//! an in-memory graph. This crate makes that graph durable and mutable
//! without giving up the cold-start story:
//!
//! * [`format`] — a compact, checksummed snapshot: string-interned label
//!   and node tables plus per-label CSR adjacency, sharded by node range.
//!   The CSR rows are `GraphDb`'s forward rows, so loading copies them in
//!   and transposes once for the backward rows. A versioned superblock
//!   carries a section table; every section (and the superblock itself)
//!   has a CRC32, so corruption fails closed instead of materializing a
//!   silently wrong graph.
//! * [`log`] — an append-only edge-delta log (`AddEdge`/`RemoveEdge`
//!   records, each length- and CRC-framed). A record is *acknowledged*
//!   once [`StorageHandle::append`] returns — the write is fsync'd — and
//!   acknowledged records survive any crash. A torn final record (the
//!   crash landed mid-write) was by construction never acknowledged; on
//!   reopen it is truncated away, while a CRC mismatch on a fully-framed
//!   record is corruption and fails closed.
//! * [`handle`] — [`StorageHandle`]: create a store from a database,
//!   open one (block-load the snapshot, replay the log), append deltas,
//!   and compact the log back into a fresh snapshot past a threshold.
//!   Snapshot writes are atomic (tmp file + rename + directory fsync),
//!   and replay is idempotent, which is what makes the compaction crash
//!   window (new snapshot renamed, old log not yet truncated) safe.
//!
//! ## Quickstart
//!
//! ```
//! use rq_storage::{StorageConfig, StorageHandle};
//! use rq_graph::{text, Delta};
//!
//! let dir = std::env::temp_dir().join(format!("rqs-doc-{}", std::process::id()));
//! let db = text::parse("alice knows bob\nbob knows carol\n").unwrap();
//! StorageHandle::create(&dir, &db, StorageConfig::default()).unwrap();
//!
//! let (mut store, mut db, report) =
//!     StorageHandle::open(&dir, StorageConfig::default()).unwrap();
//! assert_eq!(report.nodes, 3);
//!
//! let deltas = [Delta::add("carol", "knows", "dave")];
//! store.append(&deltas).unwrap(); // fsync'd: acknowledged, survives crash
//! for d in &deltas {
//!     db.apply_delta(d);
//! }
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod format;
pub mod handle;
pub mod log;

pub use handle::{OpenReport, StorageHandle};

use std::fmt;
use std::path::{Path, PathBuf};

/// Tuning knobs for a store.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Number of node-range shards the snapshot is split into. Each shard
    /// is a separately checksummed section, so corruption is reported per
    /// node range.
    pub shards: u32,
    /// Once the delta log holds at least this many records,
    /// [`StorageHandle::needs_compaction`] reports true.
    pub compact_threshold: u64,
    /// Whether a torn final log record (EOF before the framed length — a
    /// crash artifact, never acknowledged) is truncated away on open
    /// (`true`, the default) or reported as [`StorageError::TornLog`]
    /// (`false`, for auditing a store that should have been closed
    /// cleanly). A CRC mismatch on a fully-framed record is always an
    /// error, independent of this flag.
    pub tolerate_torn_tail: bool,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            shards: 4,
            compact_threshold: 10_000,
            tolerate_torn_tail: true,
        }
    }
}

/// Why a storage operation failed.
///
/// Rendered as a structured `error[storage]: ...` line — the same
/// convention the serve front-end and `rqtool` use — so callers can match
/// on the prefix instead of scraping free text.
#[derive(Debug)]
pub enum StorageError {
    /// An OS-level I/O failure (open, read, write, fsync, rename).
    Io {
        path: PathBuf,
        op: &'static str,
        source: std::io::Error,
    },
    /// The bytes on disk are not a valid store: bad magic, unsupported
    /// version, truncated file, out-of-bounds section, or CRC mismatch.
    Corrupt { path: PathBuf, detail: String },
    /// A torn final log record with `tolerate_torn_tail` off.
    TornLog { path: PathBuf, detail: String },
}

impl StorageError {
    pub(crate) fn io(path: &Path, op: &'static str, source: std::io::Error) -> StorageError {
        StorageError::Io {
            path: path.to_owned(),
            op,
            source,
        }
    }

    pub(crate) fn corrupt(path: &Path, detail: impl Into<String>) -> StorageError {
        StorageError::Corrupt {
            path: path.to_owned(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { path, op, source } => {
                write!(f, "error[storage]: {op} {}: {source}", path.display())
            }
            StorageError::Corrupt { path, detail } => {
                write!(f, "error[storage]: corrupt {}: {detail}", path.display())
            }
            StorageError::TornLog { path, detail } => {
                write!(f, "error[storage]: torn log {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// IEEE CRC-32 (the polynomial used by zip/png), table-driven, no
/// dependencies. Used for every snapshot section, the superblock, and
/// every log record.
pub(crate) mod crc32 {
    const fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }

    static TABLE: [u32; 256] = table();

    pub fn of(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn known_vectors() {
            // The canonical IEEE CRC-32 check value.
            assert_eq!(super::of(b"123456789"), 0xCBF4_3926);
            assert_eq!(super::of(b""), 0);
            assert_eq!(super::of(b"a"), 0xE8B7_BE43);
        }
    }
}

/// Crate-private metrics cells, following the workspace OnceLock pattern.
pub(crate) mod metrics {
    use rq_metrics::{exponential_buckets, global, Counter, Gauge, Histogram};
    use std::sync::{Arc, OnceLock};

    pub(crate) fn open_us() -> &'static Histogram {
        static CELL: OnceLock<Arc<Histogram>> = OnceLock::new();
        CELL.get_or_init(|| {
            global().histogram(
                "rq_storage_open_us",
                "Wall time to open a store (block-load snapshot + replay log), microseconds",
                &exponential_buckets(100, 4, 12),
            )
        })
    }

    pub(crate) fn replay_records() -> &'static Counter {
        static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
        CELL.get_or_init(|| {
            global().counter(
                "rq_storage_replay_records_total",
                "Delta-log records replayed on store open",
            )
        })
    }

    pub(crate) fn replay_dropped() -> &'static Counter {
        static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
        CELL.get_or_init(|| {
            global().counter(
                "rq_storage_replay_dropped_total",
                "Torn (never-acknowledged) trailing log records truncated on open",
            )
        })
    }

    pub(crate) fn appends() -> &'static Counter {
        static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
        CELL.get_or_init(|| {
            global().counter(
                "rq_storage_appends_total",
                "Delta records durably appended (fsync'd) to the log",
            )
        })
    }

    pub(crate) fn compactions() -> &'static Counter {
        static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
        CELL.get_or_init(|| {
            global().counter(
                "rq_storage_compactions_total",
                "Log compactions (fresh snapshot written, log truncated)",
            )
        })
    }

    pub(crate) fn log_records() -> &'static Gauge {
        static CELL: OnceLock<Arc<Gauge>> = OnceLock::new();
        CELL.get_or_init(|| {
            global().gauge(
                "rq_storage_log_records",
                "Records currently in the delta log (resets on compaction)",
            )
        })
    }

    pub(crate) fn snapshot_bytes() -> &'static Gauge {
        static CELL: OnceLock<Arc<Gauge>> = OnceLock::new();
        CELL.get_or_init(|| {
            global().gauge(
                "rq_storage_snapshot_bytes",
                "Size of the current snapshot file in bytes",
            )
        })
    }
}
