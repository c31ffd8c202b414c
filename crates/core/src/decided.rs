//! The decided log: durable storage for the decision sequence.
//!
//! A process only learns decision `k` by participating in consensus
//! instance `k`, so a laggard or restarted process can never recover the
//! prefix it missed from the protocol alone. The [`DecidedLog`] closes
//! that hole: every fully a-delivered instance is appended here (value
//! plus payloads), the log's *frontier* is piggybacked on outgoing
//! traffic, and peers behind the frontier fetch ranges of entries via
//! the catch-up protocol (`CatchUpRequest`/`CatchUpReply` in
//! [`crate::envelope`]).
//!
//! Two implementations:
//!
//! * [`MemDecidedLog`] — in-memory, for simulations and learners that do
//!   not need to survive a restart.
//! * [`DurableDecidedLog`] — an append-only file of length-prefixed
//!   records reusing the `wire.rs` codec. Crash-truncation-safe: a torn
//!   tail record (partial write at the moment of a crash) is detected
//!   and dropped on open, recovering the longest valid prefix.
//!
//! On-disk record format (all integers little-endian, as everywhere on
//! the wire):
//!
//! ```text
//! ┌────────────┬─────────┬──────────┬───────────────────┐
//! │ len: u32   │ k: u64  │ value: V │ Vec<AppMessage>   │
//! ├────────────┼─────────┴──────────┴───────────────────┤
//! │ 4 bytes    │ body: exactly `len` bytes              │
//! └────────────┴────────────────────────────────────────┘
//! ```
//!
//! Records are strictly contiguous: record `i` (0-based) holds instance
//! `k = i + 1`. Any violation — short length prefix, body shorter than
//! `len`, codec error, trailing bytes inside the body, or a
//! non-contiguous `k` — marks the end of the valid prefix; everything
//! from there on is discarded and the file truncated.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use iabc_types::{AppMessage, CodecError, Decode, Encode, WireSize};

/// Upper bound on a single record body, mirroring the network layer's
/// frame cap (`iabc-net`'s `MAX_FRAME`): a length prefix beyond this is
/// corruption, not a real record.
const MAX_RECORD: usize = 16 << 20;

/// One fully a-delivered consensus instance: the decided value plus the
/// payloads of every message it ordered (in delivery order). Carrying
/// the payloads makes a log entry self-contained: a catch-up reply built
/// from it lets the receiver both apply the decision *and* deliver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecidedEntry<V> {
    /// The consensus instance number (1-based).
    pub k: u64,
    /// The decided value (identifier or message set).
    pub value: V,
    /// Payloads of the ordered messages, in delivery order.
    pub payloads: Vec<AppMessage>,
}

impl<V: WireSize> WireSize for DecidedEntry<V> {
    fn wire_size(&self) -> usize {
        8 + self.value.wire_size() + self.payloads.wire_size()
    }
}

impl<V: Encode> Encode for DecidedEntry<V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.k.encode(buf);
        self.value.encode(buf);
        self.payloads.encode(buf);
    }
}

impl<V: Decode> Decode for DecidedEntry<V> {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let k = u64::decode(buf)?;
        let value = V::decode(buf)?;
        let payloads = Vec::<AppMessage>::decode(buf)?;
        Ok(DecidedEntry { k, value, payloads })
    }
}

/// Append-only storage for the decision sequence, indexed by instance.
///
/// Entries are strictly contiguous from instance 1; the *frontier* is
/// the highest instance stored (0 when empty). The node appends an
/// instance once it is fully a-delivered, so the frontier is exactly
/// the prefix this process can serve to others — and, for a durable
/// log, the prefix it resumes from after a restart.
pub trait DecidedLog<V>: Send {
    /// Re-synchronizes the in-memory view with the backing store (a
    /// no-op for memory-only logs). Called once at node start, before
    /// recovery, so a pre-built replacement node picks up what the
    /// previous incarnation wrote.
    fn reload(&mut self);

    /// Appends the next entry. Returns `false` (and stores nothing) if
    /// `entry.k` is not exactly `frontier() + 1` — the log never holds
    /// gaps, so an out-of-order append is a caller bug surfaced softly
    /// rather than a panic on the message path.
    fn append(&mut self, entry: DecidedEntry<V>) -> bool;

    /// The highest instance stored (0 when empty).
    fn frontier(&self) -> u64;

    /// The entry for instance `k`, if stored.
    fn get(&self, k: u64) -> Option<&DecidedEntry<V>>;

    /// The stored entries with `from_k <= k <= to_k` (clamped to what
    /// exists; empty on an inverted or out-of-range request).
    fn range(&self, from_k: u64, to_k: u64) -> &[DecidedEntry<V>];
}

/// Slices `entries` (contiguous from instance 1) to `from_k..=to_k`.
fn slice_range<V>(entries: &[DecidedEntry<V>], from_k: u64, to_k: u64) -> &[DecidedEntry<V>] {
    let frontier = entries.len() as u64;
    let lo = from_k.max(1);
    let hi = to_k.min(frontier);
    if lo > hi {
        return &[];
    }
    // lo >= 1 and hi <= entries.len(), so the index math stays in range.
    let start = usize::try_from(lo - 1).unwrap_or(usize::MAX).min(entries.len());
    let end = usize::try_from(hi).unwrap_or(usize::MAX).min(entries.len());
    &entries[start..end]
}

/// An in-memory decided log (no durability).
#[derive(Debug, Default)]
pub struct MemDecidedLog<V> {
    entries: Vec<DecidedEntry<V>>,
}

impl<V> MemDecidedLog<V> {
    /// Creates an empty log.
    pub fn new() -> Self {
        MemDecidedLog { entries: Vec::new() }
    }
}

impl<V: Send> DecidedLog<V> for MemDecidedLog<V> {
    fn reload(&mut self) {}

    fn append(&mut self, entry: DecidedEntry<V>) -> bool {
        if entry.k != self.entries.len() as u64 + 1 {
            return false;
        }
        self.entries.push(entry);
        true
    }

    fn frontier(&self) -> u64 {
        self.entries.len() as u64
    }

    fn get(&self, k: u64) -> Option<&DecidedEntry<V>> {
        self.range(k, k).first()
    }

    fn range(&self, from_k: u64, to_k: u64) -> &[DecidedEntry<V>] {
        slice_range(&self.entries, from_k, to_k)
    }
}

/// A durable decided log: an append-only file of length-prefixed
/// records (see the module docs for the format), mirrored in memory for
/// reads.
///
/// Write failures degrade durability, not availability: the in-memory
/// mirror keeps growing and [`DurableDecidedLog::io_error`] reports the
/// first failure. By default writes go through the OS (`write_all`, no
/// fsync), so the log survives process crashes but a power loss can lose
/// the OS-buffered suffix — recovery then trims to the longest valid
/// prefix, exactly like a torn write. [`DurableDecidedLog::sync_every`]
/// tightens that window: every `n`-th append additionally waits on
/// `fdatasync(2)`, bounding power-loss data loss to at most `n - 1`
/// appends at the cost of a disk round-trip per `n` records.
pub struct DurableDecidedLog<V> {
    path: PathBuf,
    file: Option<File>,
    entries: Vec<DecidedEntry<V>>,
    io_error: Option<String>,
    /// `0` = never fsync (default); `n` = fdatasync every `n`-th append.
    sync_every: u64,
    appends_since_sync: u64,
}

impl<V> std::fmt::Debug for DurableDecidedLog<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableDecidedLog")
            .field("path", &self.path)
            .field("frontier", &self.entries.len())
            .field("io_error", &self.io_error)
            .finish()
    }
}

impl<V: Encode + Decode + WireSize + Send> DurableDecidedLog<V> {
    /// Opens (creating if absent) the log at `path` and recovers the
    /// longest valid record prefix, truncating the file past it. Never
    /// panics on corrupt contents — a torn or garbage tail is data loss
    /// already; recovery keeps what is provably intact.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let mut log = DurableDecidedLog {
            path: path.as_ref().to_path_buf(),
            file: None,
            entries: Vec::new(),
            io_error: None,
            sync_every: 0,
            appends_since_sync: 0,
        };
        log.recover()?;
        Ok(log)
    }

    /// Sets the fsync policy: every `n`-th append also waits on
    /// `fdatasync(2)`, so a power loss forfeits at most `n - 1` appends.
    /// `n = 0` (the default) never syncs — crash-safe via the OS page
    /// cache, power-loss-safe only up to what the OS flushed. Sync
    /// failures surface through [`DurableDecidedLog::io_error`] like any
    /// other write failure.
    #[must_use]
    pub fn sync_every(mut self, n: u64) -> Self {
        self.sync_every = n;
        self
    }

    /// The first append/IO failure since open, if any.
    pub fn io_error(&self) -> Option<&str> {
        self.io_error.as_deref()
    }

    fn recover(&mut self) -> std::io::Result<()> {
        // truncate(false): recovery keeps the valid prefix of an existing
        // log; only the torn tail (if any) is cut below, via `set_len`.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&self.path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;

        self.entries.clear();
        let mut offset = 0usize;
        // Fixed 4-byte little-endian length prefix, as written below.
        while let Some(header) = raw.get(offset..offset + 4) {
            let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
            if len > MAX_RECORD {
                break; // corrupt length — end of valid prefix
            }
            let Some(body) = raw.get(offset + 4..offset + 4 + len) else {
                break; // torn tail: record body shorter than its prefix
            };
            let Ok(entry) = DecidedEntry::<V>::from_bytes(body) else {
                break; // undecodable body (from_bytes also rejects trailing bytes)
            };
            if entry.k != self.entries.len() as u64 + 1 {
                break; // non-contiguous instance — corruption, not a gap
            }
            self.entries.push(entry);
            offset += 4 + len;
        }

        if offset < raw.len() {
            file.set_len(offset as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        self.file = Some(file);
        Ok(())
    }

    fn write_record(&mut self, entry: &DecidedEntry<V>) {
        let body = entry.to_bytes();
        let Ok(len) = u32::try_from(body.len()) else {
            self.note_io_error("record body exceeds u32 length prefix");
            return;
        };
        if body.len() > MAX_RECORD {
            self.note_io_error("record body exceeds MAX_RECORD");
            return;
        }
        let mut rec = Vec::with_capacity(4 + body.len());
        rec.extend_from_slice(&len.to_le_bytes());
        rec.extend_from_slice(&body);
        match self.file.as_mut() {
            Some(file) => {
                if let Err(e) = file.write_all(&rec) {
                    self.note_io_error(&e.to_string());
                    return;
                }
                if self.sync_every > 0 {
                    self.appends_since_sync += 1;
                    if self.appends_since_sync >= self.sync_every {
                        self.appends_since_sync = 0;
                        // sync_data = fdatasync: flushes the record bytes
                        // without forcing a metadata (mtime) write per
                        // append. File length changes are data here —
                        // POSIX fdatasync flushes the size when needed
                        // for the data to be readable after a crash.
                        if let Err(e) = file.sync_data() {
                            self.note_io_error(&e.to_string());
                        }
                    }
                }
            }
            None => self.note_io_error("log file not open"),
        }
    }

    fn note_io_error(&mut self, msg: &str) {
        if self.io_error.is_none() {
            self.io_error = Some(msg.to_string());
        }
    }
}

impl<V: Encode + Decode + WireSize + Send> DecidedLog<V> for DurableDecidedLog<V> {
    fn reload(&mut self) {
        if let Err(e) = self.recover() {
            self.note_io_error(&e.to_string());
        }
    }

    fn append(&mut self, entry: DecidedEntry<V>) -> bool {
        if entry.k != self.entries.len() as u64 + 1 {
            return false;
        }
        self.write_record(&entry);
        self.entries.push(entry);
        true
    }

    fn frontier(&self) -> u64 {
        self.entries.len() as u64
    }

    fn get(&self, k: u64) -> Option<&DecidedEntry<V>> {
        self.range(k, k).first()
    }

    fn range(&self, from_k: u64, to_k: u64) -> &[DecidedEntry<V>] {
        slice_range(&self.entries, from_k, to_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_types::{IdSet, MsgId, Payload, ProcessId, Time};

    fn entry(k: u64) -> DecidedEntry<IdSet> {
        let id = MsgId::new(ProcessId::new(0), k);
        DecidedEntry {
            k,
            value: IdSet::from_ids([id]),
            payloads: vec![AppMessage::new(id, Payload::zeroed(8), Time::ZERO)],
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("iabc-decided-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn mem_log_appends_contiguously() {
        let mut log = MemDecidedLog::new();
        assert_eq!(log.frontier(), 0);
        assert!(log.append(entry(1)));
        assert!(!log.append(entry(3)), "gap must be refused");
        assert!(!log.append(entry(1)), "duplicate must be refused");
        assert!(log.append(entry(2)));
        assert_eq!(log.frontier(), 2);
        assert_eq!(log.get(2).map(|e| e.k), Some(2));
        assert_eq!(log.range(1, 2).len(), 2);
        assert_eq!(log.range(2, 9).len(), 1);
        assert_eq!(log.range(3, 9).len(), 0);
        assert_eq!(log.range(2, 1).len(), 0);
        assert_eq!(log.range(0, u64::MAX).len(), 2);
    }

    #[test]
    fn durable_log_survives_reopen() {
        let path = tmp("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = DurableDecidedLog::open(&path).unwrap();
            for k in 1..=5 {
                assert!(log.append(entry(k)));
            }
            assert!(log.io_error().is_none());
        }
        let log = DurableDecidedLog::<IdSet>::open(&path).unwrap();
        assert_eq!(log.frontier(), 5);
        for k in 1..=5 {
            assert_eq!(log.get(k).unwrap(), &entry(k));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_on_open() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = DurableDecidedLog::open(&path).unwrap();
            for k in 1..=3 {
                assert!(log.append(entry(k)));
            }
        }
        // Tear the last record: drop its final byte.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 1]).unwrap();

        let mut log = DurableDecidedLog::<IdSet>::open(&path).unwrap();
        assert_eq!(log.frontier(), 2, "torn record 3 must be dropped");
        // The torn bytes are gone from disk: appending record 3 again and
        // reopening yields the intact 3-entry log.
        assert!(log.append(entry(3)));
        drop(log);
        let log = DurableDecidedLog::<IdSet>::open(&path).unwrap();
        assert_eq!(log.frontier(), 3);
        assert_eq!(log.get(3).unwrap(), &entry(3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sync_every_policy_appends_and_survives_reopen() {
        // fsync success is not observable from userspace beyond "no
        // error"; this pins the policy's behavior contract — counting,
        // no io_error, and unchanged on-disk format — for n = 1 (every
        // append) and a batching n that leaves a partial window open.
        let path = tmp("sync");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = DurableDecidedLog::open(&path).unwrap().sync_every(1);
            for k in 1..=3 {
                assert!(log.append(entry(k)));
            }
            assert!(log.io_error().is_none());
        }
        {
            let mut log = DurableDecidedLog::<IdSet>::open(&path).unwrap().sync_every(4);
            assert_eq!(log.frontier(), 3, "synced log must reopen intact");
            for k in 4..=9 {
                assert!(log.append(entry(k)));
            }
            assert!(log.io_error().is_none());
        }
        let log = DurableDecidedLog::<IdSet>::open(&path).unwrap();
        assert_eq!(log.frontier(), 9, "partial sync window must still be on disk");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_file_recovers_empty() {
        let path = tmp("garbage");
        std::fs::write(&path, [0xFFu8; 37]).unwrap();
        let log = DurableDecidedLog::<IdSet>::open(&path).unwrap();
        assert_eq!(log.frontier(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0, "garbage must be truncated");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reload_picks_up_external_appends() {
        let path = tmp("reload");
        let _ = std::fs::remove_file(&path);
        // A second handle (the "previous incarnation") writes two entries.
        let mut stale = DurableDecidedLog::<IdSet>::open(&path).unwrap();
        let mut writer = DurableDecidedLog::<IdSet>::open(&path).unwrap();
        assert!(writer.append(entry(1)));
        assert!(writer.append(entry(2)));
        drop(writer);
        assert_eq!(stale.frontier(), 0);
        stale.reload();
        assert_eq!(stale.frontier(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
