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
//!   not need to survive a restart. It drops every instance that all
//!   processes have logged ([`DecidedLog::release_through`]), so it holds
//!   only the slowest member's lag.
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
/// Entries are strictly contiguous from the first held instance (1 until
/// a prefix is released); the *frontier* is the highest instance logged
/// (0 when empty), released ones included. The node appends an instance
/// once it is fully a-delivered, so the frontier is exactly the prefix
/// this process has delivered — what it piggybacks, what it serves from
/// the first held instance on and, for a durable log, the prefix it
/// resumes from after a restart.
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

    /// The highest instance logged (0 when empty), released or not.
    fn frontier(&self) -> u64;

    /// The entry for instance `k`, if held.
    fn get(&self, k: u64) -> Option<&DecidedEntry<V>>;

    /// The held entries with `from_k <= k <= to_k` (clamped to the
    /// frontier; empty on an inverted or out-of-range request). A range
    /// that starts at a released instance is empty, never a suffix that
    /// skips instances.
    fn range(&self, from_k: u64, to_k: u64) -> &[DecidedEntry<V>];

    /// The number of entries held.
    fn held(&self) -> usize;

    /// Every process has logged the instances up to `floor`, so none will
    /// fetch them: the log may drop them. It never drops past its own
    /// frontier. By default it keeps everything (the durable log, which
    /// also serves a restarted peer that lost the tail it advertised).
    fn release_through(&mut self, _floor: u64) {}
}

/// Slices `entries` (contiguous from instance `released + 1`) to
/// `from_k..=to_k`; empty when `from_k` falls at or below `released`.
fn slice_range<V>(entries: &[DecidedEntry<V>], released: u64, from_k: u64, to_k: u64) -> &[DecidedEntry<V>] {
    let lo = from_k.max(1);
    let hi = to_k.min(released + entries.len() as u64);
    if lo <= released || lo > hi {
        return &[];
    }
    // released < lo <= hi <= released + entries.len(), so the index math
    // stays in range.
    let start = usize::try_from(lo - released - 1).unwrap_or(usize::MAX).min(entries.len());
    let end = usize::try_from(hi - released).unwrap_or(usize::MAX).min(entries.len());
    &entries[start..end]
}

/// An in-memory decided log (no durability) that drops the prefix every
/// process has logged.
#[derive(Debug, Default)]
pub struct MemDecidedLog<V> {
    /// Instances dropped so far: `entries[i]` holds instance
    /// `released + 1 + i`.
    released: u64,
    entries: Vec<DecidedEntry<V>>,
}

impl<V> MemDecidedLog<V> {
    /// Creates an empty log.
    pub fn new() -> Self {
        MemDecidedLog { released: 0, entries: Vec::new() }
    }
}

impl<V: Send> DecidedLog<V> for MemDecidedLog<V> {
    fn reload(&mut self) {}

    fn append(&mut self, entry: DecidedEntry<V>) -> bool {
        if entry.k != self.frontier() + 1 {
            return false;
        }
        self.entries.push(entry);
        true
    }

    fn frontier(&self) -> u64 {
        self.released + self.entries.len() as u64
    }

    fn get(&self, k: u64) -> Option<&DecidedEntry<V>> {
        self.range(k, k).first()
    }

    fn range(&self, from_k: u64, to_k: u64) -> &[DecidedEntry<V>] {
        slice_range(&self.entries, self.released, from_k, to_k)
    }

    fn held(&self) -> usize {
        self.entries.len()
    }

    /// Drops in chunks: only once the droppable prefix is at least half of
    /// what is held. The entries kept are then no more than those dropped,
    /// so shifting them down moves each entry at most once on average, and
    /// what is held stays one slice.
    fn release_through(&mut self, floor: u64) {
        let droppable = floor.min(self.frontier()).saturating_sub(self.released);
        if droppable == 0 || droppable.saturating_mul(2) < self.entries.len() as u64 {
            return;
        }
        // droppable <= entries.len(): floor was clamped to the frontier.
        let cut = usize::try_from(droppable).unwrap_or(usize::MAX).min(self.entries.len());
        self.entries.drain(..cut);
        self.released += cut as u64;
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
        slice_range(&self.entries, 0, from_k, to_k)
    }

    fn held(&self) -> usize {
        self.entries.len()
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

    /// A release drops the prefix in chunks and keeps the frontier. A
    /// dropped instance reads as absent, and a range that starts at or
    /// below it is empty, never a suffix that skips instances.
    #[test]
    fn mem_log_releases_its_prefix_in_chunks() {
        let mut log = MemDecidedLog::new();
        for k in 1..=10 {
            assert!(log.append(entry(k)));
        }
        log.release_through(4);
        assert_eq!(log.held(), 10, "4 of 10 held is under half: nothing dropped");
        log.release_through(5);
        assert_eq!((log.held(), log.frontier()), (5, 10), "half held: dropped, frontier kept");
        assert!(log.get(5).is_none());
        assert_eq!(log.get(6).map(|e| e.k), Some(6));
        assert!(log.range(5, 10).is_empty(), "a range from a dropped instance is empty");
        assert!(log.range(0, u64::MAX).is_empty());
        let held: Vec<u64> = log.range(6, u64::MAX).iter().map(|e| e.k).collect();
        assert_eq!(held, (6..=10).collect::<Vec<_>>());

        assert!(!log.append(entry(10)), "duplicate must be refused");
        assert!(!log.append(entry(12)), "gap must be refused");
        assert!(log.append(entry(11)), "append still takes frontier() + 1");
        log.release_through(u64::MAX);
        assert_eq!((log.held(), log.frontier()), (0, 11), "a floor past the frontier is clamped");
        assert!(log.append(entry(12)));
        assert_eq!(log.range(12, 12).len(), 1);
    }

    #[test]
    fn durable_log_keeps_its_prefix() {
        let path = tmp("keep");
        let _ = std::fs::remove_file(&path);
        let mut log = DurableDecidedLog::open(&path).unwrap();
        for k in 1..=4 {
            assert!(log.append(entry(k)));
        }
        log.release_through(4);
        assert_eq!((log.held(), log.range(1, 4).len()), (4, 4));
        let _ = std::fs::remove_file(&path);
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
