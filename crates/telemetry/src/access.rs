//! The serve-side flight-recorder primitives: per-request access
//! records, a bounded ring buffer of recent records, and a crash-safe
//! JSONL access-log writer.
//!
//! The access log is the *runtime* stream of the serving layer — the
//! one place wall-clock observations (durations, schedule-dependent
//! request ids) are allowed to live. Everything the byte-determinism
//! keystone compares — canonical trace, `/metrics` counter values,
//! response bodies — stays free of them; an [`AccessRecord`] therefore
//! carries two projections: [`AccessRecord::to_json`] (the full record,
//! one JSONL line) and [`AccessRecord::canonical_json`] (the
//! schedule-independent fields only), which the cross-worker-count
//! determinism tests compare after sorting.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::metrics::DURATION_BUCKETS_MS;

/// One request, as the serving layer saw it. The full record is a
/// runtime artifact (ids and durations depend on scheduling); the
/// canonical projection ([`AccessRecord::canonical_json`]) is
/// byte-deterministic across worker counts for an identical request
/// sequence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessRecord {
    /// Monotone per-worker request id (`w3-17`), or `a-5` for
    /// connections refused from the accept thread.
    pub id: String,
    /// Request method, `-` when the request never parsed.
    pub method: String,
    /// Path plus canonically re-rendered query (`?k=v&...`, keys
    /// sorted), `-` when the request never parsed.
    pub path: String,
    /// Response status (0 when the peer vanished unanswered).
    pub status: u16,
    /// Response body bytes.
    pub bytes: u64,
    /// Hex SHA-256 digest of the world that answered, empty when no
    /// world was consulted (errors, sheds, admin plumbing).
    pub world: String,
    /// Epoch of the serving world at answer time.
    pub epoch: u64,
    /// Mapping-LRU outcome: `hit`, `miss`, or `none` for routes that
    /// never touch the cache.
    pub lru: String,
    /// Accept-queue depth observed when the connection was accepted.
    pub queue_depth: u64,
    /// Wall-clock handling duration, milliseconds (runtime-only).
    pub duration_ms: u64,
    /// The duration's histogram bucket label (`le_5`, ..., `inf`) —
    /// coarse enough to read, aligned with [`DURATION_BUCKETS_MS`].
    pub duration_bucket: String,
}

/// The bucket label a duration falls into: `le_<bound>` for the first
/// bound `b` with `ms <= b`, or `inf` past the last bound.
pub fn duration_bucket_label(ms: u64) -> String {
    match DURATION_BUCKETS_MS.iter().find(|&&b| ms <= b) {
        Some(bound) => format!("le_{bound}"),
        None => "inf".to_string(),
    }
}

impl AccessRecord {
    /// The full record as one JSON object (field order fixed by the
    /// struct) — one line of the JSONL access log.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("access record serializes")
    }

    /// The schedule-independent projection: everything except the
    /// request id and the wall-clock duration fields. Identical
    /// request sequences produce identical canonical sets at any
    /// worker count — the property `tests/observe.rs` pins.
    pub fn canonical_json(&self) -> String {
        let canonical = CanonicalAccessRecord {
            method: self.method.clone(),
            path: self.path.clone(),
            status: self.status,
            bytes: self.bytes,
            world: self.world.clone(),
            epoch: self.epoch,
            lru: self.lru.clone(),
            queue_depth: self.queue_depth,
        };
        serde_json::to_string(&canonical).expect("canonical record serializes")
    }
}

/// [`AccessRecord`] minus the runtime-only fields (id, durations).
#[derive(Serialize)]
struct CanonicalAccessRecord {
    method: String,
    path: String,
    status: u16,
    bytes: u64,
    world: String,
    epoch: u64,
    lru: String,
    queue_depth: u64,
}

/// A bounded, thread-safe ring of the last `capacity` items — the
/// flight recorder's storage. Pushing past capacity drops the oldest
/// item; `total` keeps counting, so readers can tell how much history
/// scrolled away. The lock is held only for the O(1) push or the
/// snapshot copy, never across request handling.
#[derive(Debug)]
pub struct RingBuffer<T> {
    capacity: usize,
    inner: Mutex<RingInner<T>>,
}

#[derive(Debug)]
struct RingInner<T> {
    total: u64,
    items: VecDeque<T>,
}

impl<T: Clone> RingBuffer<T> {
    /// An empty ring holding at most `capacity` items (0 records
    /// nothing but still counts).
    pub fn new(capacity: usize) -> RingBuffer<T> {
        RingBuffer {
            capacity,
            inner: Mutex::new(RingInner {
                total: 0,
                items: VecDeque::with_capacity(capacity.min(1024)),
            }),
        }
    }

    /// Appends `item`, evicting the oldest once full.
    pub fn push(&self, item: T) {
        let mut inner = self.inner.lock();
        inner.total += 1;
        if self.capacity == 0 {
            return;
        }
        if inner.items.len() == self.capacity {
            inner.items.pop_front();
        }
        inner.items.push_back(item);
    }

    /// The retained items, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        self.inner.lock().items.iter().cloned().collect()
    }

    /// Items ever pushed (including those that scrolled away).
    pub fn total(&self) -> u64 {
        self.inner.lock().total
    }

    /// Items currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().items.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A crash-safe JSONL appender: the access log's file face.
///
/// Mirrors the workspace's crash-safe write protocol
/// (`borges_store::write_atomic` — sibling tmp → fsync → rename → dir
/// fsync), stretched over the writer's lifetime: lines are appended
/// (and flushed) to a hidden staging sibling `.name.tmp-<pid>` while
/// the server runs, and [`AccessLogWriter::finish`] fsyncs and renames
/// it into place at graceful shutdown. The destination path therefore
/// either holds a complete log or nothing; a crash mid-serve leaves
/// the flushed staging sibling for recovery, never a torn destination.
/// (Live inspection goes through the `/v1/admin/debug/*` endpoints,
/// not the file.)
#[derive(Debug)]
pub struct AccessLogWriter {
    path: PathBuf,
    staging: PathBuf,
    /// `None` once finished — appends after finish are an error.
    file: Mutex<Option<File>>,
}

impl AccessLogWriter {
    /// Opens the staging sibling of `path` for appending.
    pub fn create(path: impl AsRef<Path>) -> io::Result<AccessLogWriter> {
        let path = path.as_ref().to_path_buf();
        let name = path.file_name().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("access-log path has no file name: {}", path.display()),
            )
        })?;
        let tmp_name = format!(".{}.tmp-{}", name.to_string_lossy(), std::process::id());
        let staging = match path.parent() {
            Some(parent) if !parent.as_os_str().is_empty() => parent.join(tmp_name),
            _ => PathBuf::from(tmp_name),
        };
        let file = File::create(&staging)?;
        Ok(AccessLogWriter {
            path,
            staging,
            file: Mutex::new(Some(file)),
        })
    }

    /// Appends one line (terminator added) and flushes it to the OS.
    /// Line and terminator go out in one `write_all`, so the staging
    /// file always ends on a record boundary short of a crash inside
    /// that one write.
    pub fn append_line(&self, line: &str) -> io::Result<()> {
        let record = format!("{line}\n");
        let mut guard = self.file.lock();
        let file = guard
            .as_mut()
            .ok_or_else(|| io::Error::other("access log already finished"))?;
        file.write_all(record.as_bytes())?;
        file.flush()
    }

    /// Fsyncs the staged log and atomically renames it into place,
    /// then fsyncs the directory (best effort — some filesystems
    /// refuse). Idempotent: a second call is a no-op.
    pub fn finish(&self) -> io::Result<()> {
        let file = match self.file.lock().take() {
            Some(file) => file,
            None => return Ok(()),
        };
        file.sync_all()?;
        fs::rename(&self.staging, &self.path)?;
        if let Some(parent) = self.path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }
}

impl Drop for AccessLogWriter {
    fn drop(&mut self) {
        // Best effort: a writer dropped without `finish` (early return,
        // panic unwinding) still lands the log if it can.
        let _ = self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, ms: u64) -> AccessRecord {
        AccessRecord {
            id: id.to_string(),
            method: "GET".to_string(),
            path: "/healthz".to_string(),
            status: 200,
            bytes: 42,
            world: "abc123".to_string(),
            epoch: 0,
            lru: "none".to_string(),
            queue_depth: 0,
            duration_ms: ms,
            duration_bucket: duration_bucket_label(ms),
        }
    }

    #[test]
    fn bucket_labels_align_with_histogram_bounds() {
        assert_eq!(duration_bucket_label(0), "le_1");
        assert_eq!(duration_bucket_label(1), "le_1");
        assert_eq!(duration_bucket_label(2), "le_5");
        assert_eq!(duration_bucket_label(60_000), "le_60000");
        assert_eq!(duration_bucket_label(60_001), "inf");
    }

    #[test]
    fn record_roundtrips_and_canonical_drops_runtime_fields() {
        let r = record("w0-1", 7);
        let json = r.to_json();
        let back: AccessRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        let canonical = r.canonical_json();
        assert!(!canonical.contains("w0-1"), "{canonical}");
        assert!(!canonical.contains("duration"), "{canonical}");
        assert!(canonical.contains("\"path\":\"/healthz\""), "{canonical}");
        // Two records differing only in id and duration canonicalize
        // identically — the cross-worker determinism hinge.
        let other = record("w3-9", 5_000);
        assert_ne!(r.to_json(), other.to_json());
        assert_eq!(canonical, other.canonical_json());
    }

    #[test]
    fn ring_buffer_wraps_and_keeps_counting() {
        let ring = RingBuffer::new(3);
        assert!(ring.is_empty());
        for i in 0..7u64 {
            ring.push(i);
        }
        assert_eq!(ring.snapshot(), vec![4, 5, 6], "oldest evicted first");
        assert_eq!(ring.total(), 7);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
    }

    #[test]
    fn ring_buffer_exact_capacity_boundary() {
        let ring = RingBuffer::new(3);
        ring.push(1);
        ring.push(2);
        ring.push(3);
        assert_eq!(ring.snapshot(), vec![1, 2, 3], "no eviction at exactly cap");
        ring.push(4);
        assert_eq!(ring.snapshot(), vec![2, 3, 4], "eviction begins past cap");
    }

    #[test]
    fn zero_capacity_ring_records_nothing_but_counts() {
        let ring = RingBuffer::new(0);
        ring.push("x");
        ring.push("y");
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.total(), 2);
    }

    /// `write` system calls made by the calling thread so far, where the
    /// kernel reports them (`/proc/thread-self/io` on Linux).
    fn thread_write_syscalls() -> Option<u64> {
        let io = fs::read_to_string("/proc/thread-self/io").ok()?;
        io.lines()
            .find_map(|line| line.strip_prefix("syscw:"))?
            .trim()
            .parse()
            .ok()
    }

    #[test]
    fn access_log_writer_stages_then_lands_atomically() {
        let dir = std::env::temp_dir().join(format!("borges-accesslog-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");

        let writer = AccessLogWriter::create(&path).unwrap();
        let before = thread_write_syscalls();
        writer.append_line(&record("w0-1", 1).to_json()).unwrap();
        if let (Some(before), Some(after)) = (before, thread_write_syscalls()) {
            assert_eq!(after - before, 1, "line and terminator in one write");
        }
        writer.append_line(&record("w0-2", 2).to_json()).unwrap();
        assert!(
            !path.exists(),
            "destination must not appear before finish (crash safety)"
        );
        writer.finish().unwrap();
        writer.finish().unwrap(); // idempotent

        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let parsed: AccessRecord = serde_json::from_str(line).unwrap();
            assert_eq!(parsed.method, "GET");
        }
        // No staging sibling left behind.
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["access.jsonl".to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_after_finish_are_refused() {
        let dir = std::env::temp_dir().join(format!("borges-accesslog-fin-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let writer = AccessLogWriter::create(dir.join("a.jsonl")).unwrap();
        writer.finish().unwrap();
        assert!(writer.append_line("{}").is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
