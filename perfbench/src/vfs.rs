//! A counting (and, when traced, timing) `Vfs` around `MemVfs`.
//!
//! The durability layer writes the WAL with `append` and checkpoint
//! files with `create`, so the two byte counters split storage into log
//! and checkpoint bytes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use relvu_durability::{MemVfs, Vfs, VfsResult};

/// Counters shared by every clone of one [`CountingVfs`].
#[derive(Default)]
pub struct IoStats {
    pub wal_bytes: AtomicU64,
    pub ckpt_bytes: AtomicU64,
    pub appends: AtomicU64,
    pub append_ns: AtomicU64,
    pub syncs: AtomicU64,
    pub sync_ns: AtomicU64,
    /// Time `append` and `sync` only when set.
    pub timed: AtomicBool,
}

impl IoStats {
    pub fn storage_bytes(&self) -> u64 {
        self.wal_bytes.load(Relaxed) + self.ckpt_bytes.load(Relaxed)
    }

    /// Nanoseconds spent in `append` and `sync` so far (0 unless timed).
    pub fn io_ns(&self) -> u64 {
        self.append_ns.load(Relaxed) + self.sync_ns.load(Relaxed)
    }
}

#[derive(Clone)]
pub struct CountingVfs {
    inner: MemVfs,
    pub stats: Arc<IoStats>,
}

impl CountingVfs {
    pub fn new(inner: MemVfs, timed: bool) -> Self {
        let stats = IoStats::default();
        stats.timed.store(timed, Relaxed);
        CountingVfs {
            inner,
            stats: Arc::new(stats),
        }
    }

    /// The store a restarted process would find: only synced bytes.
    pub fn crash_image(&self) -> MemVfs {
        self.inner.crash_image()
    }

    fn timed<T>(&self, ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
        if !self.stats.timed.load(Relaxed) {
            return f();
        }
        let t = Instant::now();
        let out = f();
        ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        out
    }
}

impl Vfs for CountingVfs {
    fn list(&self) -> VfsResult<Vec<String>> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> VfsResult<Vec<u8>> {
        self.inner.read(name)
    }

    fn append(&self, name: &str, data: &[u8]) -> VfsResult<()> {
        self.stats.appends.fetch_add(1, Relaxed);
        self.stats.wal_bytes.fetch_add(data.len() as u64, Relaxed);
        self.timed(&self.stats.append_ns, || self.inner.append(name, data))
    }

    fn create(&self, name: &str, data: &[u8]) -> VfsResult<()> {
        self.stats.ckpt_bytes.fetch_add(data.len() as u64, Relaxed);
        self.inner.create(name, data)
    }

    fn sync(&self, name: &str) -> VfsResult<()> {
        self.stats.syncs.fetch_add(1, Relaxed);
        self.timed(&self.stats.sync_ns, || self.inner.sync(name))
    }

    fn rename(&self, from: &str, to: &str) -> VfsResult<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, name: &str) -> VfsResult<()> {
        self.inner.remove(name)
    }

    fn truncate(&self, name: &str, len: u64) -> VfsResult<()> {
        self.inner.truncate(name, len)
    }

    fn file_len(&self, name: &str) -> VfsResult<u64> {
        self.inner.file_len(name)
    }
}
