//! A counting, timing `Vfs` wrapper around `RealVfs`.
//!
//! The durability layer (`wal.rs`, `store.rs`) routes every filesystem
//! operation through the `Vfs` trait, so wrapping it measures storage
//! from outside the program: time spent inside filesystem calls, sync
//! points, bytes written and segment files created. The counters are
//! plain statistics (relaxed atomics); the replay reads them between
//! engine calls on one thread.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use concord_engine::{RealVfs, Vfs, VfsFile};

/// Cumulative storage counters.
#[derive(Debug, Default)]
pub struct Counters {
    nanos: AtomicU64,
    syncs: AtomicU64,
    bytes: AtomicU64,
    segment_files: AtomicU64,
}

/// A point-in-time copy of [`Counters`]; subtract two to get the work
/// one engine call did.
#[derive(Debug, Default, Clone, Copy)]
pub struct Snapshot {
    pub nanos: u64,
    pub syncs: u64,
    pub bytes: u64,
    pub segment_files: u64,
}

impl std::ops::Sub for Snapshot {
    type Output = Snapshot;
    fn sub(self, before: Snapshot) -> Snapshot {
        Snapshot {
            nanos: self.nanos - before.nanos,
            syncs: self.syncs - before.syncs,
            bytes: self.bytes - before.bytes,
            segment_files: self.segment_files - before.segment_files,
        }
    }
}

impl Counters {
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            nanos: self.nanos.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            segment_files: self.segment_files.load(Ordering::Relaxed),
        }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }
}

/// `RealVfs` plus [`Counters`].
#[derive(Debug, Default)]
pub struct CountingVfs {
    inner: RealVfs,
    counters: Arc<Counters>,
}

impl CountingVfs {
    pub fn counters(&self) -> Arc<Counters> {
        Arc::clone(&self.counters)
    }

    fn wrap(&self, file: io::Result<Box<dyn VfsFile>>) -> io::Result<Box<dyn VfsFile>> {
        file.map(|inner| {
            Box::new(CountingFile {
                inner,
                counters: Arc::clone(&self.counters),
            }) as Box<dyn VfsFile>
        })
    }
}

fn is_segment(path: &Path) -> bool {
    path.parent()
        .and_then(Path::file_name)
        .is_some_and(|dir| dir == "segments")
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    counters: Arc<Counters>,
}

impl VfsFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        Counters::bump(&self.counters.bytes, buf.len() as u64);
        let inner = &mut self.inner;
        self.counters.timed(|| inner.write_all(buf))
    }
    fn sync_data(&mut self) -> io::Result<()> {
        Counters::bump(&self.counters.syncs, 1);
        let inner = &mut self.inner;
        self.counters.timed(|| inner.sync_data())
    }
    fn sync_all(&mut self) -> io::Result<()> {
        Counters::bump(&self.counters.syncs, 1);
        let inner = &mut self.inner;
        self.counters.timed(|| inner.sync_all())
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let inner = &mut self.inner;
        self.counters.timed(|| inner.set_len(len))
    }
}

impl Vfs for CountingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.counters.timed(|| self.inner.read(path))
    }
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = self.counters.timed(|| self.inner.open_write(path));
        self.wrap(file)
    }
    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if is_segment(path) {
            Counters::bump(&self.counters.segment_files, 1);
        }
        let file = self.counters.timed(|| self.inner.create_truncate(path));
        self.wrap(file)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = self.counters.timed(|| self.inner.open_append(path));
        self.wrap(file)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.counters.timed(|| self.inner.create_dir_all(path))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.counters.timed(|| self.inner.rename(from, to))
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.counters.timed(|| self.inner.remove_file(path))
    }
    fn read_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        self.counters.timed(|| self.inner.read_dir(path))
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        Counters::bump(&self.counters.syncs, 1);
        self.counters.timed(|| self.inner.sync_dir(path))
    }
    fn exists(&self, path: &Path) -> bool {
        self.counters.timed(|| self.inner.exists(path))
    }
}
