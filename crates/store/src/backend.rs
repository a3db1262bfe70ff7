//! Storage backends: where journal and pack bytes actually live.
//!
//! One narrow trait covers both the hermetic in-memory backend (tests,
//! examples, fault-injection wrappers) and the real on-disk backend, so
//! every layer above — journal, artifact cache, the resumable pipeline —
//! is backend-agnostic. The trait is deliberately file-shaped rather than
//! key-value-shaped: the journal needs *append* as a first-class, cheap
//! operation, and recovery needs *atomic whole-file replace* (write to a
//! side location, then swing over) so a crash during compaction or
//! truncation can never destroy the previous good state.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;

/// A named-file store. Implementations must be safe to share across the
/// pipeline's worker threads.
pub trait Backend: Send + Sync {
    /// Full contents of `name`, or `None` when it does not exist.
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>>;

    /// Replace `name` with `bytes` atomically: after a crash, a reader sees
    /// either the old contents or the new, never a mix.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Append `bytes` to `name`, creating it if missing.
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Remove `name` (no-op when absent).
    fn remove(&self, name: &str) -> io::Result<()>;
}

/// Hermetic in-memory backend: a locked map of named byte buffers.
#[derive(Default)]
pub struct MemBackend {
    files: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemBackend {
    /// An empty backend.
    pub fn new() -> MemBackend {
        MemBackend::default()
    }

    /// Names currently stored (tests want to look inside).
    pub fn names(&self) -> Vec<String> {
        self.files
            .lock()
            .expect("mem backend lock")
            .keys()
            .cloned()
            .collect()
    }

    /// Overwrite raw bytes directly — the corruption tests' scalpel.
    pub fn poke(&self, name: &str, bytes: Vec<u8>) {
        self.files
            .lock()
            .expect("mem backend lock")
            .insert(name.to_string(), bytes);
    }
}

impl Backend for MemBackend {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(self
            .files
            .lock()
            .expect("mem backend lock")
            .get(name)
            .cloned())
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.files
            .lock()
            .expect("mem backend lock")
            .insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.files
            .lock()
            .expect("mem backend lock")
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.files.lock().expect("mem backend lock").remove(name);
        Ok(())
    }
}

/// A backend that keeps nothing: appends and atomic writes are dropped and
/// every read finds no file. An [`AuditStore`](crate::AuditStore) over it
/// is a throwaway store: see
/// [`AuditStore::throwaway`](crate::AuditStore::throwaway).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullBackend;

impl Backend for NullBackend {
    fn read(&self, _name: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(None)
    }

    fn write_atomic(&self, _name: &str, _bytes: &[u8]) -> io::Result<()> {
        Ok(())
    }

    fn append(&self, _name: &str, _bytes: &[u8]) -> io::Result<()> {
        Ok(())
    }

    fn remove(&self, _name: &str) -> io::Result<()> {
        Ok(())
    }
}

/// On-disk backend rooted at a directory. Appends go straight to the file;
/// atomic writes go through a `.tmp` sibling plus rename, the standard
/// crash-safe replace on POSIX filesystems.
pub struct DiskBackend {
    root: PathBuf,
    // Appends from multiple pipeline workers interleave at the OS level;
    // one lock per backend keeps each logical append contiguous.
    io_lock: Mutex<()>,
}

impl DiskBackend {
    /// Open (creating if needed) a store directory.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DiskBackend> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DiskBackend {
            root,
            io_lock: Mutex::new(()),
        })
    }

    /// The directory this backend writes under.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Scoped backends produce names like `<tenant>/journal`; the write
    /// paths must materialize those intermediate directories or every
    /// scoped operation fails with `NotFound`.
    fn ensure_parent(&self, path: &std::path::Path) -> io::Result<()> {
        match path.parent() {
            Some(parent) if parent != self.root => std::fs::create_dir_all(parent),
            _ => Ok(()),
        }
    }
}

impl Backend for DiskBackend {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        let _io = self.io_lock.lock().expect("disk backend lock");
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let _io = self.io_lock.lock().expect("disk backend lock");
        let tmp = self.path(&format!("{name}.tmp"));
        self.ensure_parent(&tmp)?;
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, self.path(name))
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let _io = self.io_lock.lock().expect("disk backend lock");
        let path = self.path(name);
        self.ensure_parent(&path)?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(bytes)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let _io = self.io_lock.lock().expect("disk backend lock");
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// A view of another backend under a name prefix.
///
/// The fleet service gives every tenant its own journal and artifact pack
/// inside one shared root backend by scoping each tenant's store to
/// `<tenant>/`. Scoping is pure name translation — reads and writes pass
/// straight through — so the crash-safety guarantees of the inner backend
/// are untouched.
pub struct ScopedBackend {
    inner: std::sync::Arc<dyn Backend>,
    prefix: String,
}

impl ScopedBackend {
    /// Scope `inner` under `prefix` (a `/` separator is inserted).
    pub fn new(inner: std::sync::Arc<dyn Backend>, prefix: impl Into<String>) -> ScopedBackend {
        ScopedBackend {
            inner,
            prefix: prefix.into(),
        }
    }

    fn scoped(&self, name: &str) -> String {
        format!("{}/{name}", self.prefix)
    }
}

impl Backend for ScopedBackend {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(&self.scoped(name))
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_atomic(&self.scoped(name), bytes)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(&self.scoped(name), bytes)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(&self.scoped(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(backend: &dyn Backend) {
        assert_eq!(backend.read("a").unwrap(), None);
        backend.append("a", b"one").unwrap();
        backend.append("a", b"two").unwrap();
        assert_eq!(backend.read("a").unwrap().as_deref(), Some(&b"onetwo"[..]));
        backend.write_atomic("a", b"replaced").unwrap();
        assert_eq!(
            backend.read("a").unwrap().as_deref(),
            Some(&b"replaced"[..])
        );
        backend.remove("a").unwrap();
        assert_eq!(backend.read("a").unwrap(), None);
        backend.remove("a").unwrap(); // idempotent
    }

    #[test]
    fn mem_backend_semantics() {
        exercise(&MemBackend::new());
    }

    #[test]
    fn disk_backend_semantics() {
        let dir = std::env::temp_dir().join(format!("store-backend-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = DiskBackend::open(&dir).unwrap();
        exercise(&backend);
        // No stray tmp files after atomic writes.
        backend.write_atomic("b", b"x").unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scoped_backends_are_disjoint_views() {
        let root = std::sync::Arc::new(MemBackend::new());
        let a = ScopedBackend::new(root.clone(), "tenant-a");
        let b = ScopedBackend::new(root.clone(), "tenant-b");
        exercise(&a);
        a.write_atomic("j", b"alpha").unwrap();
        b.write_atomic("j", b"beta").unwrap();
        assert_eq!(a.read("j").unwrap().as_deref(), Some(&b"alpha"[..]));
        assert_eq!(b.read("j").unwrap().as_deref(), Some(&b"beta"[..]));
        assert_eq!(
            root.names(),
            vec!["tenant-a/j".to_string(), "tenant-b/j".to_string()]
        );
    }

    #[test]
    fn scoped_over_disk_backend_creates_tenant_directories() {
        let dir =
            std::env::temp_dir().join(format!("store-scoped-disk-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let root: std::sync::Arc<dyn Backend> =
            std::sync::Arc::new(DiskBackend::open(&dir).unwrap());
        let a = ScopedBackend::new(root.clone(), "tenant-a");
        let b = ScopedBackend::new(root.clone(), "tenant-b");
        // Appends and atomic writes must work on the very first operation,
        // before any tenant directory exists.
        exercise(&a);
        a.append("wal", b"frame").unwrap();
        a.write_atomic("pack", b"artifacts").unwrap();
        b.write_atomic("pack", b"other").unwrap();
        assert_eq!(a.read("wal").unwrap().as_deref(), Some(&b"frame"[..]));
        assert_eq!(a.read("pack").unwrap().as_deref(), Some(&b"artifacts"[..]));
        assert_eq!(b.read("pack").unwrap().as_deref(), Some(&b"other"[..]));
        assert!(dir.join("tenant-a").join("wal").is_file());
        assert!(dir.join("tenant-b").join("pack").is_file());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_poke_overwrites() {
        let mem = MemBackend::new();
        mem.append("j", b"abcdef").unwrap();
        mem.poke("j", b"abc".to_vec());
        assert_eq!(mem.read("j").unwrap().as_deref(), Some(&b"abc"[..]));
        assert_eq!(mem.names(), vec!["j".to_string()]);
    }
}
