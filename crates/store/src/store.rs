//! The audit store: one journal + one artifact cache under a run identity.
//!
//! [`AuditStore`] is what the pipeline holds. It scopes the write-ahead
//! journal to a *fingerprint* — a caller-computed digest of seed and
//! configuration — so frames from an incompatible earlier run are never
//! replayed into the wrong world: on open, a journal whose header frame
//! disagrees with the requested fingerprint is discarded (the artifact
//! pack, being content-addressed, always survives and simply misses).
//!
//! The store also hosts the crash lever the resumability tests lean on:
//! [`AuditStore::set_kill_after`] arms a frame budget, and the append that
//! would exceed it fails with [`StoreError::Interrupted`] instead of
//! writing — from the pipeline's point of view, the process died right
//! there, except the test harness gets to keep the handle and resume.

use crate::backend::{Backend, NullBackend};
use crate::cache::{ArtifactCache, CacheSnapshot};
use crate::frame::Frame;
use crate::hash::ContentHash;
use crate::journal::Journal;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Journal file name inside a store directory.
pub const JOURNAL_FILE: &str = "journal.wal";
/// Artifact pack file name inside a store directory.
pub const PACK_FILE: &str = "artifacts.pack";

/// Reserved frame kind for the run-header frame the store writes itself.
pub const K_RUN_HEADER: u16 = 0x0001;

/// Store operation failure.
#[derive(Debug)]
pub enum StoreError {
    /// The armed kill switch fired: the frame was *not* written.
    Interrupted,
    /// The backend failed.
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Interrupted => f.write_str("store kill switch fired"),
            StoreError::Io(e) => write!(f, "store backend error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Durability counters, reported alongside the pipeline's cache stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Frames appended to the journal by this handle.
    pub frames_written: u64,
    /// Frames recovered from the journal at open.
    pub frames_replayed: u64,
    /// Artifact lookups served from the pack.
    pub artifact_hits: u64,
    /// Artifact lookups that missed (and were computed + stored).
    pub artifact_misses: u64,
}

/// Journal + artifact cache, scoped to one run fingerprint.
pub struct AuditStore {
    journal: Journal,
    artifacts: ArtifactCache,
    fingerprint: u64,
    /// Units recovered at open, keyed by (kind, key). Later frames win so a
    /// unit re-recorded after partial corruption replays its newest copy.
    replayed: BTreeMap<(u16, u64), Vec<u8>>,
    /// Units recorded through this handle. Their payloads are not kept: a
    /// run reads back only what it replayed at open.
    recorded: Mutex<BTreeSet<(u16, u64)>>,
    /// Every artifact address this handle touched (get, peek, or put) —
    /// the liveness census longitudinal compaction keeps per epoch.
    touched: Mutex<BTreeSet<ContentHash>>,
    /// Appends allowed before [`StoreError::Interrupted`]; `u64::MAX` = off.
    kill_after: AtomicU64,
}

impl AuditStore {
    /// Open a store on `backend` for the run identified by `fingerprint`.
    ///
    /// With `resume` the existing journal is replayed — unless its header
    /// frame carries a different fingerprint, in which case it is discarded
    /// (resuming someone else's run would be corruption, not convenience).
    /// Without `resume` the journal always starts empty. The artifact pack
    /// is opened as-is in both cases.
    pub fn open(
        backend: Arc<dyn Backend>,
        fingerprint: u64,
        resume: bool,
    ) -> Result<AuditStore, StoreError> {
        let artifacts = ArtifactCache::open(backend.clone(), PACK_FILE)?;
        let (journal, replayed) = if resume {
            let (journal, replay) = Journal::open(backend.clone(), JOURNAL_FILE)?;
            let compatible = replay
                .frames
                .first()
                .map(|f| {
                    f.kind == K_RUN_HEADER
                        && f.payload.len() >= 8
                        && u64::from_le_bytes(f.payload[..8].try_into().expect("eight bytes"))
                            == fingerprint
                })
                .unwrap_or(false);
            if compatible {
                let mut map = BTreeMap::new();
                for Frame { kind, key, payload } in replay.frames {
                    map.insert((kind, key), payload);
                }
                (journal, map)
            } else {
                (Journal::open_fresh(backend, JOURNAL_FILE)?, BTreeMap::new())
            }
        } else {
            (Journal::open_fresh(backend, JOURNAL_FILE)?, BTreeMap::new())
        };

        let store = AuditStore {
            journal,
            artifacts,
            fingerprint,
            replayed,
            recorded: Mutex::new(BTreeSet::new()),
            touched: Mutex::new(BTreeSet::new()),
            kill_after: AtomicU64::new(u64::MAX),
        };
        // A fresh journal gets its header frame immediately, so even a run
        // killed after zero units resumes against the right identity.
        if !store.has_unit(K_RUN_HEADER, 0) {
            store
                .journal
                .append(K_RUN_HEADER, 0, fingerprint.to_le_bytes().to_vec())?;
        }
        Ok(store)
    }

    /// A throwaway store over a [`NullBackend`]: the journaled pipeline runs
    /// against it unchanged, replays nothing and leaves nothing behind. This
    /// is how an in-memory audit runs the one journaled stage graph.
    pub fn throwaway() -> AuditStore {
        AuditStore::open(Arc::new(NullBackend), 0, false).expect("a null backend never fails")
    }

    /// The run identity this store was opened for.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The payload of a unit recovered at open, if any. Units recorded
    /// through this handle are not read back; ask [`Self::has_unit`].
    pub fn lookup_unit(&self, kind: u16, key: u64) -> Option<&[u8]> {
        self.replayed.get(&(kind, key)).map(Vec::as_slice)
    }

    /// Whether a unit is journaled: recovered at open or recorded through
    /// this handle.
    pub fn has_unit(&self, kind: u16, key: u64) -> bool {
        self.replayed.contains_key(&(kind, key))
            || self
                .recorded
                .lock()
                .expect("recorded set lock")
                .contains(&(kind, key))
    }

    /// Durably record a completed unit. Honors the kill switch: once the
    /// armed budget is exhausted, nothing is written and the caller sees
    /// [`StoreError::Interrupted`] — the simulated crash point.
    pub fn record_unit(&self, kind: u16, key: u64, payload: Vec<u8>) -> Result<(), StoreError> {
        if self.journal.frames_written() >= self.kill_after.load(Ordering::Relaxed) {
            return Err(StoreError::Interrupted);
        }
        self.journal.append(kind, key, payload)?;
        self.recorded
            .lock()
            .expect("recorded set lock")
            .insert((kind, key));
        Ok(())
    }

    /// Look up an analysis artifact by content address.
    pub fn artifact_get(&self, hash: &ContentHash) -> Option<Vec<u8>> {
        self.touch(hash);
        self.artifacts.get(hash)
    }

    /// Look up an artifact without counting a hit or miss — for side caches
    /// whose reuse is reported on a dedicated counter, keeping
    /// [`StoreStats::artifact_hits`]/[`StoreStats::artifact_misses`] an
    /// exact census of per-bot analyses.
    pub fn artifact_peek(&self, hash: &ContentHash) -> Option<Vec<u8>> {
        self.touch(hash);
        self.artifacts.peek(hash)
    }

    /// Store an analysis artifact (idempotent, not subject to the kill
    /// switch — artifacts are pure content, the journal is the commit
    /// point).
    pub fn artifact_put(&self, hash: ContentHash, blob: &[u8]) -> Result<(), StoreError> {
        self.touch(&hash);
        Ok(self.artifacts.put(hash, blob)?)
    }

    fn touch(&self, hash: &ContentHash) {
        self.touched.lock().expect("touched set lock").insert(*hash);
    }

    /// Every artifact address this handle referenced, sorted and
    /// deduplicated. A run that completes through one handle therefore
    /// reports the full set of pack keys it depends on — what the epoch
    /// chain records so generational compaction never drops a live blob.
    pub fn referenced_keys(&self) -> Vec<ContentHash> {
        self.touched
            .lock()
            .expect("touched set lock")
            .iter()
            .copied()
            .collect()
    }

    /// Compact the artifact pack down to `live` addresses.
    pub fn compact_artifacts(&self, live: &[ContentHash]) -> Result<usize, StoreError> {
        Ok(self.artifacts.compact(live)?)
    }

    /// Current artifact pack shape.
    pub fn artifact_snapshot(&self) -> CacheSnapshot {
        self.artifacts.snapshot()
    }

    /// Allow `frames` more journal appends, then fail with
    /// [`StoreError::Interrupted`]. The budget counts appends made through
    /// this handle (the header frame of a fresh store has already spent
    /// one by the time a caller can arm the switch).
    pub fn set_kill_after(&self, frames: u64) {
        self.kill_after.store(frames, Ordering::Relaxed);
    }

    /// Disarm the kill switch (the "restarted process" half of a test).
    pub fn clear_kill(&self) {
        self.kill_after.store(u64::MAX, Ordering::Relaxed);
    }

    /// Durability counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            frames_written: self.journal.frames_written(),
            frames_replayed: self.journal.frames_replayed(),
            artifact_hits: self.artifacts.hits(),
            artifact_misses: self.artifacts.misses(),
        }
    }
}

impl fmt::Debug for AuditStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuditStore")
            .field("fingerprint", &self.fingerprint)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn mem() -> Arc<MemBackend> {
        Arc::new(MemBackend::new())
    }

    #[test]
    fn units_survive_reopen_with_resume() {
        let backend = mem();
        let store = AuditStore::open(backend.clone(), 99, false).unwrap();
        store.record_unit(3, 0, b"unit zero".to_vec()).unwrap();
        store.record_unit(3, 1, b"unit one".to_vec()).unwrap();
        drop(store);

        let store = AuditStore::open(backend.clone(), 99, true).unwrap();
        assert_eq!(store.lookup_unit(3, 0).as_deref(), Some(&b"unit zero"[..]));
        assert_eq!(store.lookup_unit(3, 1).as_deref(), Some(&b"unit one"[..]));
        assert_eq!(store.stats().frames_replayed, 3); // header + 2 units

        // Without resume, history is gone (but the store works).
        let store = AuditStore::open(backend, 99, false).unwrap();
        assert_eq!(store.lookup_unit(3, 0), None);
    }

    #[test]
    fn fingerprint_mismatch_discards_journal() {
        let backend = mem();
        let store = AuditStore::open(backend.clone(), 1, false).unwrap();
        store.record_unit(3, 0, b"world one".to_vec()).unwrap();
        drop(store);

        let store = AuditStore::open(backend, 2, true).unwrap();
        assert_eq!(
            store.lookup_unit(3, 0),
            None,
            "foreign frames must not replay"
        );
        assert_eq!(store.stats().frames_replayed, 0);
    }

    #[test]
    fn kill_switch_interrupts_and_resume_continues() {
        let backend = mem();
        let store = AuditStore::open(backend.clone(), 5, false).unwrap();
        store.set_kill_after(3); // header already wrote 1: two units fit
        store.record_unit(3, 0, b"a".to_vec()).unwrap();
        store.record_unit(3, 1, b"b".to_vec()).unwrap();
        let err = store.record_unit(3, 2, b"c".to_vec()).unwrap_err();
        assert!(matches!(err, StoreError::Interrupted));
        assert_eq!(store.stats().frames_written, 3);

        let store = AuditStore::open(backend, 5, true).unwrap();
        assert!(store.lookup_unit(3, 1).is_some());
        assert_eq!(store.lookup_unit(3, 2), None);
        store.record_unit(3, 2, b"c".to_vec()).unwrap();
        assert!(store.has_unit(3, 2));
    }

    #[test]
    fn throwaway_store_records_but_keeps_nothing() {
        let store = AuditStore::throwaway();
        store.record_unit(3, 0, b"unit".to_vec()).unwrap();
        assert!(store.has_unit(3, 0));
        assert_eq!(store.lookup_unit(3, 0), None, "payloads are not kept");
        let h = ContentHash::of(b"bot");
        store.artifact_put(h, b"blob").unwrap();
        assert_eq!(store.stats().frames_written, 2); // header + unit

        let reopened = AuditStore::open(Arc::new(NullBackend), 0, true).unwrap();
        assert!(!reopened.has_unit(3, 0));
        assert_eq!(reopened.artifact_get(&h), None);
        assert_eq!(reopened.stats().frames_replayed, 0);
    }

    #[test]
    fn artifacts_survive_fresh_journal() {
        let backend = mem();
        let store = AuditStore::open(backend.clone(), 7, false).unwrap();
        let h = ContentHash::of(b"bot content");
        store.artifact_put(h, b"analysis blob").unwrap();
        drop(store);

        // Fresh (non-resume) run: journal empty, pack warm.
        let store = AuditStore::open(backend, 7, false).unwrap();
        assert_eq!(
            store.artifact_get(&h).as_deref(),
            Some(&b"analysis blob"[..])
        );
        assert_eq!(store.stats().artifact_hits, 1);
    }

    #[test]
    fn referenced_keys_census_every_touched_address() {
        let backend = mem();
        let store = AuditStore::open(backend, 7, false).unwrap();
        let put = ContentHash::of(b"computed");
        let hit = ContentHash::of(b"warm");
        let peeked = ContentHash::of(b"side-cache");
        let missed = ContentHash::of(b"absent");
        store.artifact_put(hit, b"warm blob").unwrap();
        store.artifact_put(put, b"fresh blob").unwrap();
        assert!(store.artifact_get(&hit).is_some());
        assert!(store.artifact_peek(&peeked).is_none());
        assert!(store.artifact_get(&missed).is_none());
        // Gets, peeks, and puts all count — even ones that missed, since a
        // miss that is then computed + put resolves to the same address —
        // and repeats deduplicate.
        assert!(store.artifact_get(&hit).is_some());
        let keys = store.referenced_keys();
        let mut expected = vec![put, hit, peeked, missed];
        expected.sort();
        assert_eq!(keys, expected);
    }

    #[test]
    fn compaction_reports_snapshot() {
        let backend = mem();
        let store = AuditStore::open(backend, 7, false).unwrap();
        let live = ContentHash::of(b"live");
        store.artifact_put(live, b"keep").unwrap();
        store
            .artifact_put(ContentHash::of(b"dead"), b"drop")
            .unwrap();
        assert_eq!(store.artifact_snapshot().entries, 2);
        assert_eq!(store.compact_artifacts(&[live]).unwrap(), 1);
        assert_eq!(store.artifact_snapshot().entries, 1);
    }
}
