//! # store — crash-safe persistence for the audit pipeline
//!
//! The paper's measurement ran for weeks against live services and had to
//! survive captchas, rate limits, and crashes mid-crawl (§4.2). This crate
//! is the durability layer that gives the reproduction the same property:
//!
//! * [`frame`] — length-prefixed, CRC-checksummed records; decoding any
//!   byte soup recovers the longest valid prefix and never panics;
//! * [`journal`] — the append-only write-ahead log of completed pipeline
//!   units, with truncate-to-valid-prefix crash recovery;
//! * [`cache`] — the content-addressed artifact cache: canonical input
//!   bytes hash to an address, blobs live in an append-only pack with
//!   atomic compaction, so unchanged bots are never re-analyzed across
//!   runs;
//! * [`backend`] — one file-shaped trait with hermetic in-memory,
//!   crash-safe on-disk and keep-nothing implementations, so every test
//!   can run against RAM, every production run against a directory, and
//!   an in-memory audit against a throwaway store;
//! * [`store`] — the [`AuditStore`] facade the pipeline holds: journal +
//!   pack scoped to a seed/config fingerprint, plus the kill-switch used
//!   to simulate crashes at exact frame boundaries;
//! * [`validators`] — the journaled HTTP-validator cache behind the
//!   conditional-fetch incremental crawl: URL → (ETag, cached body)
//!   entries that let a warm re-audit validate unchanged pages for one
//!   cheap round-trip instead of a full fetch + parse.
//!
//! Like `matchkit`, the crate is intentionally dependency-free: payloads
//! are opaque bytes (serialization stays with the caller), hashing and
//! checksumming are implemented here, and the property tests use an
//! in-crate xorshift generator.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod cache;
pub mod checksum;
pub mod frame;
pub mod hash;
pub mod journal;
pub mod store;
pub mod validators;

pub use backend::{Backend, DiskBackend, MemBackend, NullBackend, ScopedBackend};
pub use cache::{ArtifactCache, CacheSnapshot};
pub use checksum::crc32;
pub use frame::{decode_all, Decoded, Frame, StopReason};
pub use hash::{fingerprint, fnv64, ContentHash};
pub use journal::{Journal, Replay};
pub use store::{AuditStore, StoreError, StoreStats, JOURNAL_FILE, K_RUN_HEADER, PACK_FILE};
pub use validators::{ValidatorCache, ValidatorCacheStats, VALIDATOR_FILE};
