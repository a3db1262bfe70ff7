//! Tracing taken from outside the program: spans around the benchmark's
//! own calls into each layer, and a timing wrapper around the public
//! `store::Backend` trait. Nothing here changes what the program does.

use std::cell::RefCell;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use store::Backend;

/// One closed span: a layer call, its parent, and the request (audit,
/// epoch or plan) it served. Times are microseconds since the tracer began.
struct SpanRec {
    id: usize,
    parent: Option<usize>,
    request: u64,
    name: &'static str,
    start_us: f64,
    end_us: f64,
}

/// In-memory span recorder for the traced run; written out once at the
/// end. A disabled tracer times calls but keeps nothing.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: RefCell<Vec<SpanRec>>,
    open: RefCell<Vec<usize>>,
    next_id: RefCell<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            next_id: RefCell::new(0),
        }
    }

    /// Run `f` as span `name` of `request`, nested under whichever span is
    /// open, and return its result with its wall time in milliseconds.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        if !self.enabled {
            let out = f();
            return (out, start.elapsed().as_secs_f64() * 1e3);
        }
        let id = {
            let mut next = self.next_id.borrow_mut();
            *next += 1;
            *next - 1
        };
        let parent = self.open.borrow().last().copied();
        self.open.borrow_mut().push(id);
        let out = f();
        let end = Instant::now();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut().push(SpanRec {
            id,
            parent,
            request,
            name,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            end_us: end.duration_since(self.origin).as_secs_f64() * 1e6,
        });
        (out, end.duration_since(start).as_secs_f64() * 1e3)
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Write every span as one JSON object per line, ordered by start.
    pub fn write(&self, path: &std::path::Path) -> io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut spans = self.spans.borrow_mut();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.id, s.request, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// Calls, bytes and busy time for one `Backend` operation.
#[derive(Default)]
pub struct OpStats {
    pub count: AtomicU64,
    pub bytes: AtomicU64,
    pub nanos: AtomicU64,
}

impl OpStats {
    fn record(&self, bytes: usize, started: Instant) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    pub fn ms(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// Per-operation totals of a [`TimedBackend`].
#[derive(Default)]
pub struct StoreStats {
    pub append: OpStats,
    pub read: OpStats,
    pub write_atomic: OpStats,
    pub remove: OpStats,
}

impl StoreStats {
    /// Busy time over every operation, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.append.ms() + self.read.ms() + self.write_atomic.ms() + self.remove.ms()
    }
}

/// A `Backend` that forwards to another and times every call. Worker
/// threads share it, so totals are atomics.
pub struct TimedBackend {
    inner: Arc<dyn Backend>,
    pub stats: Arc<StoreStats>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn Backend>) -> TimedBackend {
        TimedBackend {
            inner,
            stats: Arc::new(StoreStats::default()),
        }
    }
}

impl Backend for TimedBackend {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        let t = Instant::now();
        let out = self.inner.read(name);
        let bytes = match &out {
            Ok(Some(b)) => b.len(),
            _ => 0,
        };
        self.stats.read.record(bytes, t);
        out
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let out = self.inner.write_atomic(name, bytes);
        self.stats.write_atomic.record(bytes.len(), t);
        out
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let out = self.inner.append(name, bytes);
        self.stats.append.record(bytes.len(), t);
        out
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let t = Instant::now();
        let out = self.inner.remove(name);
        self.stats.remove.record(0, t);
        out
    }
}
