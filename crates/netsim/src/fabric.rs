//! The network fabric: mounted services, dispatch, faults, and tracing.
//!
//! A [`Network`] is a cheaply-clonable handle to the shared simulation state
//! (virtual clock, RNG, host table, trace log). Components keep their own
//! clone — the crawler, every bot backend, and the honeypot sink all talk to
//! the same fabric, exactly as they would share the same Internet.

use crate::clock::{SimDuration, SimInstant, VirtualClock};
use crate::dns::{Resolution, Resolver};
use crate::error::NetError;
use crate::fault::{FaultOutcome, FaultPlan};
use crate::http::{Request, Response, Status};
use crate::latency::LatencyModel;
use crate::trace::{TraceEntry, TraceLog};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Context handed to a service for one request.
pub struct ServiceCtx<'a> {
    /// Current virtual time.
    pub now: SimInstant,
    /// Deterministic RNG slice for this request.
    pub rng: &'a mut dyn RngCore,
    /// Label of the requesting client (not authenticated — like a
    /// user-agent, it is whatever the client claims).
    pub requester: &'a str,
}

/// A simulated host: anything that can answer an HTTP-shaped request.
///
/// Services are synchronous: the fabric has already accounted for network
/// latency by the time `handle` runs, so handlers just compute a response.
pub trait Service: Send {
    /// Answer one request.
    fn handle(&mut self, req: &Request, ctx: &mut ServiceCtx<'_>) -> Response;
}

/// Blanket impl so closures can be mounted directly in tests.
impl<F> Service for F
where
    F: FnMut(&Request, &mut ServiceCtx<'_>) -> Response + Send,
{
    fn handle(&mut self, req: &Request, ctx: &mut ServiceCtx<'_>) -> Response {
        self(req, ctx)
    }
}

struct HostEntry {
    service: Box<dyn Service>,
    latency: LatencyModel,
    faults: FaultPlan,
}

/// Hosts are individually locked so concurrent requests to *different*
/// hosts run their handlers in parallel; the global lock is only held for
/// DNS, per-request seed derivation, and trace recording.
struct NetworkInner {
    clock: VirtualClock,
    rng: StdRng,
    hosts: BTreeMap<String, Arc<Mutex<HostEntry>>>,
    resolver: Resolver,
    trace: TraceLog,
    dns_latency: SimDuration,
}

/// Shared handle to the simulated network.
#[derive(Clone)]
pub struct Network {
    inner: Arc<Mutex<NetworkInner>>,
}

impl Network {
    /// A fresh network with its own clock, seeded deterministically.
    pub fn new(seed: u64) -> Network {
        Network::with_clock(seed, VirtualClock::new())
    }

    /// A fresh network sharing an existing clock (so the platform simulation
    /// and the network agree on "now").
    pub fn with_clock(seed: u64, clock: VirtualClock) -> Network {
        Network {
            inner: Arc::new(Mutex::new(NetworkInner {
                clock,
                rng: StdRng::seed_from_u64(seed),
                hosts: BTreeMap::new(),
                resolver: Resolver::new(),
                trace: TraceLog::new(),
                dns_latency: SimDuration::from_millis(20),
            })),
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> VirtualClock {
        self.inner.lock().clock.clone()
    }

    /// Mount a service at `host` with an explicit latency model and fault
    /// plan. Remounting a host replaces it.
    pub fn mount_with(
        &self,
        host: &str,
        service: impl Service + 'static,
        latency: LatencyModel,
        faults: FaultPlan,
    ) {
        self.inner.lock().hosts.insert(
            host.to_ascii_lowercase(),
            Arc::new(Mutex::new(HostEntry {
                service: Box::new(service),
                latency,
                faults,
            })),
        );
    }

    /// Mount a healthy, fault-free service at `host`.
    pub fn mount(&self, host: &str, service: impl Service + 'static) {
        self.mount_with(host, service, LatencyModel::healthy(), FaultPlan::none());
    }

    /// Remove a host entirely (it will NXDOMAIN afterwards).
    pub fn unmount(&self, host: &str) -> bool {
        self.inner
            .lock()
            .hosts
            .remove(&host.to_ascii_lowercase())
            .is_some()
    }

    /// Register a DNS-style alias.
    pub fn alias(&self, alias: &str, canonical: &str) {
        self.inner.lock().resolver.alias(alias, canonical);
    }

    /// Is anything mounted at `host` (after aliasing)?
    pub fn is_reachable(&self, host: &str) -> bool {
        let inner = self.inner.lock();
        let mounted = |h: &str| inner.hosts.contains_key(h);
        matches!(
            inner.resolver.resolve(host, mounted),
            Resolution::Canonical(_)
        )
    }

    /// Dispatch a single request with a wait budget of `timeout`.
    ///
    /// This is one network round-trip: DNS resolution, fault roll, latency
    /// sample, service invocation, trace record. Redirects are *not*
    /// followed here — that is client policy (see [`crate::client`]).
    ///
    /// Locking: the global lock is taken twice, briefly — once for DNS plus
    /// per-request seed derivation, once to record the trace entry. The
    /// service handler itself runs under its host's own lock, so requests
    /// to different hosts proceed concurrently. The two global sections and
    /// the host section never nest, which rules out lock-order inversions.
    pub fn dispatch(
        &self,
        requester: &str,
        req: &Request,
        timeout: SimDuration,
    ) -> Result<Response, NetError> {
        // Formatted once: it sizes the request, names it in the trace, and
        // is the target of an injected extra redirect.
        let url = req.url.to_string();
        let request_bytes = url.len() + req.body.len();

        // Phase 1 (global lock): DNS + one RNG draw that seeds this
        // request's private stream. Exactly one draw per dispatch keeps the
        // global stream a function of dispatch count alone.
        let (entry, clock, canonical, mut rng) = {
            let mut inner = self.inner.lock();
            let inner = &mut *inner;
            let hosts = &inner.hosts;
            let resolution = inner
                .resolver
                .resolve(&req.url.host, |h| hosts.contains_key(h));
            let canonical = match resolution {
                Resolution::Canonical(c) => c,
                Resolution::NxDomain => {
                    inner.clock.advance(inner.dns_latency);
                    inner.trace.record(TraceEntry {
                        at: inner.clock.now(),
                        requester: requester.to_string(),
                        method: req.method,
                        url,
                        status: None,
                        latency: inner.dns_latency,
                        request_bytes,
                    });
                    return Err(NetError::DnsFailure {
                        host: req.url.host.clone(),
                    });
                }
            };
            let entry = Arc::clone(
                inner
                    .hosts
                    .get(&canonical)
                    .expect("resolved host is mounted"),
            );
            let seed = inner.rng.next_u64();
            (
                entry,
                inner.clock.clone(),
                canonical,
                StdRng::seed_from_u64(seed),
            )
        };

        // Phase 2 (host lock): fault roll, latency, service invocation.
        let (result, status, latency) = {
            let mut entry = entry.lock();

            // Fault roll decides whether the real handler ever runs.
            let outcome = if entry.faults.is_none() {
                FaultOutcome::Deliver
            } else {
                entry.faults.roll(&mut rng)
            };

            match outcome {
                FaultOutcome::Refuse => {
                    let lat = SimDuration::from_millis(5);
                    clock.advance(lat);
                    (
                        Err(NetError::ConnectionRefused { host: canonical }),
                        None,
                        lat,
                    )
                }
                FaultOutcome::BlackHole => {
                    clock.advance(timeout);
                    (Err(NetError::Timeout { waited: timeout }), None, timeout)
                }
                FaultOutcome::NotFound
                | FaultOutcome::ServerError
                | FaultOutcome::ExtraRedirect => {
                    let latency = entry.latency.sample(&mut rng);
                    if latency > timeout {
                        clock.advance(timeout);
                        (Err(NetError::Timeout { waited: timeout }), None, timeout)
                    } else {
                        clock.advance(latency);
                        let resp = match outcome {
                            FaultOutcome::NotFound => Response::status(Status::NotFound),
                            FaultOutcome::ServerError => Response::status(Status::InternalError),
                            _ => {
                                // Bounce the client through the same URL once
                                // more; combined with heavy-tail latency this
                                // reproduces the paper's "slow redirect links".
                                Response::redirect(&url)
                            }
                        };
                        let status = resp.status;
                        (Ok(resp), Some(status), latency)
                    }
                }
                FaultOutcome::Deliver => {
                    let latency = entry.latency.sample(&mut rng);
                    if latency > timeout {
                        clock.advance(timeout);
                        (Err(NetError::Timeout { waited: timeout }), None, timeout)
                    } else {
                        clock.advance(latency);
                        let now = clock.now();
                        let mut ctx = ServiceCtx {
                            now,
                            rng: &mut rng,
                            requester,
                        };
                        let resp = entry.service.handle(req, &mut ctx);
                        let status = resp.status;
                        (Ok(resp), Some(status), latency)
                    }
                }
            }
        };

        // Phase 3 (global lock): record the round-trip.
        self.inner.lock().trace.record(TraceEntry {
            at: clock.now(),
            requester: requester.to_string(),
            method: req.method,
            url,
            status,
            latency,
            request_bytes,
        });
        result
    }

    /// Run `f` over the trace log (read-only access without cloning).
    pub fn with_trace<T>(&self, f: impl FnOnce(&TraceLog) -> T) -> T {
        f(&self.inner.lock().trace)
    }

    /// Number of requests observed so far.
    pub fn request_count(&self) -> usize {
        self.inner.lock().trace.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Method, Url};

    fn echo_service() -> impl Service {
        |req: &Request, _ctx: &mut ServiceCtx<'_>| {
            Response::ok(format!("{} {}", req.method, req.url.path))
        }
    }

    #[test]
    fn dispatch_reaches_mounted_service() {
        let net = Network::new(1);
        net.mount("example.com", echo_service());
        let resp = net
            .dispatch(
                "t",
                &Request::get(Url::https("example.com", "/hello")),
                SimDuration::from_secs(10),
            )
            .unwrap();
        assert_eq!(resp.text(), "GET /hello");
        assert!(
            net.clock().now() > SimInstant::EPOCH,
            "latency advanced the clock"
        );
    }

    #[test]
    fn unknown_host_is_dns_failure() {
        let net = Network::new(1);
        let err = net
            .dispatch(
                "t",
                &Request::get(Url::https("nope.example", "/")),
                SimDuration::from_secs(10),
            )
            .unwrap_err();
        assert!(matches!(err, NetError::DnsFailure { .. }));
    }

    #[test]
    fn alias_resolves_to_canonical() {
        let net = Network::new(1);
        net.mount("new.example", echo_service());
        net.alias("old.example", "new.example");
        assert!(net.is_reachable("old.example"));
        let resp = net
            .dispatch(
                "t",
                &Request::get(Url::https("old.example", "/x")),
                SimDuration::from_secs(10),
            )
            .unwrap();
        assert!(resp.status.is_success());
    }

    #[test]
    fn black_hole_times_out_and_burns_budget() {
        let net = Network::new(1);
        net.mount_with(
            "hole.example",
            echo_service(),
            LatencyModel::Fixed { ms: 10 },
            FaultPlan {
                black_hole: 1.0,
                ..FaultPlan::default()
            },
        );
        let before = net.clock().now();
        let err = net
            .dispatch(
                "t",
                &Request::get(Url::https("hole.example", "/")),
                SimDuration::from_secs(5),
            )
            .unwrap_err();
        assert_eq!(
            err,
            NetError::Timeout {
                waited: SimDuration::from_secs(5)
            }
        );
        assert_eq!(net.clock().now().duration_since(before).as_millis(), 5000);
    }

    #[test]
    fn slow_host_times_out() {
        let net = Network::new(1);
        net.mount_with(
            "slow.example",
            echo_service(),
            LatencyModel::Fixed { ms: 9000 },
            FaultPlan::none(),
        );
        let err = net
            .dispatch(
                "t",
                &Request::get(Url::https("slow.example", "/")),
                SimDuration::from_secs(5),
            )
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout { .. }));
    }

    #[test]
    fn forced_faults_replace_response() {
        let net = Network::new(1);
        net.mount_with(
            "bad.example",
            echo_service(),
            LatencyModel::Fixed { ms: 1 },
            FaultPlan {
                not_found: 1.0,
                ..FaultPlan::default()
            },
        );
        let resp = net
            .dispatch(
                "t",
                &Request::get(Url::https("bad.example", "/")),
                SimDuration::from_secs(5),
            )
            .unwrap();
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn extra_redirect_points_back_at_url() {
        let net = Network::new(1);
        net.mount_with(
            "loop.example",
            echo_service(),
            LatencyModel::Fixed { ms: 1 },
            FaultPlan {
                extra_redirect: 1.0,
                ..FaultPlan::default()
            },
        );
        let url = Url::https("loop.example", "/page");
        let resp = net
            .dispatch("t", &Request::get(url.clone()), SimDuration::from_secs(5))
            .unwrap();
        assert!(resp.status.is_redirect());
        assert_eq!(resp.header("location"), Some(url.to_string().as_str()));
    }

    #[test]
    fn trace_records_every_dispatch() {
        let net = Network::new(1);
        net.mount("example.com", echo_service());
        for i in 0..3 {
            let _ = net.dispatch(
                "crawler",
                &Request::get(Url::https("example.com", &format!("/p{i}"))),
                SimDuration::from_secs(5),
            );
        }
        let _ = net.dispatch(
            "crawler",
            &Request::get(Url::https("gone", "/")),
            SimDuration::from_secs(5),
        );
        assert_eq!(net.request_count(), 4);
        net.with_trace(|t| {
            assert_eq!(t.by_requester("crawler").len(), 4);
            assert_eq!(t.matching_url("/p1").len(), 1);
            assert_eq!(t.entries().last().unwrap().status, None);
        });
    }

    #[test]
    fn unmount_causes_nxdomain() {
        let net = Network::new(1);
        net.mount("x.example", echo_service());
        assert!(net.is_reachable("x.example"));
        assert!(net.unmount("x.example"));
        assert!(!net.is_reachable("x.example"));
        assert!(!net.unmount("x.example"));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let net = Network::new(42);
            net.mount_with(
                "r.example",
                echo_service(),
                LatencyModel::healthy(),
                FaultPlan {
                    not_found: 0.3,
                    ..FaultPlan::default()
                },
            );
            let mut outcomes = Vec::new();
            for _ in 0..20 {
                let r = net.dispatch(
                    "t",
                    &Request::get(Url::https("r.example", "/")),
                    SimDuration::from_secs(5),
                );
                outcomes.push(r.map(|r| r.status.code()).map_err(|e| e.to_string()));
            }
            (outcomes, net.clock().now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn head_requests_dispatch_like_get() {
        let net = Network::new(1);
        net.mount("example.com", echo_service());
        let resp = net
            .dispatch(
                "t",
                &Request {
                    method: Method::Head,
                    ..Request::get(Url::https("example.com", "/h"))
                },
                SimDuration::from_secs(5),
            )
            .unwrap();
        assert_eq!(resp.text(), "HEAD /h");
    }
}
