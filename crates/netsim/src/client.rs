//! A well-behaved HTTP client over the fabric.
//!
//! Implements the client-side etiquette the paper's scraper needed (§3):
//! per-host politeness rate limiting, bounded redirect following, retry with
//! exponential backoff on transient errors, and honouring server
//! `retry-after` pushback.

use crate::clock::{SimDuration, SimInstant};
use crate::error::NetError;
use crate::fabric::Network;
use crate::http::{Request, Response, Status, Url};
use crate::ratelimit::TokenBucket;
use std::collections::BTreeMap;

/// Client policy knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Identity recorded in the fabric trace (and sent as `user-agent`).
    pub user_agent: String,
    /// Per-request wait budget.
    pub timeout: SimDuration,
    /// Maximum redirect hops per logical fetch.
    pub max_redirects: usize,
    /// Maximum attempts per hop (1 = no retries).
    pub max_attempts: u32,
    /// Base backoff; doubled per retry.
    pub backoff: SimDuration,
    /// Politeness limit per host: (burst, sustained requests/sec). `None`
    /// disables client-side limiting (used by the ablation bench).
    pub politeness: Option<(u32, f64)>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            user_agent: "netsim-client/0.1".into(),
            timeout: SimDuration::from_secs(10),
            max_redirects: 5,
            max_attempts: 3,
            backoff: SimDuration::from_millis(500),
            politeness: Some((2, 1.0)),
        }
    }
}

impl ClientConfig {
    /// The configuration used by the measurement crawler: patient timeout,
    /// gentle rate, a few retries.
    pub fn crawler(user_agent: &str) -> ClientConfig {
        ClientConfig {
            user_agent: user_agent.to_string(),
            timeout: SimDuration::from_secs(15),
            max_redirects: 5,
            max_attempts: 3,
            backoff: SimDuration::from_secs(1),
            politeness: Some((3, 0.5)),
        }
    }

    /// An impolite configuration (no rate limiting, no retries) — the
    /// baseline for the crawler-politeness ablation.
    pub fn impolite(user_agent: &str) -> ClientConfig {
        ClientConfig {
            user_agent: user_agent.to_string(),
            timeout: SimDuration::from_secs(15),
            max_redirects: 5,
            max_attempts: 1,
            backoff: SimDuration::ZERO,
            politeness: None,
        }
    }
}

/// Statistics a client keeps about its own behaviour.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Logical fetches requested by the caller.
    pub fetches: u64,
    /// Individual dispatches (includes redirects and retries).
    pub dispatches: u64,
    /// Retries performed.
    pub retries: u64,
    /// Redirect hops followed.
    pub redirects_followed: u64,
    /// 429 responses received.
    pub rate_limited: u64,
    /// Virtual time spent sleeping for politeness/backoff.
    pub time_waiting: SimDuration,
}

/// An HTTP client bound to one [`Network`].
pub struct HttpClient {
    net: Network,
    config: ClientConfig,
    buckets: BTreeMap<String, TokenBucket>,
    stats: ClientStats,
}

impl HttpClient {
    /// Create a client on `net` with the given policy.
    pub fn new(net: Network, config: ClientConfig) -> HttpClient {
        HttpClient {
            net,
            config,
            buckets: BTreeMap::new(),
            stats: ClientStats::default(),
        }
    }

    /// The client's accumulated behaviour statistics.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// The policy this client runs under.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// Convenience: GET a URL, following redirects and retrying per policy.
    pub fn get(&mut self, url: Url) -> Result<Response, NetError> {
        self.fetch(Request::get(url))
    }

    /// Convenience: POST a body.
    pub fn post(&mut self, url: Url, body: impl Into<Vec<u8>>) -> Result<Response, NetError> {
        self.fetch(Request::post(url, body))
    }

    fn politeness_wait(&mut self, host: &str, now: SimInstant) -> SimDuration {
        let Some((burst, rate)) = self.config.politeness else {
            return SimDuration::ZERO;
        };
        let bucket = self
            .buckets
            .entry(host.to_string())
            .or_insert_with(|| TokenBucket::new(burst, rate, now));
        let mut waited = SimDuration::ZERO;
        let mut at = now;
        // Loop because in pathological configs one refill may not be enough.
        for _ in 0..16 {
            match bucket.try_acquire(at) {
                Ok(()) => return waited,
                Err(wait) => {
                    waited += wait;
                    at = at.checked_add(wait);
                }
            }
        }
        waited
    }

    /// Perform a logical fetch: politeness wait → dispatch → follow
    /// redirects → retry transient failures with exponential backoff.
    pub fn fetch(&mut self, req: Request) -> Result<Response, NetError> {
        self.stats.fetches += 1;
        let clock = self.net.clock();
        let mut current = req.with_header("user-agent", &self.config.user_agent);
        let mut hops = 0usize;

        loop {
            let mut attempt = 0u32;
            let response = loop {
                attempt += 1;

                let wait = self.politeness_wait(&current.url.host, clock.now());
                if wait > SimDuration::ZERO {
                    clock.sleep(wait);
                    self.stats.time_waiting += wait;
                }

                self.stats.dispatches += 1;
                let result =
                    self.net
                        .dispatch(&self.config.user_agent, &current, self.config.timeout);

                match result {
                    Ok(resp) if resp.status == Status::TooManyRequests => {
                        self.stats.rate_limited += 1;
                        let retry_after = resp
                            .header("retry-after-ms")
                            .and_then(|v| v.parse::<u64>().ok())
                            .map(SimDuration::from_millis)
                            .unwrap_or(self.config.backoff);
                        if attempt >= self.config.max_attempts {
                            return Err(NetError::RateLimited { retry_after });
                        }
                        self.stats.retries += 1;
                        clock.sleep(retry_after);
                        self.stats.time_waiting += retry_after;
                    }
                    Ok(resp) => break resp,
                    Err(err) if err.is_transient() && attempt < self.config.max_attempts => {
                        self.stats.retries += 1;
                        let backoff = self
                            .config
                            .backoff
                            .saturating_mul(1 << (attempt - 1).min(8));
                        clock.sleep(backoff);
                        self.stats.time_waiting += backoff;
                    }
                    Err(err)
                        if attempt >= self.config.max_attempts && self.config.max_attempts > 1 =>
                    {
                        return Err(NetError::RetriesExhausted {
                            attempts: attempt,
                            last: err.to_string(),
                        });
                    }
                    Err(err) => return Err(err),
                }
            };

            if response.status.is_redirect() {
                hops += 1;
                if hops > self.config.max_redirects {
                    return Err(NetError::TooManyRedirects { hops });
                }
                let location = response
                    .header("location")
                    .ok_or_else(|| NetError::Malformed {
                        reason: "redirect without location".into(),
                    })?;
                let next = current.url.join(location)?;
                self.stats.redirects_followed += 1;
                current = Request::get(next).with_header("user-agent", &self.config.user_agent);
                continue;
            }

            return Ok(response);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::ServiceCtx;
    use crate::fault::FaultPlan;
    use crate::latency::LatencyModel;

    fn ok_service() -> impl crate::fabric::Service {
        |_req: &Request, _ctx: &mut ServiceCtx<'_>| Response::ok("hello")
    }

    #[test]
    fn simple_get() {
        let net = Network::new(7);
        net.mount("site.example", ok_service());
        let mut client = HttpClient::new(net, ClientConfig::default());
        let resp = client.get(Url::https("site.example", "/")).unwrap();
        assert_eq!(resp.text(), "hello");
        assert_eq!(client.stats().fetches, 1);
        assert_eq!(client.stats().dispatches, 1);
    }

    #[test]
    fn follows_redirect_chain() {
        let net = Network::new(7);
        net.mount(
            "site.example",
            |req: &Request, _ctx: &mut ServiceCtx<'_>| match req.url.path.as_str() {
                "/a" => Response::redirect("/b"),
                "/b" => Response::redirect("https://other.example/c"),
                _ => Response::status(Status::NotFound),
            },
        );
        net.mount(
            "other.example",
            |req: &Request, _ctx: &mut ServiceCtx<'_>| {
                if req.url.path == "/c" {
                    Response::ok("end")
                } else {
                    Response::status(Status::NotFound)
                }
            },
        );
        let mut client = HttpClient::new(net, ClientConfig::default());
        let resp = client.get(Url::https("site.example", "/a")).unwrap();
        assert_eq!(resp.text(), "end");
        assert_eq!(client.stats().redirects_followed, 2);
    }

    #[test]
    fn redirect_loop_is_bounded() {
        let net = Network::new(7);
        net.mount(
            "loop.example",
            |_req: &Request, _ctx: &mut ServiceCtx<'_>| Response::redirect("/again"),
        );
        let mut client = HttpClient::new(
            net,
            ClientConfig {
                max_redirects: 3,
                ..ClientConfig::default()
            },
        );
        let err = client
            .get(Url::https("loop.example", "/start"))
            .unwrap_err();
        assert_eq!(err, NetError::TooManyRedirects { hops: 4 });
    }

    #[test]
    fn retries_transient_then_succeeds() {
        let net = Network::new(7);
        let mut failures_left = 2;
        net.mount(
            "flaky.example",
            move |_req: &Request, _ctx: &mut ServiceCtx<'_>| {
                if failures_left > 0 {
                    failures_left -= 1;
                    Response::rate_limited(100)
                } else {
                    Response::ok("finally")
                }
            },
        );
        let mut client = HttpClient::new(net, ClientConfig::default());
        let resp = client.get(Url::https("flaky.example", "/")).unwrap();
        assert_eq!(resp.text(), "finally");
        assert_eq!(client.stats().retries, 2);
        assert_eq!(client.stats().rate_limited, 2);
        assert!(client.stats().time_waiting >= SimDuration::from_millis(200));
    }

    #[test]
    fn rate_limit_exhaustion_errors() {
        let net = Network::new(7);
        net.mount(
            "wall.example",
            |_req: &Request, _ctx: &mut ServiceCtx<'_>| Response::rate_limited(50),
        );
        let mut client = HttpClient::new(
            net,
            ClientConfig {
                max_attempts: 2,
                ..ClientConfig::default()
            },
        );
        let err = client.get(Url::https("wall.example", "/")).unwrap_err();
        assert!(matches!(err, NetError::RateLimited { .. }));
    }

    #[test]
    fn hard_failures_do_not_retry() {
        let net = Network::new(7);
        let mut client = HttpClient::new(net, ClientConfig::default());
        let err = client.get(Url::https("missing.example", "/")).unwrap_err();
        assert!(matches!(err, NetError::DnsFailure { .. }));
        assert_eq!(client.stats().retries, 0);
        assert_eq!(client.stats().dispatches, 1);
    }

    #[test]
    fn black_hole_exhausts_retries() {
        let net = Network::new(7);
        net.mount_with(
            "hole.example",
            ok_service(),
            LatencyModel::Fixed { ms: 1 },
            FaultPlan {
                black_hole: 1.0,
                ..FaultPlan::default()
            },
        );
        let mut client = HttpClient::new(
            net,
            ClientConfig {
                max_attempts: 3,
                ..ClientConfig::default()
            },
        );
        let err = client.get(Url::https("hole.example", "/")).unwrap_err();
        assert!(matches!(
            err,
            NetError::RetriesExhausted { attempts: 3, .. }
        ));
        assert_eq!(client.stats().retries, 2);
    }

    #[test]
    fn politeness_spaces_out_requests() {
        let net = Network::new(7);
        net.mount_with(
            "site.example",
            ok_service(),
            LatencyModel::Fixed { ms: 0 },
            FaultPlan::none(),
        );
        let clock = net.clock();
        let mut client = HttpClient::new(
            net,
            ClientConfig {
                politeness: Some((1, 1.0)),
                ..ClientConfig::default()
            },
        );
        for _ in 0..4 {
            client.get(Url::https("site.example", "/")).unwrap();
        }
        // 1 token burst + 1/sec sustained → 4 requests take ≥ 3 virtual seconds.
        assert!(
            clock.now().as_millis() >= 3000,
            "politeness should have slept ~3s, clock at {}",
            clock.now()
        );
        assert!(client.stats().time_waiting >= SimDuration::from_secs(3));
    }

    #[test]
    fn impolite_client_does_not_wait() {
        let net = Network::new(7);
        net.mount_with(
            "site.example",
            ok_service(),
            LatencyModel::Fixed { ms: 0 },
            FaultPlan::none(),
        );
        let clock = net.clock();
        let mut client = HttpClient::new(net, ClientConfig::impolite("rude"));
        for _ in 0..10 {
            client.get(Url::https("site.example", "/")).unwrap();
        }
        assert_eq!(clock.now().as_millis(), 0);
        assert_eq!(client.stats().time_waiting, SimDuration::ZERO);
    }

    #[test]
    fn user_agent_header_is_attached() {
        let net = Network::new(7);
        net.mount("ua.example", |req: &Request, _ctx: &mut ServiceCtx<'_>| {
            Response::ok(req.header("user-agent").unwrap_or("none").to_string())
        });
        let mut client = HttpClient::new(net, ClientConfig::crawler("paper-crawler/1.0"));
        let resp = client.get(Url::https("ua.example", "/")).unwrap();
        assert_eq!(resp.text(), "paper-crawler/1.0");
    }
}
