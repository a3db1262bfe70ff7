//! Minimal HTTP-shaped request/response types and a URL parser.
//!
//! This is deliberately a *subset*: enough structure for a crawler, a bot
//! listing site, OAuth-style invite links with query parameters, and a
//! canary-token sink to interoperate. No wire format is implemented —
//! requests are in-memory events on the fabric.

use crate::error::NetError;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// HTTP request methods used in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Fetch a resource.
    Get,
    /// Submit a form / create a resource.
    Post,
    /// Metadata-only fetch (used by the link validator).
    Head,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
        })
    }
}

/// Response status codes, restricted to those the simulation emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Status {
    /// 200 — success.
    Ok,
    /// 302 — redirect to the `Location` header.
    Found,
    /// 304 — the cached representation is still fresh (conditional GET).
    NotModified,
    /// 400 — the server rejected the request shape.
    BadRequest,
    /// 401 — authentication required (email-verification wall).
    Unauthorized,
    /// 403 — captcha wall or outright ban.
    Forbidden,
    /// 404 — dead link.
    NotFound,
    /// 410 — resource deliberately removed (delisted bot).
    Gone,
    /// 429 — rate limited.
    TooManyRequests,
    /// 500 — server error.
    InternalError,
    /// 503 — temporarily unavailable.
    Unavailable,
}

impl Status {
    /// Numeric code, for logs and report tables.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::Found => 302,
            Status::NotModified => 304,
            Status::BadRequest => 400,
            Status::Unauthorized => 401,
            Status::Forbidden => 403,
            Status::NotFound => 404,
            Status::Gone => 410,
            Status::TooManyRequests => 429,
            Status::InternalError => 500,
            Status::Unavailable => 503,
        }
    }

    /// Whether this status indicates success.
    pub fn is_success(self) -> bool {
        self == Status::Ok
    }

    /// Whether this status is a redirect.
    pub fn is_redirect(self) -> bool {
        self == Status::Found
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// A parsed URL: `scheme://host/path?query#fragment`.
///
/// Invariants: `host` is non-empty and lowercase; `path` always starts with
/// `/`; query keys preserve insertion order via `BTreeMap` (sorted — good
/// enough for the simulation and deterministic).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Url {
    /// `https` in virtually all simulated links.
    pub scheme: String,
    /// Lowercased host name, e.g. `top.gg`.
    pub host: String,
    /// Absolute path, e.g. `/bot/1234`.
    pub path: String,
    /// Decoded query parameters.
    pub query: BTreeMap<String, String>,
    /// Fragment after `#`, if any.
    pub fragment: Option<String>,
}

impl Url {
    /// Parse a URL string. Accepts `scheme://host[/path][?query][#fragment]`.
    pub fn parse(input: &str) -> Result<Url, NetError> {
        let malformed = |reason: &str| NetError::Malformed {
            reason: format!("{reason}: {input:?}"),
        };
        let (scheme, rest) = input
            .split_once("://")
            .ok_or_else(|| malformed("missing scheme"))?;
        if scheme.is_empty()
            || !scheme
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '+')
        {
            return Err(malformed("bad scheme"));
        }
        let (rest, fragment) = match rest.split_once('#') {
            Some((r, f)) => (r, Some(f.to_string())),
            None => (rest, None),
        };
        let (rest, query_str) = match rest.split_once('?') {
            Some((r, q)) => (r, Some(q)),
            None => (rest, None),
        };
        let (host, path) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        if host.is_empty() {
            return Err(malformed("empty host"));
        }
        if !host
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_')
        {
            return Err(malformed("bad host"));
        }
        let mut query = BTreeMap::new();
        if let Some(q) = query_str {
            for pair in q.split('&').filter(|p| !p.is_empty()) {
                match pair.split_once('=') {
                    Some((k, v)) => query.insert(percent_decode(k), percent_decode(v)),
                    None => query.insert(percent_decode(pair), String::new()),
                };
            }
        }
        Ok(Url {
            scheme: scheme.to_ascii_lowercase(),
            host: host.to_ascii_lowercase(),
            path: path.to_string(),
            query,
            fragment,
        })
    }

    /// Build a simple `https` URL from host and path.
    pub fn https(host: &str, path: &str) -> Url {
        let path = if path.starts_with('/') {
            path.to_string()
        } else {
            format!("/{path}")
        };
        Url {
            scheme: "https".into(),
            host: host.to_ascii_lowercase(),
            path,
            query: BTreeMap::new(),
            fragment: None,
        }
    }

    /// Return a copy with one query parameter added/replaced.
    pub fn with_query(mut self, key: &str, value: &str) -> Url {
        self.query.insert(key.to_string(), value.to_string());
        self
    }

    /// Get a query parameter by key.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.get(key).map(String::as_str)
    }

    /// Path segments, skipping empty ones: `/bot/123/` → `["bot", "123"]`.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// Resolve a possibly-relative `location` against this URL (used when
    /// following redirects).
    pub fn join(&self, location: &str) -> Result<Url, NetError> {
        if location.contains("://") {
            Url::parse(location)
        } else if let Some(stripped) = location.strip_prefix('/') {
            let mut u = self.clone();
            let (path, q) = match stripped.split_once('?') {
                Some((p, q)) => (p, Some(q)),
                None => (stripped, None),
            };
            u.path = format!("/{path}");
            u.query.clear();
            if let Some(q) = q {
                for pair in q.split('&').filter(|p| !p.is_empty()) {
                    if let Some((k, v)) = pair.split_once('=') {
                        u.query.insert(percent_decode(k), percent_decode(v));
                    }
                }
            }
            u.fragment = None;
            Ok(u)
        } else {
            Err(NetError::Malformed {
                reason: format!("relative redirect {location:?} unsupported"),
            })
        }
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}{}", self.scheme, self.host, self.path)?;
        if !self.query.is_empty() {
            let q: Vec<String> = self
                .query
                .iter()
                .map(|(k, v)| {
                    if v.is_empty() {
                        percent_encode(k)
                    } else {
                        format!("{}={}", percent_encode(k), percent_encode(v))
                    }
                })
                .collect();
            write!(f, "?{}", q.join("&"))?;
        }
        if let Some(frag) = &self.fragment {
            write!(f, "#{frag}")?;
        }
        Ok(())
    }
}

/// Percent-encode the characters that would break our query parsing.
fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Decode `%XX` escapes and `+`-as-space.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                if let (Some(h), Some(l)) = (hex_val(bytes[i + 1]), hex_val(bytes[i + 2])) {
                    out.push(h * 16 + l);
                    i += 3;
                    continue;
                }
                out.push(b'%');
                i += 1;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// An in-memory HTTP-shaped request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Target URL.
    pub url: Url,
    /// Headers (lowercased keys).
    pub headers: BTreeMap<String, String>,
    /// Request body (form submissions, token payloads).
    pub body: Vec<u8>,
}

impl Request {
    /// A GET request for `url`.
    pub fn get(url: Url) -> Request {
        Request {
            method: Method::Get,
            url,
            headers: BTreeMap::new(),
            body: Vec::new(),
        }
    }

    /// A POST request with a body.
    pub fn post(url: Url, body: impl Into<Vec<u8>>) -> Request {
        Request {
            method: Method::Post,
            url,
            headers: BTreeMap::new(),
            body: body.into(),
        }
    }

    /// A HEAD request for `url`.
    pub fn head(url: Url) -> Request {
        Request {
            method: Method::Head,
            url,
            headers: BTreeMap::new(),
            body: Vec::new(),
        }
    }

    /// Set a header, lowercasing the key; returns self for chaining.
    pub fn with_header(mut self, key: &str, value: &str) -> Request {
        self.headers
            .insert(key.to_ascii_lowercase(), value.to_string());
        self
    }

    /// Read a header (key lookup is case-insensitive because keys are stored
    /// lowercased).
    pub fn header(&self, key: &str) -> Option<&str> {
        header_lookup(&self.headers, key)
    }
}

/// An in-memory HTTP-shaped response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Headers (lowercased keys).
    pub headers: BTreeMap<String, String>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// 200 response with a text body.
    pub fn ok(body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: Status::Ok,
            headers: BTreeMap::new(),
            body: body.into(),
        }
    }

    /// Empty response with the given status.
    pub fn status(status: Status) -> Response {
        Response {
            status,
            headers: BTreeMap::new(),
            body: Vec::new(),
        }
    }

    /// 302 redirect to `location`.
    pub fn redirect(location: &str) -> Response {
        let mut r = Response::status(Status::Found);
        r.headers.insert("location".into(), location.to_string());
        r
    }

    /// 304 carrying the validator that matched (body stays empty: the
    /// whole point is that no content crosses the wire).
    pub fn not_modified(etag: &str) -> Response {
        Response::status(Status::NotModified).with_header("etag", etag)
    }

    /// 429 with a `retry-after` header in milliseconds.
    pub fn rate_limited(retry_after_ms: u64) -> Response {
        let mut r = Response::status(Status::TooManyRequests);
        r.headers
            .insert("retry-after-ms".into(), retry_after_ms.to_string());
        r
    }

    /// Set a header; returns self for chaining.
    pub fn with_header(mut self, key: &str, value: &str) -> Response {
        self.headers
            .insert(key.to_ascii_lowercase(), value.to_string());
        self
    }

    /// Read a header (case-insensitive key).
    pub fn header(&self, key: &str) -> Option<&str> {
        header_lookup(&self.headers, key)
    }

    /// Body as UTF-8 text (lossy). Borrows the body when it is valid
    /// UTF-8 — every body the simulated sites serve — so reading a page
    /// copies nothing.
    pub fn text(&self) -> Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// Look `key` up in a lowercased header map, lowercasing a copy of the key
/// only when it has an uppercase letter.
fn header_lookup<'h>(headers: &'h BTreeMap<String, String>, key: &str) -> Option<&'h str> {
    let value = if key.bytes().any(|b| b.is_ascii_uppercase()) {
        headers.get(&key.to_ascii_lowercase())
    } else {
        headers.get(key)
    };
    value.map(String::as_str)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_url() {
        let u = Url::parse("https://Top.GG/bot/123?scope=bot&permissions=8#perm").unwrap();
        assert_eq!(u.scheme, "https");
        assert_eq!(u.host, "top.gg");
        assert_eq!(u.path, "/bot/123");
        assert_eq!(u.query_param("scope"), Some("bot"));
        assert_eq!(u.query_param("permissions"), Some("8"));
        assert_eq!(u.fragment.as_deref(), Some("perm"));
        assert_eq!(u.segments(), vec!["bot", "123"]);
    }

    #[test]
    fn parse_bare_host() {
        let u = Url::parse("https://example.com").unwrap();
        assert_eq!(u.path, "/");
        assert!(u.query.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Url::parse("not a url").is_err());
        assert!(Url::parse("https://").is_err());
        assert!(Url::parse("://host/x").is_err());
        assert!(Url::parse("https://ho st/x").is_err());
    }

    #[test]
    fn display_roundtrip() {
        let s = "https://top.gg/bot/99?permissions=2048&scope=bot";
        let u = Url::parse(s).unwrap();
        assert_eq!(u.to_string(), s);
        let u2 = Url::parse(&u.to_string()).unwrap();
        assert_eq!(u, u2);
    }

    #[test]
    fn percent_roundtrip() {
        let u = Url::https("h.com", "/p").with_query("q", "a b&c=d");
        let s = u.to_string();
        let back = Url::parse(&s).unwrap();
        assert_eq!(back.query_param("q"), Some("a b&c=d"));
    }

    #[test]
    fn join_absolute_and_rooted() {
        let base = Url::parse("https://a.com/x/y?k=v").unwrap();
        let abs = base.join("https://b.com/z").unwrap();
        assert_eq!(abs.host, "b.com");
        let rooted = base.join("/login?next=home").unwrap();
        assert_eq!(rooted.host, "a.com");
        assert_eq!(rooted.path, "/login");
        assert_eq!(rooted.query_param("next"), Some("home"));
        assert!(base.join("relative/path").is_err());
    }

    #[test]
    fn headers_case_insensitive() {
        let r = Request::get(Url::https("h.com", "/")).with_header("User-Agent", "crawler");
        assert_eq!(r.header("user-agent"), Some("crawler"));
        assert_eq!(r.header("USER-AGENT"), Some("crawler"));
    }

    #[test]
    fn response_helpers() {
        let r = Response::redirect("/next");
        assert!(r.status.is_redirect());
        assert_eq!(r.header("location"), Some("/next"));
        let r = Response::rate_limited(1500);
        assert_eq!(r.status.code(), 429);
        assert_eq!(r.header("retry-after-ms"), Some("1500"));
        assert_eq!(Response::ok("hi").text(), "hi");
    }

    #[test]
    fn status_codes() {
        assert!(Status::Ok.is_success());
        assert!(!Status::NotFound.is_success());
        assert_eq!(Status::Gone.code(), 410);
        assert_eq!(Status::Unavailable.code(), 503);
    }

    #[test]
    fn not_modified_is_bodyless_and_neither_success_nor_redirect() {
        let r = Response::not_modified("v1-abc");
        assert_eq!(r.status.code(), 304);
        assert!(!r.status.is_success());
        assert!(!r.status.is_redirect());
        assert!(r.body.is_empty());
        assert_eq!(r.header("etag"), Some("v1-abc"));
    }
}
