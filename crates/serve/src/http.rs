//! A minimal, defensive HTTP/1.1 request parser and response writer.
//!
//! Hand-rolled over `std::io` (the workspace's dependency policy), and
//! deliberately narrow: one request per connection, `Connection: close`
//! on every response, no chunked bodies, no keep-alive. The robustness
//! contract — pinned by `tests/http_robustness.rs` — is that **every**
//! byte stream yields either a parsed request or a [`HttpError`] that
//! maps to a 4xx/5xx status: never a panic, and never an unbounded read
//! (lines, header counts, and body sizes are capped; socket timeouts
//! bound the wait for a slow or silent peer).
//!
//! Responses carry no `Date` or other environment-dependent headers, so
//! a handler's output is byte-identical across runs, worker counts, and
//! hosts — the serving determinism keystone builds on this.
//!
//! Every response reaches its writer in one `write_all` of one buffer
//! ([`Response::write_to`]): on a socket that is one send system call
//! unless the kernel takes only part of it, so the status line, headers
//! and body leave together instead of one segment per header for the
//! peer's read to wake on.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};

/// Longest accepted request line or header line, bytes (terminator
/// included).
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most headers accepted on one request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, bytes.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// Why a byte stream failed to parse as a request. Every variant maps
/// to a response status via [`HttpError::status`] except [`HttpError::
/// Disconnected`], where the peer is gone and no response can be sent.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request (bad request line, bad header,
    /// truncated stream, unsupported transfer encoding) → 400.
    Malformed(&'static str),
    /// A line exceeded [`MAX_LINE_BYTES`] or more than [`MAX_HEADERS`]
    /// headers arrived → 431.
    TooLarge(&'static str),
    /// Declared body length exceeded [`MAX_BODY_BYTES`] → 413.
    BodyTooLarge,
    /// Not an HTTP/1.x request → 505.
    BadVersion,
    /// The peer went silent and the socket read timed out → 408.
    Timeout,
    /// The peer vanished mid-request; nothing can be answered.
    Disconnected,
}

impl HttpError {
    /// The `(status, reason, detail)` this error answers with, or
    /// `None` when the connection is beyond answering.
    pub fn status(&self) -> Option<(u16, &'static str, &'static str)> {
        match self {
            HttpError::Malformed(detail) => Some((400, "Bad Request", detail)),
            HttpError::TooLarge(detail) => Some((431, "Request Header Fields Too Large", detail)),
            HttpError::BodyTooLarge => Some((413, "Payload Too Large", "body too large")),
            HttpError::BadVersion => Some((505, "HTTP Version Not Supported", "expected HTTP/1.x")),
            HttpError::Timeout => Some((408, "Request Timeout", "request not received in time")),
            HttpError::Disconnected => None,
        }
    }
}

/// A parsed request: method, decoded path + query, lowercased headers,
/// and the (possibly empty) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// The path, query string excluded (`/v1/map/AS3356`).
    pub path: String,
    /// Decoded query parameters, last occurrence wins.
    pub query: BTreeMap<String, String>,
    /// Headers, names lowercased, values trimmed.
    pub headers: BTreeMap<String, String>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// Reads one `\n`-terminated line of at most `MAX_LINE_BYTES`, stripping
/// the terminator (and a preceding `\r`). Distinguishes a silent peer
/// (timeout) from a vanished one (clean EOF at line start → `None`;
/// EOF mid-line → `Malformed`).
fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                return if line.is_empty() {
                    Ok(None)
                } else {
                    Err(HttpError::Malformed("truncated request"))
                };
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map(Some)
                        .map_err(|_| HttpError::Malformed("non-UTF-8 request line or header"));
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE_BYTES {
                    return Err(HttpError::TooLarge("line too long"));
                }
            }
            Err(e) => return Err(io_error(e)),
        }
    }
}

fn io_error(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        std::io::ErrorKind::UnexpectedEof => HttpError::Malformed("truncated request"),
        _ => HttpError::Disconnected,
    }
}

/// Splits a raw target into path and parsed query parameters. No
/// percent-decoding: every identifier this API routes on (ASNs, org
/// labels, feature names) is plain ASCII, and a percent-escaped variant
/// simply fails the downstream parse with a 400/404.
fn split_target(target: &str) -> (String, BTreeMap<String, String>) {
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut query = BTreeMap::new();
    for pair in query_str.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(key.to_string(), value.to_string());
    }
    (path.to_string(), query)
}

/// Parses exactly one request from `reader`, enforcing every cap.
pub fn parse_request(reader: &mut impl BufRead) -> Result<Request, HttpError> {
    let request_line = match read_line(reader)? {
        Some(line) => line,
        None => return Err(HttpError::Disconnected),
    };
    let mut parts = request_line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(HttpError::Malformed("expected METHOD TARGET VERSION")),
    };
    if !method
        .chars()
        .all(|c| c.is_ascii_uppercase() && c.is_ascii_alphabetic())
        || method.is_empty()
    {
        return Err(HttpError::Malformed("invalid method token"));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadVersion);
    }
    if !target.starts_with('/') {
        return Err(HttpError::Malformed("target must be an absolute path"));
    }

    let mut headers = BTreeMap::new();
    loop {
        let line = match read_line(reader)? {
            Some(line) => line,
            None => return Err(HttpError::Malformed("truncated request")),
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed("invalid header name"));
        }
        headers.insert(name.to_ascii_lowercase(), value.trim().to_string());
    }

    if headers.contains_key("transfer-encoding") {
        return Err(HttpError::Malformed("chunked bodies are not supported"));
    }
    let mut body = Vec::new();
    if let Some(length) = headers.get("content-length") {
        let length: usize = length
            .parse()
            .map_err(|_| HttpError::Malformed("invalid content-length"))?;
        if length > MAX_BODY_BYTES {
            return Err(HttpError::BodyTooLarge);
        }
        body.resize(length, 0);
        reader.read_exact(&mut body).map_err(io_error)?;
    }

    let (path, query) = split_target(target);
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

/// A response ready to serialize: status, media type, body, the
/// optional `Retry-After` seconds the load-shedding path sets, and the
/// request id the server echoes back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
    /// `Retry-After` seconds (503 shedding only).
    pub retry_after: Option<u32>,
    /// `Allow` header value (405 responses only): the method the
    /// routed path accepts.
    pub allow: Option<&'static str>,
    /// Echoed as `x-borges-request-id`. Ids are schedule-dependent
    /// (monotone per worker), so this header — and only this header —
    /// is excluded from byte-determinism comparisons; see
    /// `ClientResponse::canonical_raw`.
    pub request_id: Option<String>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            retry_after: None,
            allow: None,
            request_id: None,
        }
    }

    /// A plain-text response (the `/metrics` exposition).
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.into(),
            retry_after: None,
            allow: None,
            request_id: None,
        }
    }

    /// A JSON error body `{"error": detail}`.
    pub fn error(status: u16, detail: &str) -> Response {
        Response::json(status, format!("{{\"error\":{}}}", json_string(detail)))
    }

    /// The canonical reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            505 => "HTTP Version Not Supported",
            _ => "Unknown",
        }
    }

    /// Serializes status line, headers, and body into one buffer and
    /// hands it to `writer` in a single `write_all`, so a socket sees
    /// one send per response. Header order is fixed and no
    /// environment-dependent header (`Date`, `Server`) is ever emitted:
    /// identical handler output means identical bytes on the wire.
    pub fn write_to(&self, writer: &mut impl Write) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(192 + self.body.len());
        write!(
            bytes,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )?;
        if let Some(allow) = self.allow {
            write!(bytes, "Allow: {allow}\r\n")?;
        }
        if let Some(id) = &self.request_id {
            write!(bytes, "x-borges-request-id: {id}\r\n")?;
        }
        if let Some(seconds) = self.retry_after {
            write!(bytes, "Retry-After: {seconds}\r\n")?;
        }
        bytes.extend_from_slice(b"\r\n");
        bytes.extend_from_slice(&self.body);
        writer.write_all(&bytes)?;
        writer.flush()
    }
}

/// Serializes `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        parse_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_a_get_with_query() {
        let req =
            parse(b"GET /v1/map/3356?features=oid_p,rr&x=1 HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/map/3356");
        assert_eq!(req.query["features"], "oid_p,rr");
        assert_eq!(req.query["x"], "1");
        assert_eq!(req.headers["host"], "h");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse(b"POST /v1/admin/reload HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let req = parse(b"GET / HTTP/1.1\nHost: h\n\n").unwrap();
        assert_eq!(req.path, "/");
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for bad in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /\r\n\r\n",
            b"GET / HTTP/1.1 EXTRA\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET relative HTTP/1.1\r\n\r\n",
            b"\xff\xfe\xfd\r\n\r\n",
            b"GET / HT",
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.status().unwrap().0, 400, "{bad:?} → {err:?}");
        }
    }

    #[test]
    fn wrong_version_is_505() {
        let err = parse(b"GET / HTTP/2.0\r\n\r\n").unwrap_err();
        assert_eq!(err.status().unwrap().0, 505);
        let err = parse(b"GET / SPDY/1\r\n\r\n").unwrap_err();
        assert_eq!(err.status().unwrap().0, 505);
    }

    #[test]
    fn oversized_lines_and_header_floods_are_431() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES + 1));
        let err = parse(long.as_bytes()).unwrap_err();
        assert_eq!(err.status().unwrap().0, 431);

        let mut flood = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADERS + 1) {
            flood.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
        }
        flood.extend_from_slice(b"\r\n");
        let err = parse(&flood).unwrap_err();
        assert_eq!(err.status().unwrap().0, 431);
    }

    #[test]
    fn oversized_and_truncated_bodies_are_rejected() {
        let big = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = parse(big.as_bytes()).unwrap_err();
        assert_eq!(err.status().unwrap().0, 413);

        let err = parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert_eq!(err.status().unwrap().0, 400, "truncated body");

        let err = parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").unwrap_err();
        assert_eq!(err.status().unwrap().0, 400);
    }

    #[test]
    fn chunked_transfer_encoding_is_rejected() {
        let err =
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n").unwrap_err();
        assert_eq!(err.status().unwrap().0, 400);
    }

    #[test]
    fn empty_stream_is_disconnected_not_answerable() {
        let err = parse(b"").unwrap_err();
        assert!(err.status().is_none());
    }

    #[test]
    fn trailing_pipelined_bytes_are_ignored() {
        let req = parse(b"GET / HTTP/1.1\r\n\r\nGARBAGE MORE GARBAGE").unwrap();
        assert_eq!(req.path, "/");
    }

    /// A `Write` that keeps the bytes and counts the `write` calls that
    /// delivered them.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Serializes `response` and asserts it arrived in exactly one
    /// `write` call.
    fn written(response: &Response) -> String {
        let mut out = CountingWriter::default();
        response.write_to(&mut out).unwrap();
        let text = String::from_utf8(out.bytes).unwrap();
        assert_eq!(out.writes, 1, "{text:?} took {} writes", out.writes);
        text
    }

    #[test]
    fn responses_serialize_deterministically() {
        assert_eq!(
            written(&Response::json(200, "{}")),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}"
        );
        let text = written(&Response {
            retry_after: Some(1),
            ..Response::error(503, "overloaded")
        });
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("{\"error\":\"overloaded\"}"), "{text}");
        assert_eq!(
            written(&Response::text(200, Vec::new())),
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: 0\r\n\
             Connection: close\r\n\r\n"
        );
    }

    #[test]
    fn request_id_header_rides_between_connection_and_retry_after() {
        let text = written(&Response {
            request_id: Some("w2-17".to_string()),
            retry_after: Some(1),
            ..Response::json(200, "{}")
        });
        assert_eq!(
            text,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\
             Connection: close\r\nx-borges-request-id: w2-17\r\nRetry-After: 1\r\n\r\n{}"
        );
    }

    #[test]
    fn allow_header_rides_first_after_connection() {
        let text = written(&Response {
            allow: Some("GET"),
            request_id: Some("w0-1".to_string()),
            ..Response::error(405, "method not allowed")
        });
        assert_eq!(
            text,
            "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\n\
             Content-Length: 30\r\nConnection: close\r\nAllow: GET\r\n\
             x-borges-request-id: w0-1\r\n\r\n{\"error\":\"method not allowed\"}"
        );
    }

    #[test]
    fn json_strings_escape_controls_and_quotes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
