//! Minimal HTTP/1.1 request parser and response writer.
//!
//! Hand-rolled on `std::io` because the workspace is hermetic (no
//! external crates). Supports exactly what [`crate::Server`] needs:
//! request line + headers + optional `Content-Length` body, a query
//! string with percent-decoding (path and form variants — `+` is a
//! space only in query strings), and responses that either keep the
//! connection alive or close it ([`Response::write_to_conn`]).
//! Everything a malicious or broken client can send maps to a typed
//! [`HttpError`] so the server can answer with the right status code
//! instead of panicking or hanging.

use std::io::{self, BufRead, Write};

/// Hard limit on the request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Hard limit on the total size of all header lines.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Hard limit on a request body (`POST /batch` payloads).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Why a request could not be read. Each variant corresponds to one
/// HTTP status code (see [`HttpError::status`]).
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request (bad request line, bad header,
    /// bad `Content-Length`, ...). Status 400.
    BadRequest(String),
    /// Request line or headers exceed the fixed limits. Status 431.
    HeadersTooLarge,
    /// Declared body exceeds [`MAX_BODY_BYTES`]. Status 413.
    BodyTooLarge,
    /// The client stalled past the socket read timeout. Status 408.
    Timeout,
    /// Transfer-Encoding and other unimplemented mechanics. Status 501.
    Unsupported(String),
    /// The connection died mid-request; nothing can be sent back.
    Io(io::Error),
}

impl HttpError {
    /// The status code this error should be answered with.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::HeadersTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::Timeout => 408,
            HttpError::Unsupported(_) => 501,
            HttpError::Io(_) => 400,
        }
    }

    /// Human-readable detail for the error body.
    pub fn detail(&self) -> String {
        match self {
            HttpError::BadRequest(m) => m.clone(),
            HttpError::HeadersTooLarge => "request line or headers too large".into(),
            HttpError::BodyTooLarge => "request body too large".into(),
            HttpError::Timeout => "timed out reading request".into(),
            HttpError::Unsupported(m) => m.clone(),
            HttpError::Io(e) => format!("i/o error: {e}"),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status(), self.detail())
    }
}

/// A parsed HTTP/1.1 request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the target, percent-decoded (`/query`).
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub params: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Minor HTTP version: `1` for HTTP/1.1, `0` for HTTP/1.0.
    pub minor_version: u8,
}

impl Request {
    /// Whether the client asked (or defaulted) to keep the connection
    /// open after this request: HTTP/1.1 keeps alive unless the
    /// `Connection` header lists `close`; HTTP/1.0 closes unless it
    /// lists `keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        let tokens =
            |v: &str, wanted: &str| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(wanted));
        match self.header("connection") {
            Some(v) if self.minor_version == 0 => tokens(v, "keep-alive"),
            Some(v) => !tokens(v, "close"),
            None => self.minor_version == 1,
        }
    }
    /// First value of query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

fn io_to_http(e: io::Error) -> HttpError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e),
    }
}

/// Reads one line terminated by `\n`, enforcing `limit` bytes. Returns
/// the line without the trailing `\r\n`/`\n`, or `None` at clean EOF.
fn read_line(r: &mut impl BufRead, limit: usize) -> Result<Option<String>, HttpError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(None)
                } else {
                    Err(HttpError::BadRequest("connection closed mid-line".into()))
                }
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    let s = String::from_utf8(buf)
                        .map_err(|_| HttpError::BadRequest("non-UTF-8 request line".into()))?;
                    return Ok(Some(s));
                }
                buf.push(byte[0]);
                if buf.len() > limit {
                    return Err(HttpError::HeadersTooLarge);
                }
            }
            Err(e) => return Err(io_to_http(e)),
        }
    }
}

/// Percent-decodes a *query-string* component; `+` becomes a space
/// (form encoding, which is what `curl --data-urlencode` and browsers
/// send in query strings).
pub fn percent_decode_form(s: &str) -> Result<String, HttpError> {
    percent_decode_impl(s, true)
}

/// Percent-decodes a *path* component. Per RFC 3986 `+` is an ordinary
/// character outside query strings, so `/a+b` stays `/a+b` — only
/// `%XX` escapes are rewritten.
pub fn percent_decode_path(s: &str) -> Result<String, HttpError> {
    percent_decode_impl(s, false)
}

fn percent_decode_impl(s: &str, plus_is_space: bool) -> Result<String, HttpError> {
    let bytes = s.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                // Exactly two hex digits (`u8::from_str_radix` would also
                // take a sign: `%+5`).
                let digit = |at: usize| bytes.get(at).and_then(|&b| (b as char).to_digit(16));
                let (hi, lo) = digit(i + 1).zip(digit(i + 2)).ok_or_else(|| {
                    let esc = String::from_utf8_lossy(&bytes[i..bytes.len().min(i + 3)]);
                    HttpError::BadRequest(format!("bad %-escape `{esc}`"))
                })?;
                out.push((hi << 4 | lo) as u8);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| HttpError::BadRequest("%-escape is not UTF-8".into()))
}

/// Splits a raw query string into decoded `(key, value)` pairs.
fn parse_query_string(qs: &str) -> Result<Vec<(String, String)>, HttpError> {
    let mut params = Vec::new();
    for pair in qs.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        params.push((percent_decode_form(k)?, percent_decode_form(v)?));
    }
    Ok(params)
}

/// Reads and parses one request from `r`.
///
/// Returns `Ok(None)` if the client closed the connection before
/// sending anything (a normal way for keep-alive clients to go away).
pub fn read_request(r: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let line = match read_line(r, MAX_REQUEST_LINE)? {
        Some(l) => l,
        None => return Ok(None),
    };
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line `{}`",
                line.chars().take(80).collect::<String>()
            )))
        }
    };
    let minor_version = match version {
        "HTTP/1.1" => 1,
        "HTTP/1.0" => 0,
        _ => {
            return Err(HttpError::BadRequest(format!(
                "unsupported protocol `{version}`"
            )))
        }
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest(format!("bad method `{method}`")));
    }
    let (raw_path, raw_query) = target.split_once('?').unwrap_or((target, ""));
    let path = percent_decode_path(raw_path)?;
    let params = parse_query_string(raw_query)?;

    let mut headers: Vec<(String, String)> = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let line = read_line(r, MAX_HEADER_BYTES)?
            .ok_or_else(|| HttpError::BadRequest("connection closed in headers".into()))?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(HttpError::HeadersTooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("header without colon: `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::Unsupported(
            "Transfer-Encoding is not supported; send Content-Length".into(),
        ));
    }
    let mut body = Vec::new();
    // Collect *every* Content-Length header. Taking the first and
    // ignoring the rest would let two differing values desynchronize
    // request framing on a kept-alive connection (request smuggling),
    // so repeated Content-Length is rejected outright — even when the
    // copies agree, a proxy in front of us may not be as strict.
    let mut lengths = headers.iter().filter(|(k, _)| k == "content-length");
    if let Some((_, v)) = lengths.next() {
        if lengths.next().is_some() {
            return Err(HttpError::BadRequest(
                "repeated Content-Length header".into(),
            ));
        }
        let len: usize = v
            .parse()
            .map_err(|_| HttpError::BadRequest(format!("bad Content-Length `{v}`")))?;
        if len > MAX_BODY_BYTES {
            return Err(HttpError::BodyTooLarge);
        }
        body = vec![0u8; len];
        r.read_exact(&mut body).map_err(io_to_http)?;
    }
    Ok(Some(Request {
        method: method.to_string(),
        path,
        params,
        headers,
        body,
        minor_version,
    }))
}

/// An HTTP/1.1 response under construction.
pub struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

/// Standard reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

impl Response {
    /// A response with the given status and no body yet.
    pub fn new(status: u16) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// The status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Adds a header.
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Sets the body and its content type.
    pub fn body(mut self, content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        self.body = body.into();
        self.headers
            .push(("Content-Type".to_string(), content_type.to_string()));
        self
    }

    /// A JSON body.
    pub fn json(self, body: impl Into<Vec<u8>>) -> Self {
        self.body("application/json", body)
    }

    /// A plain-text body.
    pub fn text(self, body: impl Into<String>) -> Self {
        self.body("text/plain; charset=utf-8", body.into().into_bytes())
    }

    /// Serializes the response with `Connection: close` (the shed path
    /// and one-shot replies). Kept-alive responses go through
    /// [`Response::write_to_conn`].
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        self.write_to_conn(w, false, false)
    }

    /// Serializes the response. `keep_alive` selects the `Connection`
    /// header; `head_only` answers a `HEAD` request — the status line,
    /// headers, and the `Content-Length` the body *would* have, but no
    /// body bytes (what load-balancer health checks expect).
    pub fn write_to_conn(
        &self,
        w: &mut impl Write,
        keep_alive: bool,
        head_only: bool,
    ) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        if !head_only {
            w.write_all(&self.body)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_get_with_query_string() {
        let req = parse(b"GET /query?xp=%2F%2Fa%2Fb&limit=10 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/query");
        assert_eq!(req.param("xp"), Some("//a/b"));
        assert_eq!(req.param("limit"), Some("10"));
        assert_eq!(req.param("missing"), None);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
    }

    #[test]
    fn plus_decodes_to_space_in_params() {
        let req = parse(b"GET /query?xp=a+b HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.param("xp"), Some("a b"));
    }

    #[test]
    fn plus_in_path_is_not_a_space() {
        // RFC 3986: `+` is only form-encoded space in query strings; a
        // path containing `+` must survive verbatim.
        let req = parse(b"GET /a+b/c%20d?k=x+y HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/a+b/c d");
        assert_eq!(req.param("k"), Some("x y"));
    }

    #[test]
    fn repeated_content_length_is_rejected() {
        // Two differing values: the classic request-smuggling vector.
        let raw = b"POST /batch HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde";
        let err = parse(raw).unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(err.detail().contains("Content-Length"), "{err}");
        // Even agreeing duplicates are refused: a lenient proxy ahead
        // of us may have folded or reordered them differently.
        let raw = b"POST /batch HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc";
        assert_eq!(parse(raw).unwrap_err().status(), 400);
    }

    #[test]
    fn keep_alive_defaults_follow_the_http_version() {
        let req = parse(b"GET / HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.minor_version, 1);
        assert!(req.wants_keep_alive());
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.wants_keep_alive());
        let req = parse(b"GET / HTTP/1.1\r\nConnection: Keep-Alive, Upgrade\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.wants_keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.minor_version, 0);
        assert!(!req.wants_keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn parses_post_body_with_content_length() {
        let req = parse(b"POST /batch HTTP/1.1\r\nContent-Length: 9\r\n\r\n//a\n//b/c")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"//a\n//b/c");
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let req = parse(b"GET /healthz HTTP/1.1\nHost: x\n\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn malformed_request_line_is_400() {
        for raw in [
            &b"NOT-HTTP\r\n\r\n"[..],
            &b"GET /x HTTP/1.1 extra HTTP/1.1\r\n\r\n"[..],
            &b"get /lowercase HTTP/1.1\r\n\r\n"[..],
            &b"GET /x SPDY/3\r\n\r\n"[..],
            &b"GET /x?bad=%GG HTTP/1.1\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n"[..],
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status(), 400, "{raw:?} -> {err}");
        }
    }

    #[test]
    fn oversized_request_line_is_431() {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_REQUEST_LINE + 10));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert_eq!(parse(&raw).unwrap_err().status(), 431);
    }

    #[test]
    fn oversized_headers_are_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..20 {
            raw.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "v".repeat(1024)).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert_eq!(parse(&raw).unwrap_err().status(), 431);
    }

    #[test]
    fn oversized_body_is_413() {
        let raw = format!(
            "POST /batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse(raw.as_bytes()).unwrap_err().status(), 413);
    }

    #[test]
    fn transfer_encoding_is_501() {
        let raw = b"POST /batch HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert_eq!(parse(raw).unwrap_err().status(), 501);
    }

    #[test]
    fn truncated_body_is_an_error() {
        let raw = b"POST /batch HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort";
        assert!(parse(raw).is_err());
    }

    #[test]
    fn percent_decode_roundtrips() {
        assert_eq!(percent_decode_form("a%2Fb%20c+d").unwrap(), "a/b c d");
        assert_eq!(percent_decode_form("plain").unwrap(), "plain");
        assert!(percent_decode_form("%2").is_err());
        assert!(percent_decode_form("%zz").is_err());
        // The path variant decodes escapes but leaves `+` alone.
        assert_eq!(percent_decode_path("a%2Fb%20c+d").unwrap(), "a/b c+d");
        assert!(percent_decode_path("%zz").is_err());
    }

    /// An escape is `%` and exactly two hex digits: a sign is not a
    /// digit, so `%+5` is not byte 5.
    #[test]
    fn a_percent_escape_is_two_hex_digits() {
        for bad in ["%+5", "%+f", "%-1", "a%+2b", "%5", "%é"] {
            assert!(percent_decode_form(bad).is_err(), "{bad}");
            assert!(percent_decode_path(bad).is_err(), "{bad}");
        }
        let err = parse(b"GET /query?xp=%2F%2Fa%+2b HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 400, "{err}");
        assert_eq!(percent_decode_form("%4a%4A%7e").unwrap(), "JJ~");
    }

    /// `read_request` reads every prefix of a pipelined POST + GET, and
    /// 2 000 seeded mutations of it, to an error or the end of the
    /// input — never a panic.
    #[test]
    fn read_request_never_panics_on_hostile_bytes() {
        let good: &[u8] = b"POST /documents?x=%2Fa+b HTTP/1.1\r\nHost: prix\r\n\
            Content-Length: 11\r\n\r\n<a><b/></a>\
            GET /query?xp=%2F%2Fa&limit=3 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        let read_all = |bytes: &[u8]| {
            let mut r = BufReader::new(bytes);
            let mut n = 0;
            let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                while let Ok(Some(_)) = read_request(&mut r) {
                    n += 1;
                }
            }));
            assert!(read.is_ok(), "read_request panicked on {bytes:?}");
            n
        };
        assert_eq!(read_all(good), 2, "both requests of the valid input");
        for end in 0..good.len() {
            read_all(&good[..end]);
        }
        // SplitMix64, seeded: the mutations are the same on every run.
        let mut state = 0x5eed_0030_u64;
        let mut below = |n: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        for _ in 0..2000 {
            let mut bytes = good.to_vec();
            for _ in 0..=below(3) {
                let at = below(bytes.len() as u64) as usize;
                bytes[at] = match below(3) {
                    0 => bytes[at] ^ (1 << below(8)),
                    1 => below(256) as u8,
                    // Bytes the parser splits and decodes on.
                    _ => b"%+:\r\n 0"[below(7) as usize],
                };
            }
            read_all(&bytes);
        }
    }

    #[test]
    fn response_wire_format() {
        let mut buf = Vec::new();
        Response::new(200)
            .header("Retry-After", "1")
            .text("ok\n")
            .write_to(&mut buf)
            .unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"), "{s}");
        assert!(s.contains("Content-Length: 3\r\n"), "{s}");
        assert!(s.contains("Connection: close\r\n"), "{s}");
        assert!(s.contains("Retry-After: 1\r\n"), "{s}");
        assert!(s.ends_with("\r\n\r\nok\n"), "{s}");
    }

    #[test]
    fn keep_alive_and_head_only_wire_formats() {
        let resp = Response::new(200).text("ok\n");
        let mut buf = Vec::new();
        resp.write_to_conn(&mut buf, true, false).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("Connection: keep-alive\r\n"), "{s}");
        assert!(s.ends_with("\r\n\r\nok\n"), "{s}");
        // HEAD: full headers, true Content-Length, zero body bytes.
        let mut buf = Vec::new();
        resp.write_to_conn(&mut buf, true, true).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("Content-Length: 3\r\n"), "{s}");
        assert!(s.ends_with("\r\n\r\n"), "{s}");
    }
}
