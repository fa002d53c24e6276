//! The load generator's side of the wire: one keep-alive HTTP/1.1
//! connection, and a reader for the server's `/metrics` text.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One persistent connection: requests go out without
/// `Connection: close`, responses come back framed by `Content-Length`.
pub struct Conn {
    r: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        // A reply later than this counts as timed out: the caller sees
        // an error and the operation as failed.
        s.set_read_timeout(Some(Duration::from_secs(30)))
            .and_then(|()| s.set_nodelay(true))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Conn {
            r: BufReader::new(s),
        })
    }

    pub fn send(&mut self, raw: &[u8]) -> Result<(), String> {
        self.r
            .get_ref()
            .write_all(raw)
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one framed response: `(status, body)`.
    pub fn recv(&mut self) -> Result<(u16, String), String> {
        let mut status = 0u16;
        let mut content_length = None;
        loop {
            let mut line = String::new();
            let n = self
                .r
                .read_line(&mut line)
                .map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err("server closed the connection mid-response".into());
            }
            if line == "\r\n" {
                break;
            }
            if status == 0 {
                status = line
                    .split(' ')
                    .nth(1)
                    .and_then(|c| c.parse().ok())
                    .ok_or_else(|| format!("bad status line `{}`", line.trim_end()))?;
            } else if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse::<usize>().ok();
                }
            }
        }
        let len = content_length.ok_or("response without Content-Length")?;
        let mut body = vec![0u8; len];
        self.r
            .read_exact(&mut body)
            .map_err(|e| format!("recv body: {e}"))?;
        let body = String::from_utf8(body).map_err(|e| format!("body not UTF-8: {e}"))?;
        Ok((status, body))
    }

    pub fn roundtrip(&mut self, raw: &[u8]) -> Result<(u16, String), String> {
        self.send(raw)?;
        self.recv()
    }

    pub fn get(&mut self, target: &str) -> Result<(u16, String), String> {
        self.roundtrip(format!("GET {target} HTTP/1.1\r\nHost: prix\r\n\r\n").as_bytes())
    }
}

pub fn post_bytes(target: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nHost: prix\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Percent-encodes everything outside RFC 3986's unreserved set.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Every unsigned integer that follows `"key":` in `body`, in order.
pub fn json_numbers(body: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\":");
    body.match_indices(&needle)
        .filter_map(|(at, _)| {
            let rest = &body[at + needle.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

/// One reading of `/metrics`: series (name with labels) → value.
#[derive(Debug, Default, Clone)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (series, value) = l.rsplit_once(' ')?;
                    Some((series.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    pub fn fetch(conn: &mut Conn) -> Result<Scrape, String> {
        match conn.get("/metrics")? {
            (200, body) => Ok(Scrape::parse(&body)),
            (status, _) => Err(format!("/metrics answered {status}")),
        }
    }

    /// The series named exactly `series` (0 when absent: histograms
    /// with no observations are not rendered).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Sum over every label set of `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(name)
                    .map_or(false, |rest| rest.is_empty() || rest.starts_with('{'))
            })
            .map(|(_, v)| v)
            .sum()
    }
}
