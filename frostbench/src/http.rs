//! A minimal HTTP/1.1 client that times each part of an exchange as the
//! client sees it: connect, time to first response byte, and the rest of
//! the response.
//!
//! It speaks the dialect `frostlabd` serves: one request per connection,
//! `Content-Length` bodies, `Connection: close`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longer than the daemon's longest long-poll (30 s).
const TIMEOUT: Duration = Duration::from_secs(60);

/// One finished exchange.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub status: u16,
    pub body: Vec<u8>,
    /// From request start to connected.
    pub connect_us: f64,
    /// From connected to the first response byte (request write included).
    pub ttfb_us: f64,
    /// From the first response byte to the end of the response.
    pub body_us: f64,
}

impl Exchange {
    pub fn total_ms(&self) -> f64 {
        (self.connect_us + self.ttfb_us + self.body_us) / 1000.0
    }

    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

pub fn get(addr: SocketAddr, target: &str) -> std::io::Result<Exchange> {
    exchange(addr, "GET", target, b"")
}

pub fn post(addr: SocketAddr, target: &str, body: &str) -> std::io::Result<Exchange> {
    exchange(addr, "POST", target, body.as_bytes())
}

fn exchange(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<Exchange> {
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut request =
        format!("{method} {target} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n");
    if !body.is_empty() {
        request.push_str(&format!(
            "content-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        ));
    }
    request.push_str("\r\n");
    let mut bytes = request.into_bytes();
    bytes.extend_from_slice(body);
    stream.write_all(&bytes)?;

    let mut raw = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    let n = stream.read(&mut chunk)?;
    let first = Instant::now();
    if n == 0 {
        let eof = std::io::ErrorKind::UnexpectedEof;
        return Err(std::io::Error::new(eof, "no response"));
    }
    raw.extend_from_slice(&chunk[..n]);
    stream.read_to_end(&mut raw)?;
    let done = Instant::now();
    let (status, body) = parse_response(&raw)?;
    let us = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e6;
    Ok(Exchange {
        status,
        body,
        connect_us: us(start, connected),
        ttfb_us: us(connected, first),
        body_us: us(first, done),
    })
}

/// Split a complete response into its status and body. A body shorter
/// or longer than a declared `Content-Length` is an error.
pub fn parse_response(raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no end of head"))?;
    let head =
        std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("response head is not utf-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.splitn(3, ' ');
    let (version, code) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if !version.starts_with("HTTP/1.") || code.len() != 3 {
        return Err(bad("malformed status line"));
    }
    let status = code
        .parse::<u16>()
        .map_err(|_| bad("malformed status code"))?;
    let body = &raw[head_end + 4..];
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad("malformed header line"));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            let len: usize = value
                .trim()
                .parse()
                .map_err(|_| bad("malformed content-length"))?;
            if len != body.len() {
                return Err(bad("body length differs from content-length"));
            }
        }
    }
    Ok((status, body.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_body() {
        let raw = b"HTTP/1.1 202 Accepted\r\ncontent-type: application/json\r\n\
                    Content-Length: 2\r\n\r\n{}";
        let (status, body) = parse_response(raw).expect("parses");
        assert_eq!(status, 202);
        assert_eq!(body, b"{}");
        // No content-length: the body runs to the end (connection close).
        let (status, body) = parse_response(b"HTTP/1.0 200 OK\r\n\r\nabc").expect("parses");
        assert_eq!((status, body.as_slice()), (200, &b"abc"[..]));
    }

    #[test]
    fn rejects_truncated_and_malformed_responses() {
        // Cut short: the declared length is not all there.
        assert!(parse_response(b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nshort").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\ncontent-length: 1\r\n\r\ntoo long").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\ncontent-length: x\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nno colon\r\n\r\n").is_err());
        assert!(parse_response(b"not http at all").is_err());
        assert!(parse_response(b"HTTP/1.1 2000 OK\r\n\r\n").is_err());
        assert!(parse_response(b"SMTP 220 hi\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n").is_err());
    }
}
