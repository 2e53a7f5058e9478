//! Tiny blocking HTTP client — the tests' counterpart of
//! [`crate::http`].
//!
//! Speaks exactly the dialect `frostlabd` serves: one request per
//! connection, `Content-Length` bodies, read-to-EOF responses (the
//! daemon always answers `Connection: close`). Not a general HTTP
//! client and not trying to be.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response: status, lower-cased headers, raw body.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of a header, looked up case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (panics on non-text bodies; the API is JSON).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).expect("utf-8 response body")
    }
}

/// `GET target` against `addr`.
pub fn get(addr: SocketAddr, target: &str, timeout: Duration) -> std::io::Result<ClientResponse> {
    request(addr, "GET", target, None, timeout)
}

/// `POST target` with a JSON body against `addr`.
pub fn post_json(
    addr: SocketAddr,
    target: &str,
    json: &str,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    request(addr, "POST", target, Some(json.as_bytes()), timeout)
}

/// One full request/response exchange over a fresh connection.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: Option<&[u8]>,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;

    let body = body.unwrap_or(&[]);
    let mut head = format!("{method} {target} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n");
    if !body.is_empty() {
        head.push_str(&format!(
            "content-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        ));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    // The daemon closes after one response, so EOF delimits it.
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> std::io::Result<ClientResponse> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no head terminator in response"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("non-utf8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let headers = lines
        .filter(|l| !l.is_empty())
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(ClientResponse {
        status,
        headers,
        body: raw[head_end + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_response() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\n\
                    Retry-After: 4\r\ncontent-length: 2\r\n\r\n{}";
        let r = parse_response(raw).expect("parses");
        assert_eq!(r.status, 429);
        assert_eq!(r.header("retry-after"), Some("4"));
        assert_eq!(r.header("RETRY-AFTER"), Some("4"));
        assert_eq!(r.text(), "{}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http at all").is_err());
        assert!(parse_response(b"HTTP/1.1 ???\r\n\r\n").is_err());
    }
}
