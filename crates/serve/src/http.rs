//! A minimal HTTP/1.1 layer over `std::net` — just enough protocol for the
//! benchmark service: request-line + headers + sized bodies on the way in,
//! `Connection: close` responses on the way out, and a tiny blocking
//! client for the load generator and tests. No keep-alive, no chunked
//! encoding, no TLS; every exchange is one connection.

use core::time::Duration;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Maximum accepted body size (1 MiB) — job submissions are tiny; anything
/// larger is a client error.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Maximum accepted header section size.
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// How long a connection may idle mid-request before the server drops it.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method ("GET", "POST", ...).
    pub method: String,
    /// Path portion of the request target, percent-decoding not applied
    /// (the API uses no characters that need it).
    pub path: String,
    /// Raw query string (without the `?`), empty when absent.
    pub query: String,
    /// Request body.
    pub body: Vec<u8>,
}

impl Request {
    /// Looks up a query parameter (`?a=1&b=2` style).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    /// Body as UTF-8, or an error message.
    pub fn body_utf8(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "body is not valid UTF-8".to_string())
    }
}

/// Reads one request from the stream. Errors are protocol violations or
/// I/O failures; the caller answers with 400 when possible.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, String> {
    reader
        .get_ref()
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    parse_request(reader)
}

/// Reads one line into the header section's byte budget `used`. The read
/// stops one byte past the budget, so a line that never ends costs at most
/// `MAX_HEADER_BYTES + 1` bytes of memory before it is rejected.
fn read_header_line(
    reader: &mut impl BufRead,
    used: &mut usize,
    what: &str,
) -> Result<String, String> {
    let mut line = String::new();
    let left = MAX_HEADER_BYTES - *used + 1;
    reader
        .take(left as u64)
        .read_line(&mut line)
        .map_err(|e| format!("read {what}: {e}"))?;
    *used += line.len();
    if *used > MAX_HEADER_BYTES {
        return Err("header section too large".to_string());
    }
    Ok(line)
}

/// Parses one request off `reader`: the request line and headers within
/// `MAX_HEADER_BYTES` together, then a body of at most [`MAX_BODY_BYTES`].
fn parse_request(reader: &mut impl BufRead) -> Result<Request, String> {
    let mut header_bytes = 0;
    let line = read_header_line(reader, &mut header_bytes, "request line")?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or("empty request line")?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or("request line has no target")?
        .to_string();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version:?}"));
    }
    let mut content_length = 0usize;
    loop {
        let header = read_header_line(reader, &mut header_bytes, "header")?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(format!("body of {content_length} bytes exceeds limit"));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// 200 with a JSON body.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A `{"error": ...}` JSON body with the given status.
    pub fn error(status: u16, message: &str) -> Self {
        let doc = graphalytics_core::json::Json::obj([(
            "error",
            graphalytics_core::json::Json::from(message),
        )]);
        Self::json(status, doc.to_string_compact())
    }

    /// A plain-text body.
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    /// A body with an explicit content type (SVG, JSONL, ...).
    pub fn with_type(status: u16, content_type: &'static str, body: String) -> Self {
        Self {
            status,
            content_type,
            body: body.into_bytes(),
        }
    }

    /// Serializes status line, headers, and body.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Reason phrases for the statuses the API uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A blocking one-shot HTTP client: sends `method path` with an optional
/// body to `addr` and returns `(status, body)`. Used by the load
/// generator, the CLI, and tests; not a general-purpose client.
pub fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("send request: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read response: {e}"))?;
    let raw = String::from_utf8_lossy(&raw).into_owned();
    let (head, rest) = raw
        .split_once("\r\n\r\n")
        .ok_or("malformed response: no header/body separator")?;
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    Ok((status, rest.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_params_parse() {
        let req = Request {
            method: "GET".into(),
            path: "/jobs/1/events".into(),
            query: "since=5&format=jsonl".into(),
            body: Vec::new(),
        };
        assert_eq!(req.query_param("since"), Some("5"));
        assert_eq!(req.query_param("format"), Some("jsonl"));
        assert_eq!(req.query_param("missing"), None);
    }

    /// A line that never ends is cut off at the header cap, not buffered
    /// for as long as the client keeps sending.
    #[test]
    fn an_endless_line_is_rejected_at_the_header_cap() {
        let endless = || io::repeat(b'a').take(64 << 20);
        let mut reader = BufReader::new(endless());
        assert!(parse_request(&mut reader).is_err());
        assert!(reader.get_ref().limit() >= 60 << 20);

        let mut reader = BufReader::new(b"GET / HTTP/1.1\r\nX-Pad: ".chain(endless()));
        let err = parse_request(&mut reader).unwrap_err();
        assert_eq!(err, "header section too large");
        assert!(reader.get_ref().get_ref().1.limit() >= 60 << 20);
    }

    #[test]
    fn responses_serialize_with_length_and_close() {
        let mut buf = Vec::new();
        Response::text(200, "hello".into())
            .write_to(&mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nhello"));
    }
}
