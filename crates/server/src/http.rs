//! Minimal HTTP/1.1 framing over `std::net::TcpStream`.
//!
//! Just enough of the protocol for a JSON service: one request per
//! connection (`Connection: close`), bounded header and body sizes, and
//! explicit errors for everything malformed. No chunked encoding, no
//! keep-alive, no TLS — the serving layer fronts trusted load balancers
//! in the deployments the paper describes, and the load generator speaks
//! the same dialect.

use datalab_json::Value;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Byte cap for [`linger_close`]'s drain of unread request data.
const MAX_LINGER_BYTES: usize = 4 * 1024 * 1024;

/// Lingering close (RFC 7230 §6.6): when a response is written before
/// the request body was consumed (413, framing 400s), closing the
/// socket outright makes the kernel RST the connection and discard the
/// in-flight response. Send FIN, then read and discard what the client
/// is still sending — bounded in bytes and time — so the response
/// survives to the peer.
pub fn linger_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 8 * 1024];
    let mut drained = 0usize;
    while drained < MAX_LINGER_BYTES {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercase as sent.
    pub method: String,
    /// Request target, e.g. `/v1/query` or `/v1/traces?limit=10`
    /// (query strings are kept verbatim; the router matches on the
    /// path and handlers re-parse the parameters they accept).
    pub target: String,
    /// Header name/value pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw request body.
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body decoded as UTF-8, or `None` when it is not valid UTF-8.
    pub fn body_utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes on the wire were not a parseable HTTP request.
    BadRequest(String),
    /// The declared body length exceeded the configured maximum.
    TooLarge(usize),
    /// The socket failed (including read timeouts on idle connections).
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(why) => write!(f, "bad request: {why}"),
            HttpError::TooLarge(n) => write!(f, "body of {n} bytes exceeds limit"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn bad(why: impl Into<String>) -> HttpError {
    HttpError::BadRequest(why.into())
}

/// Reads one HTTP/1.1 request from the stream.
///
/// The head is read byte-wise until `\r\n\r\n` (bounded by
/// [`MAX_HEAD_BYTES`]); the body is read to exactly `Content-Length`
/// bytes, bounded by `max_body`. Any framing violation yields
/// [`HttpError::BadRequest`] rather than a panic.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    let head = read_head(stream)?;
    let head_text =
        std::str::from_utf8(&head).map_err(|_| bad("request head is not valid UTF-8"))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().ok_or_else(|| bad("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| bad("missing method"))?;
    let target = parts
        .next()
        .filter(|t| !t.is_empty())
        .ok_or_else(|| bad("missing target"))?;
    let version = parts.next().ok_or_else(|| bad("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("unsupported version `{version}`")));
    }
    if parts.next().is_some() {
        return Err(bad("malformed request line"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header line"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(bad("malformed header name"));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }

    let content_length = match headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
    {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| bad("unparseable content-length"))?,
        None => 0,
    };
    if content_length > max_body {
        return Err(HttpError::TooLarge(content_length));
    }

    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;

    Ok(Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body,
    })
}

/// Reads up to and including the blank line terminating the head,
/// returning the head bytes without the final `\r\n\r\n`.
fn read_head(stream: &mut TcpStream) -> Result<Vec<u8>, HttpError> {
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    loop {
        let n = stream.read(&mut byte)?;
        if n == 0 {
            return Err(bad("connection closed before request head completed"));
        }
        head.push(byte[0]);
        if head.len() > MAX_HEAD_BYTES {
            return Err(bad("request head too large"));
        }
        if head.ends_with(b"\r\n\r\n") {
            head.truncate(head.len() - 4);
            return Ok(head);
        }
    }
}

/// One HTTP response, `Connection: close`. JSON-bodied unless built via
/// [`Response::text`] (Prometheus exposition, folded profiles).
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Extra headers beyond the standard content-type / length / close.
    pub headers: Vec<(String, String)>,
    /// Response body text.
    pub body: String,
}

impl Response {
    /// A JSON response with the given status and body. The body is a
    /// document tree, so its text always comes from the codec.
    pub fn json(status: u16, body: Value) -> Response {
        Response {
            status,
            content_type: "application/json".to_string(),
            headers: Vec::new(),
            body: body.to_string(),
        }
    }

    /// A plain-text response with an explicit content type (e.g.
    /// `text/plain; version=0.0.4` for OpenMetrics exposition).
    pub fn text(status: u16, content_type: &str, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: content_type.to_string(),
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds a header (builder-style).
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serialises and writes the full response to the stream.
    pub fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        out.push_str(&self.body);
        stream.write_all(out.as_bytes())?;
        stream.flush()
    }
}

/// The reason phrase for the status codes this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalab_json::json;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    /// Runs `read_request` against raw bytes pushed through a real socket
    /// pair, mirroring how the server consumes connections.
    fn parse_raw(raw: &[u8], max_body: usize) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            // Drop closes the write side so short bodies read as EOF.
        });
        let (mut stream, _) = listener.accept().unwrap();
        let result = read_request(&mut stream, max_body);
        writer.join().unwrap();
        result
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = parse_raw(raw, 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/query");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.body_utf8(), Some("abcd"));
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse_raw(b"GET /v1/health HTTP/1.1\r\n\r\n", 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/v1/health");
        assert!(req.body.is_empty());
    }

    #[test]
    fn garbage_bytes_are_a_bad_request_not_a_panic() {
        for raw in [
            &b"\x00\x01\x02\x03\r\n\r\n"[..],
            b"NOT-HTTP\r\n\r\n",
            b"GET\r\n\r\n",
            b"GET /path SPDY/3\r\n\r\n",
            b"GET /x HTTP/1.1\r\nBroken Header\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            b"",
        ] {
            assert!(parse_raw(raw, 1024).is_err(), "accepted {raw:?}");
        }
    }

    #[test]
    fn oversized_bodies_are_rejected_by_declared_length() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 999\r\n\r\n";
        match parse_raw(raw, 100) {
            Err(HttpError::TooLarge(999)) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn response_writes_status_line_headers_and_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            Response::json(429, json!({"error": {"kind": "overloaded"}}))
                .with_header("Retry-After", "1")
                .write_to(&mut stream)
                .unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        server.join().unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("content-type: application/json\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("{\"error\":{\"kind\":\"overloaded\"}}"));
    }

    #[test]
    fn text_responses_carry_their_content_type() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            Response::text(200, "text/plain; version=0.0.4", "datalab_up 1\n")
                .write_to(&mut stream)
                .unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        server.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-type: text/plain; version=0.0.4\r\n"));
        assert!(text.ends_with("datalab_up 1\n"));
    }
}
