//! Minimal std-only HTTP/1.1 framing: enough of the protocol for a
//! JSON job API (request line + headers + `Content-Length` bodies,
//! keep-alive by default) without pulling a web framework into an
//! offline workspace. Both directions live here — the daemon parses
//! requests and the load generator parses responses over the same
//! framing rules.

use std::io::{self, BufRead, Write};

/// Cap on request bodies (16 MiB) so a malformed `Content-Length`
/// cannot make the daemon allocate unbounded memory.
pub const MAX_BODY_BYTES: usize = 16 << 20;

/// Cap on one request or header line (8 KiB): a peer that streams bytes
/// without a newline never trips the read timeout, so the length is
/// bounded instead.
const MAX_LINE_BYTES: usize = 8 << 10;

/// Cap on header lines per message, for the same reason.
const MAX_HEADERS: usize = 100;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (upper-case as sent: `GET`, `POST`, ...).
    pub method: String,
    /// Request path including any query string.
    pub path: String,
    /// Headers as (lower-cased name, value) pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: String,
}

impl Request {
    /// First value of a header (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads one line of at most [`MAX_LINE_BYTES`] (terminator excluded).
fn read_line(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    let limit = (MAX_LINE_BYTES + 2) as u64; // room for "\r\n"
    if io::Read::take(&mut *reader, limit).read_until(b'\n', &mut line)? == 0 {
        return Ok(None); // clean EOF between requests
    }
    while line.ends_with(b"\n") || line.ends_with(b"\r") {
        line.pop();
    }
    if line.len() > MAX_LINE_BYTES {
        return Err(invalid(&format!("line longer than {MAX_LINE_BYTES} bytes")));
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| invalid("line is not UTF-8"))
}

/// Reads header lines up to the blank line that ends them.
fn read_headers(reader: &mut impl BufRead) -> io::Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line(reader)? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside headers",
            ));
        };
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() == MAX_HEADERS {
            return Err(invalid(&format!("more than {MAX_HEADERS} header lines")));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(invalid(&format!("bad header line: {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// Reads one request off a keep-alive connection. Returns `Ok(None)` on
/// a clean EOF (peer closed between requests).
///
/// # Errors
///
/// I/O errors, or `InvalidData` for malformed framing.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
    let Some(start) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = start.split_whitespace();
    let (method, path) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => (m.to_string(), p.to_string()),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad request line: {start:?}"),
            ))
        }
    };
    let mut req = Request {
        method,
        path,
        headers: read_headers(reader)?,
        body: String::new(),
    };
    if let Some(len) = req.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        if len > MAX_BODY_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request body too large",
            ));
        }
        let mut body = vec![0u8; len];
        io::Read::read_exact(reader, &mut body)?;
        req.body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
    }
    Ok(Some(req))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one response (JSON body, explicit `Content-Length`, connection
/// kept open unless `close`).
///
/// # Errors
///
/// I/O errors from the underlying stream.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
    close: bool,
) -> io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        reason(status),
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    if close {
        writer.write_all(b"Connection: close\r\n")?;
    }
    writer.write_all(b"\r\n")?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

/// One parsed HTTP response (client side — used by the load generator
/// and the smoke tests).
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers as (lower-cased name, value) pairs.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// First value of a header (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one response off a keep-alive connection. Returns `Ok(None)`
/// on clean EOF.
///
/// # Errors
///
/// I/O errors, or `InvalidData` for malformed framing.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Option<Response>> {
    let Some(start) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = start.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code.parse::<u16>().map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad status: {start:?}"))
        })?,
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line: {start:?}"),
            ))
        }
    };
    let headers = read_headers(reader)?;
    let len: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    if len > MAX_BODY_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "response body too large",
        ));
    }
    let mut body = vec![0u8; len];
    io::Read::read_exact(reader, &mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
    Ok(Some(Response {
        status,
        headers,
        body,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_request_with_body() {
        let raw = "POST /v1/infer HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        let req = read_request(&mut BufReader::new(raw.as_bytes()))
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/infer");
        assert_eq!(req.body, "{\"a\":1}");
        assert_eq!(req.header("host"), Some("x"));
        assert!(!req.wants_close());
    }

    #[test]
    fn eof_between_requests_is_none() {
        assert!(read_request(&mut BufReader::new(&b""[..]))
            .unwrap()
            .is_none());
    }

    #[test]
    fn response_round_trips() {
        let mut wire = Vec::new();
        write_response(&mut wire, 429, &[("Retry-After", "1")], "{}", false).unwrap();
        let resp = read_response(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.body, "{}");
    }

    #[test]
    fn rejects_malformed_request_line() {
        let raw = "garbage\r\n\r\n";
        assert!(read_request(&mut BufReader::new(raw.as_bytes())).is_err());
    }

    #[test]
    fn rejects_unbounded_lines_and_header_floods() {
        use std::io::Read;
        let kind = |raw: &[u8]| read_request(&mut BufReader::new(raw)).unwrap_err().kind();
        // A 1 MiB line with no newline stops at the cap, long before EOF.
        let mut endless = BufReader::new(io::repeat(b'A').take(1 << 20));
        let err = read_request(&mut endless).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            endless.get_ref().limit() > (1 << 19),
            "read the line to EOF"
        );
        let mut long_header = b"GET / HTTP/1.1\r\nX: ".to_vec();
        long_header.extend(vec![b'A'; 1 << 20]);
        assert_eq!(kind(&long_header), io::ErrorKind::InvalidData);
        let flood = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X: y\r\n".repeat(MAX_HEADERS + 1)
        );
        assert_eq!(kind(flood.as_bytes()), io::ErrorKind::InvalidData);
        // The longest allowed line and the most headers still parse.
        let path = "/".repeat(MAX_LINE_BYTES - "GET  HTTP/1.1".len());
        let edge = format!(
            "GET {path} HTTP/1.1\r\n{}\r\n",
            "X: y\r\n".repeat(MAX_HEADERS)
        );
        let req = read_request(&mut BufReader::new(edge.as_bytes()))
            .unwrap()
            .unwrap();
        assert_eq!(req.headers.len(), MAX_HEADERS);
    }
}
