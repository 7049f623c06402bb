//! The benchmark's HTTP client.
//!
//! Each request leaves in a single `write_all` on a `TCP_NODELAY`
//! socket. Writing the request line, headers and body as separate small
//! writes (as `gnna_serve::loadgen::roundtrip` does through `write!`)
//! lets Nagle's algorithm hold the last segment until the daemon's
//! delayed ACK fires, which adds about 40 ms to every loopback request.

use gnna_serve::http::{read_response, Response};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// One keep-alive connection to the daemon.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects to `addr` with Nagle's algorithm off.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// I/O and framing errors, or the daemon closing the connection.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        self.buf.clear();
        write!(
            self.buf,
            "{method} {path} HTTP/1.1\r\nHost: gnna-serve\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.buf.extend_from_slice(body.as_bytes());
        self.stream.write_all(&self.buf)?;
        read_response(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"))
    }
}
