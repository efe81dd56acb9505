//! A minimal HTTP/1.1 wire codec — exactly the subset the distribution
//! protocol needs, hand-rolled so the workspace stays hermetic.
//!
//! Supported: request/status lines, headers, `Content-Length` bodies,
//! `Range: bytes=N-`/`bytes=N-M` parsing, and keep-alive semantics
//! (`Connection: close` honoured). Requests and responses are read
//! through one head parser and one `Content-Length` rule. Chunked
//! bodies are accepted on requests only: every response is
//! `Content-Length` framed, and a response carrying `Transfer-Encoding`
//! is refused. Everything is bounded: header blocks are capped at
//! [`MAX_HEADER_BYTES`], bodies at a caller-supplied limit, so a
//! misbehaving peer cannot balloon memory.

use std::io::{self, BufRead, Read, Write};

/// Cap on the request/status line plus all headers.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Chunk size the client uses for chunked blob uploads.
pub const UPLOAD_CHUNK: usize = 64 * 1024;

/// Most bytes [`RequestParser::read_from`] asks the socket for per read.
const READ_CHUNK: usize = 64 * 1024;

/// A parsed HTTP request (server side of the wire).
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

/// A parsed HTTP response (client side of the wire).
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn new(status: u16) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    pub fn with_body(mut self, body: impl Into<Vec<u8>>) -> Self {
        self.body = body.into();
        self
    }

    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Does the peer ask to drop the connection after this exchange?
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Case-insensitive header lookup (first match wins).
pub fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Reason phrase for the status codes the protocol emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        206 => "Partial Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        416 => "Range Not Satisfiable",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Serialize a request. A `Some(body)` with `chunked = true` goes out as
/// chunked transfer-encoding in [`UPLOAD_CHUNK`]-sized pieces; otherwise
/// `Content-Length` framing is used.
pub fn write_request(
    w: &mut impl Write,
    method: &str,
    path: &str,
    headers: &[(String, String)],
    body: Option<&[u8]>,
    chunked: bool,
) -> io::Result<()> {
    let mut head = format!("{method} {path} HTTP/1.1\r\n");
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    match body {
        Some(_) if chunked => head.push_str("Transfer-Encoding: chunked\r\n"),
        Some(b) => head.push_str(&format!("Content-Length: {}\r\n", b.len())),
        None => head.push_str("Content-Length: 0\r\n"),
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    if let Some(b) = body {
        if chunked {
            for chunk in b.chunks(UPLOAD_CHUNK) {
                write!(w, "{:x}\r\n", chunk.len())?;
                w.write_all(chunk)?;
                w.write_all(b"\r\n")?;
            }
            w.write_all(b"0\r\n\r\n")?;
        } else {
            w.write_all(b)?;
        }
    }
    w.flush()
}

/// Serialize a response, always with `Content-Length` framing. When
/// `truncate_after` is set only that many body bytes go out — the fault
/// injection used to exercise client resume; callers must then drop the
/// connection (the advertised length was a lie).
pub fn write_response(
    w: &mut impl Write,
    resp: &Response,
    truncate_after: Option<usize>,
) -> io::Result<()> {
    w.write_all(&response_head_bytes(resp, resp.body.len() as u64))?;
    let cut = truncate_after.unwrap_or(resp.body.len()).min(resp.body.len());
    w.write_all(&resp.body[..cut])?;
    w.flush()
}

/// Read a response head through the shared head parser, then stream its
/// `Content-Length` body into `sink`. Nothing past the response is
/// consumed, so keep-alive responses on one reader parse in turn. On a
/// short read (peer died mid-body) the bytes received so far stay in
/// `sink` and the error is surfaced — that partial prefix is what makes
/// `Range` resume possible.
pub fn read_response_into(
    r: &mut impl BufRead,
    sink: &mut Vec<u8>,
    max_body: usize,
) -> io::Result<(u16, Vec<(String, String)>)> {
    let mut raw = Vec::new();
    let head_end = loop {
        let avail = r.fill_buf()?;
        if avail.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed mid-head",
            ));
        }
        let scanned = raw.len();
        let take = avail.len().min(MAX_HEADER_BYTES + 1 - scanned);
        raw.extend_from_slice(&avail[..take]);
        if let Some(end) = find_head_end(&raw, scanned)? {
            r.consume(end + 4 - scanned);
            break end;
        }
        r.consume(take);
    };
    let head = parse_head(&raw[..head_end], StartLine::Status)?;
    let (code, _reason) = &head.start;
    let status = code
        .parse::<u16>()
        .map_err(|_| invalid(format!("malformed status code: {code}")))?;
    if find_header(&head.headers, "transfer-encoding").is_some() {
        return Err(invalid("transfer-encoded response refused"));
    }
    let len = content_length(&head.headers, max_body)?;
    let got = r.by_ref().take(len as u64).read_to_end(sink)?;
    if got < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("body truncated: {} of {len} bytes missing", len - got),
        ));
    }
    Ok((status, head.headers))
}

/// The start line and headers of one message head.
#[derive(Debug)]
struct Head {
    /// The two start-line fields beside the version: method and target
    /// of a request, status code and reason of a response.
    start: (String, String),
    headers: Vec<(String, String)>,
}

/// Which start line a head opens with.
#[derive(Debug, Clone, Copy)]
enum StartLine {
    Request,
    Status,
}

/// Locate the `\r\n\r\n` head terminator in `buf`, resuming the scan
/// after the `scanned` bytes already searched (no O(n²) rescans while a
/// large head trickles in). A head longer than [`MAX_HEADER_BYTES`] is
/// refused whether or not it has ended.
fn find_head_end(buf: &[u8], scanned: usize) -> io::Result<Option<usize>> {
    let end = buf.len().min(MAX_HEADER_BYTES);
    let from = scanned.saturating_sub(3).min(end);
    if let Some(pos) = buf[from..end].windows(4).position(|w| w == b"\r\n\r\n") {
        return Ok(Some(from + pos));
    }
    if buf.len() > MAX_HEADER_BYTES {
        return Err(invalid("header block exceeds limit"));
    }
    Ok(None)
}

/// The one head parser, for requests and responses alike. `raw` is a head
/// without its blank-line terminator. Its start line has three
/// space-separated fields, one of them an `HTTP/1.x` version: last on a
/// request line (`GET /path HTTP/1.1`), first on a status line
/// (`HTTP/1.1 206 Partial Content`).
fn parse_head(raw: &[u8], kind: StartLine) -> io::Result<Head> {
    let text = std::str::from_utf8(raw).map_err(|_| invalid("non-utf8 header line"))?;
    let mut lines = text.split("\r\n");
    let line = lines.next().unwrap_or("");
    let fields: Vec<&str> = line.splitn(3, ' ').collect();
    let &[a, b, c] = fields.as_slice() else {
        return Err(invalid(format!("malformed start line: {line}")));
    };
    let (version, start) = match kind {
        StartLine::Request => (c, (a, b)),
        StartLine::Status => (a, (b, c)),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(invalid(format!("unsupported version: {version}")));
    }
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| invalid(format!("malformed header: {line}")))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    Ok(Head {
        start: (start.0.to_string(), start.1.to_string()),
        headers,
    })
}

/// The one `Content-Length` rule: an absent header means an empty body,
/// and a declared length over `max_body` is refused before any of the
/// body is read.
fn content_length(headers: &[(String, String)], max_body: usize) -> io::Result<usize> {
    let len = match find_header(headers, "content-length") {
        Some(v) => v.parse::<usize>().map_err(|_| invalid("bad content-length"))?,
        None => 0,
    };
    if len > max_body {
        return Err(invalid(format!("body of {len} bytes exceeds limit {max_body}")));
    }
    Ok(len)
}

/// Incremental request parser for the nonblocking serve path.
///
/// The one request parser of both serve engines. The event loop feeds
/// whatever bytes the socket had; the pool engine drives it from a
/// blocking read loop ([`RequestParser::read_from`]). Either way it
/// consumes the head (through the head parser [`read_response_into`]
/// shares) and a `Content-Length` or chunked body under shared
/// header/body budgets, without re-scanning
/// already-seen bytes. Bytes past a complete request stay buffered for
/// the next keep-alive round.
#[derive(Debug)]
pub struct RequestParser {
    max_body: usize,
    buf: Vec<u8>,
    /// How far the header-terminator scan has progressed (avoids O(n²)
    /// rescans while a large header block trickles in).
    scanned: usize,
    phase: Phase,
}

#[derive(Debug)]
enum Phase {
    Head,
    Sized { head: Head, need: usize },
    Chunked { head: Head, decoded: Vec<u8>, chunk: ChunkPhase },
}

#[derive(Debug)]
enum ChunkPhase {
    Size,
    Data { remaining: usize },
    DataCrlf,
    Trailer,
}

fn invalid(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

impl RequestParser {
    pub fn new(max_body: usize) -> RequestParser {
        RequestParser {
            max_body,
            buf: Vec::new(),
            scanned: 0,
            phase: Phase::Head,
        }
    }

    /// Bytes currently buffered (request in flight + any pipelined tail).
    pub fn buffered(&self) -> usize {
        self.buf.len()
            + match &self.phase {
                Phase::Chunked { decoded, .. } => decoded.len(),
                _ => 0,
            }
    }

    /// Append freshly-read bytes and try to complete a request. Returns
    /// `Ok(Some(_))` as soon as one full request is available — call with
    /// an empty slice to drain further pipelined requests. An error means
    /// the peer violated the protocol; the connection should be dropped.
    pub fn feed(&mut self, data: &[u8]) -> io::Result<Option<Request>> {
        self.buf.extend_from_slice(data);
        self.parse()
    }

    /// Try to complete a request from the bytes already buffered.
    fn parse(&mut self) -> io::Result<Option<Request>> {
        loop {
            match std::mem::replace(&mut self.phase, Phase::Head) {
                Phase::Head => {
                    let Some(head_end) = find_head_end(&self.buf, self.scanned)? else {
                        self.scanned = self.buf.len();
                        return Ok(None);
                    };
                    let head = parse_head(&self.buf[..head_end], StartLine::Request)?;
                    self.buf.drain(..head_end + 4);
                    self.scanned = 0;
                    if find_header(&head.headers, "transfer-encoding")
                        .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"))
                    {
                        self.phase = Phase::Chunked {
                            head,
                            decoded: Vec::new(),
                            chunk: ChunkPhase::Size,
                        };
                        continue;
                    }
                    let need = content_length(&head.headers, self.max_body)?;
                    if need == 0 {
                        return Ok(Some(self.produce(head, Vec::new())));
                    }
                    self.phase = Phase::Sized { head, need };
                }
                Phase::Sized { head, need } => {
                    if self.buf.len() < need {
                        self.phase = Phase::Sized { head, need };
                        return Ok(None);
                    }
                    let body: Vec<u8> = self.buf.drain(..need).collect();
                    return Ok(Some(self.produce(head, body)));
                }
                Phase::Chunked { head, mut decoded, mut chunk } => {
                    // Advance until the body completes or the bytes run out.
                    loop {
                        chunk = match chunk {
                            ChunkPhase::Size => {
                                let Some(line_end) = find_line(&self.buf, 130, "chunk size line")?
                                else {
                                    break;
                                };
                                let line = std::str::from_utf8(&self.buf[..line_end])
                                    .map_err(|_| invalid("non-utf8 chunk size"))?;
                                let hex = line.split(';').next().unwrap_or("").trim();
                                let size = usize::from_str_radix(hex, 16)
                                    .map_err(|_| invalid("bad chunk size"))?;
                                self.buf.drain(..line_end + 2);
                                // `decoded` never exceeds the budget, so the
                                // subtraction cannot wrap (an addition could).
                                if size > self.max_body - decoded.len() {
                                    return Err(invalid("chunked body exceeds limit"));
                                }
                                match size {
                                    0 => ChunkPhase::Trailer,
                                    _ => ChunkPhase::Data { remaining: size },
                                }
                            }
                            ChunkPhase::Data { remaining } => {
                                if self.buf.is_empty() {
                                    break;
                                }
                                let take = remaining.min(self.buf.len());
                                decoded.extend(self.buf.drain(..take));
                                match remaining - take {
                                    0 => ChunkPhase::DataCrlf,
                                    left => ChunkPhase::Data { remaining: left },
                                }
                            }
                            ChunkPhase::DataCrlf => {
                                if self.buf.len() < 2 {
                                    break;
                                }
                                if &self.buf[..2] != b"\r\n" {
                                    return Err(invalid("chunk missing CRLF"));
                                }
                                self.buf.drain(..2);
                                ChunkPhase::Size
                            }
                            ChunkPhase::Trailer => {
                                let Some(line_end) = find_line(&self.buf, 1024, "trailer section")?
                                else {
                                    break;
                                };
                                self.buf.drain(..line_end + 2);
                                if line_end == 0 {
                                    return Ok(Some(self.produce(head, decoded)));
                                }
                                ChunkPhase::Trailer
                            }
                        };
                    }
                    self.phase = Phase::Chunked { head, decoded, chunk };
                    return Ok(None);
                }
            }
        }
    }

    /// Blocking driver: return the next request, reading from `r` straight
    /// into the parser's buffer only when it holds no complete request (so
    /// pipelined requests are served before the next read). `Ok(None)`
    /// means the peer closed cleanly between requests; a close mid-request
    /// is an [`io::ErrorKind::UnexpectedEof`] error.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<Option<Request>> {
        loop {
            if let Some(req) = self.parse()? {
                return Ok(Some(req));
            }
            let filled = self.buf.len();
            self.buf.resize(filled + READ_CHUNK, 0);
            let n = match r.read(&mut self.buf[filled..]) {
                Ok(n) => n,
                Err(e) => {
                    self.buf.truncate(filled);
                    return Err(e);
                }
            };
            self.buf.truncate(filled + n);
            if n == 0 {
                if self.buf.is_empty() && matches!(self.phase, Phase::Head) {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-request",
                ));
            }
        }
    }

    fn produce(&mut self, head: Head, body: Vec<u8>) -> Request {
        self.phase = Phase::Head;
        self.scanned = 0;
        let (method, path) = head.start;
        Request {
            method,
            path,
            headers: head.headers,
            body,
        }
    }
}

/// The length of the CRLF-terminated line at the front of `buf`, or `None`
/// while it is still arriving; a line longer than `budget` is refused.
fn find_line(buf: &[u8], budget: usize, what: &str) -> io::Result<Option<usize>> {
    match buf[..buf.len().min(budget)].windows(2).position(|w| w == b"\r\n") {
        None if buf.len() > budget => Err(invalid(format!("{what} too long"))),
        found => Ok(found),
    }
}

/// Serialize only a response head with an explicit `Content-Length` —
/// the streaming serve path emits this and then copies the body straight
/// from its source (shared buffer or file) without materializing it.
pub fn response_head_bytes(resp: &Response, content_length: u64) -> Vec<u8> {
    let mut head = format!("HTTP/1.1 {} {}\r\n", resp.status, reason(resp.status));
    for (k, v) in &resp.headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(&format!("Content-Length: {content_length}\r\n\r\n"));
    head.into_bytes()
}

/// Parse an RFC 7233 byte range against a body of `total` bytes:
/// `bytes=N-` (open end), `bytes=N-M` (inclusive end), or the suffix form
/// `bytes=-N` (the final N bytes). Returns the half-open `[start, end)`
/// range, or `None` if the header is absent or unsatisfiable (the caller
/// answers a present-but-unsatisfiable header with 416).
pub fn parse_range(header: Option<&str>, total: u64) -> Option<(u64, u64)> {
    let spec = header?.strip_prefix("bytes=")?;
    let (from, to) = spec.split_once('-')?;
    if from.trim().is_empty() {
        // Suffix form: the last N bytes. N = 0 is unsatisfiable per RFC
        // 7233 §2.1, as is a suffix on an empty body.
        let n: u64 = to.trim().parse().ok()?;
        if n == 0 || total == 0 {
            return None;
        }
        return Some((total.saturating_sub(n), total));
    }
    let start: u64 = from.trim().parse().ok()?;
    let end: u64 = match to.trim() {
        "" => total,
        t => t.parse::<u64>().ok()?.checked_add(1)?,
    };
    if start >= total || end > total || start >= end {
        return None;
    }
    Some((start, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    /// A reader that hands out at most 1000 bytes per read.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.0.len()).min(1000);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// Parse one request off `wire` through the blocking driver, reading
    /// in small pieces so every request spans several reads.
    fn parse_request(wire: &[u8], max_body: usize) -> io::Result<Option<Request>> {
        RequestParser::new(max_body).read_from(&mut Trickle(wire))
    }

    fn roundtrip_request(body: Option<&[u8]>, chunked: bool) -> Request {
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            "PUT",
            "/v2/app/blobs/sha256:abc",
            &[("Host".into(), "localhost".into())],
            body,
            chunked,
        )
        .unwrap();
        parse_request(&wire, 1 << 20).unwrap().unwrap()
    }

    #[test]
    fn request_roundtrip_content_length() {
        let req = roundtrip_request(Some(b"hello blob"), false);
        assert_eq!(req.method, "PUT");
        assert_eq!(req.path, "/v2/app/blobs/sha256:abc");
        assert_eq!(req.body, b"hello blob");
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("HOST"), Some("localhost"));
    }

    #[test]
    fn request_roundtrip_chunked() {
        // Multi-chunk: body larger than one upload chunk.
        let body: Vec<u8> = (0..UPLOAD_CHUNK + 123).map(|i| (i % 251) as u8).collect();
        let req = roundtrip_request(Some(&body), true);
        assert_eq!(req.body, body);
    }

    #[test]
    fn empty_body_request() {
        let req = roundtrip_request(None, false);
        assert!(req.body.is_empty());
    }

    #[test]
    fn response_roundtrip_and_truncation() {
        let resp = Response::new(200)
            .with_header("Docker-Content-Digest", "sha256:ff")
            .with_body(vec![7u8; 1000]);
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, None).unwrap();
        let mut sink = Vec::new();
        let (status, headers) =
            read_response_into(&mut BufReader::new(&wire[..]), &mut sink, 1 << 20).unwrap();
        assert_eq!(status, 200);
        assert_eq!(find_header(&headers, "docker-content-digest"), Some("sha256:ff"));
        assert_eq!(sink.len(), 1000);

        // Truncated write: reader keeps the prefix and reports EOF.
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, Some(100)).unwrap();
        let mut sink = Vec::new();
        let err = read_response_into(&mut BufReader::new(&wire[..]), &mut sink, 1 << 20)
            .expect_err("truncated body must error");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(sink.len(), 100, "partial prefix retained for resume");
    }

    #[test]
    fn body_limit_enforced() {
        let mut wire = Vec::new();
        write_request(&mut wire, "PUT", "/x", &[], Some(&[1u8; 4096]), false).unwrap();
        let err = parse_request(&wire, 1024).expect_err("over limit");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut wire = Vec::new();
        write_request(&mut wire, "PUT", "/x", &[], Some(&[1u8; 4096]), true).unwrap();
        let err = parse_request(&wire, 1024).expect_err("over limit");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn clean_eof_is_none() {
        let empty: &[u8] = b"";
        assert!(parse_request(empty, 1024).unwrap().is_none());
    }

    #[test]
    fn eof_mid_request_is_an_error() {
        let mut wire = Vec::new();
        write_request(&mut wire, "PUT", "/x", &[], Some(&[1u8; 64]), false).unwrap();
        // Cut inside the head, right after the head (body not begun), and
        // inside the body: each is a killed request, never a clean close.
        let head_end = wire.len() - 64;
        for cut in [5, head_end, head_end + 10] {
            let err = parse_request(&wire[..cut], 1024).expect_err("truncated request");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn range_parsing() {
        assert_eq!(parse_range(Some("bytes=0-"), 10), Some((0, 10)));
        assert_eq!(parse_range(Some("bytes=4-"), 10), Some((4, 10)));
        assert_eq!(parse_range(Some("bytes=2-5"), 10), Some((2, 6)));
        assert_eq!(parse_range(Some("bytes=10-"), 10), None);
        assert_eq!(parse_range(Some("bytes=5-4"), 10), None);
        assert_eq!(parse_range(Some("bytes=0-99"), 10), None);
        assert_eq!(parse_range(None, 10), None);
        assert_eq!(parse_range(Some("lines=1-"), 10), None);
    }

    #[test]
    fn parse_range_suffix_form() {
        // RFC 7233 suffix form: the final N bytes.
        assert_eq!(parse_range(Some("bytes=-4"), 10), Some((6, 10)));
        assert_eq!(parse_range(Some("bytes=-10"), 10), Some((0, 10)));
        // A suffix longer than the body means the whole body (§2.1).
        assert_eq!(parse_range(Some("bytes=-99"), 10), Some((0, 10)));
        // Unsatisfiable suffixes → None → the server answers 416.
        assert_eq!(parse_range(Some("bytes=-0"), 10), None);
        assert_eq!(parse_range(Some("bytes=-4"), 0), None);
        // Empty spec (`bytes=-`) and garbage never panic.
        assert_eq!(parse_range(Some("bytes=-"), 10), None);
        assert_eq!(parse_range(Some("bytes="), 10), None);
        assert_eq!(parse_range(Some("bytes=-abc"), 10), None);
    }

    #[test]
    fn incremental_parser_matches_blocking_reader_byte_by_byte() {
        // Content-Length and chunked requests, delivered one byte at a
        // time, parse identically to the blocking reader.
        for chunked in [false, true] {
            let body: Vec<u8> = (0..UPLOAD_CHUNK + 57).map(|i| (i % 253) as u8).collect();
            let mut raw = Vec::new();
            write_request(
                &mut raw,
                "PUT",
                "/v2/app/blobs/sha256:abc",
                &[("Host".into(), "localhost".into())],
                Some(&body),
                chunked,
            )
            .unwrap();
            let mut parser = RequestParser::new(1 << 22);
            let mut got = None;
            for (i, b) in raw.iter().enumerate() {
                match parser.feed(std::slice::from_ref(b)).unwrap() {
                    Some(req) => {
                        assert_eq!(i, raw.len() - 1, "completed early (chunked={chunked})");
                        got = Some(req);
                    }
                    None => assert!(i < raw.len() - 1, "never completed (chunked={chunked})"),
                }
            }
            let req = got.expect("request parsed");
            assert_eq!(req.method, "PUT");
            assert_eq!(req.path, "/v2/app/blobs/sha256:abc");
            assert_eq!(req.header("host"), Some("localhost"));
            assert_eq!(req.body, body, "chunked={chunked}");
            assert_eq!(parser.buffered(), 0);
        }
    }

    #[test]
    fn incremental_parser_keeps_pipelined_tail() {
        let mut raw = Vec::new();
        write_request(&mut raw, "GET", "/v2/", &[], None, false).unwrap();
        let first_len = raw.len();
        write_request(&mut raw, "GET", "/v2/x/blobs/sha256:ff", &[], None, false).unwrap();
        let mut parser = RequestParser::new(1 << 20);
        // Feed both requests at once: the first completes, the tail stays.
        let one = parser.feed(&raw).unwrap().expect("first request");
        assert_eq!(one.path, "/v2/");
        assert_eq!(parser.buffered(), raw.len() - first_len);
        let two = parser.feed(&[]).unwrap().expect("second request");
        assert_eq!(two.path, "/v2/x/blobs/sha256:ff");
        assert_eq!(parser.buffered(), 0);
        assert!(parser.feed(&[]).unwrap().is_none());
    }

    #[test]
    fn incremental_parser_enforces_budgets() {
        // Oversized sized body.
        let mut parser = RequestParser::new(16);
        let raw = b"PUT /x HTTP/1.1\r\nContent-Length: 64\r\n\r\n";
        assert!(parser.feed(raw).is_err());
        // Oversized chunked body.
        let mut parser = RequestParser::new(16);
        let raw = b"PUT /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n40\r\n";
        assert!(parser.feed(raw).is_err());
        // Unbounded header block.
        let mut parser = RequestParser::new(1 << 20);
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES + 2));
        assert!(parser.feed(&raw).is_err());
        // Garbage request line.
        let mut parser = RequestParser::new(1 << 20);
        assert!(parser.feed(b"nonsense\r\n\r\n").is_err());
        // A huge chunk size after a first chunk: the budget check must not
        // wrap around and let the body grow past `max_body`.
        let mut parser = RequestParser::new(1 << 20);
        let raw = b"PUT /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    1\r\na\r\nffffffffffffffff\r\n";
        let err = parser.feed(raw).expect_err("chunk size over budget");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn responses_parse_in_turn_and_chunked_ones_are_refused() {
        // Two keep-alive responses on one reader: the first read consumes
        // nothing of the second.
        let mut wire = Vec::new();
        write_response(&mut wire, &Response::new(200).with_body(&b"one"[..]), None).unwrap();
        write_response(&mut wire, &Response::new(404).with_body(&b"two!"[..]), None).unwrap();
        let mut r = BufReader::with_capacity(7, &wire[..]);
        for (status, body) in [(200, &b"one"[..]), (404, &b"two!"[..])] {
            let mut sink = Vec::new();
            assert_eq!(read_response_into(&mut r, &mut sink, 64).unwrap().0, status);
            assert_eq!(sink, body);
        }
        let err = read_response_into(&mut r, &mut Vec::new(), 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // A chunked response is refused, not decoded.
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        let mut sink = Vec::new();
        let err = read_response_into(&mut &raw[..], &mut sink, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(sink.is_empty());
    }

    #[test]
    fn response_head_matches_blocking_writer() {
        let resp = Response::new(206).with_header("Content-Range", "bytes 0-9/100");
        let head = response_head_bytes(&resp, 10);
        let text = String::from_utf8(head).unwrap();
        assert!(text.starts_with("HTTP/1.1 206 Partial Content\r\n"), "{text}");
        assert!(text.contains("Content-Range: bytes 0-9/100\r\n"));
        assert!(text.ends_with("Content-Length: 10\r\n\r\n"));
    }

    #[test]
    fn parse_range_overflow_inputs() {
        // u64::MAX end + 1 must not wrap; checked_add rejects it.
        let max = u64::MAX.to_string();
        assert_eq!(parse_range(Some(&format!("bytes=0-{max}")), 10), None);
        // Oversized-but-parseable start is simply out of range.
        assert_eq!(parse_range(Some(&format!("bytes={max}-")), 10), None);
        // A suffix of u64::MAX saturates to the whole body, no wrap.
        assert_eq!(parse_range(Some(&format!("bytes=-{max}")), 10), Some((0, 10)));
        // Numbers beyond u64 fail to parse → None, not panic.
        let huge = "184467440737095516160"; // u64::MAX * 10
        assert_eq!(parse_range(Some(&format!("bytes={huge}-")), 10), None);
        assert_eq!(parse_range(Some(&format!("bytes=-{huge}")), 10), None);
    }

    /// Splices the generator makes into valid messages: huge hex sizes and
    /// lengths, framing headers, stray terminators.
    const HOSTILE: &[&[u8]] = &[
        b"ffffffffffffffff\r\n",
        b"10000000000000000\r\n",
        b"7fffffffffffffff;ext\r\n",
        b"Content-Length: 18446744073709551615\r\n",
        b"Content-Length: 18446744073709551616\r\n",
        b"Content-Length: 99999999\r\n",
        b"Content-Length: -1\r\n",
        b"Transfer-Encoding: chunked\r\n",
        b"\r\n\r\n",
        b"\r\n",
        b"0\r\n\r\n",
        b"HTTP/2 200\r\n",
    ];

    /// A valid request (`PUT`, chunked or sized) or response carrying a
    /// `body_len`-byte body.
    fn valid_message(request: bool, chunked: bool, body_len: usize) -> Vec<u8> {
        let body: Vec<u8> = (0..body_len).map(|i| (i % 251) as u8).collect();
        let headers = [("X-Digest".to_string(), "sha256:ff".to_string())];
        let mut wire = Vec::new();
        if request {
            write_request(
                &mut wire,
                "PUT",
                "/v2/a/blobs/x",
                &headers,
                Some(&body),
                chunked,
            )
            .unwrap();
        } else {
            let resp = Response::new(206)
                .with_header("Content-Range", format!("bytes 0-{body_len}/*"))
                .with_body(body);
            write_response(&mut wire, &resp, None).unwrap();
        }
        wire
    }

    /// Apply `(kind, at, value)` edits in turn: flip a byte, truncate,
    /// splice a [`HOSTILE`] token at the next line start (where a chunk
    /// size or a header goes), bloat the head with a long header, or cut a
    /// span out.
    fn mutate(mut wire: Vec<u8>, edits: &[(u8, prop::sample::Index, u8)]) -> Vec<u8> {
        for &(kind, at, value) in edits {
            let i = at.index(wire.len() + 1);
            match kind % 5 {
                0 if i < wire.len() => wire[i] ^= value | 1,
                1 => wire.truncate(i),
                2 => {
                    let token = HOSTILE[value as usize % HOSTILE.len()];
                    let line = wire[i..].windows(2).position(|w| w == b"\r\n");
                    let at = line.map_or(i, |p| i + p + 2);
                    wire.splice(at..at, token.iter().copied());
                }
                3 => {
                    let mut bloat = b"X-Bloat: ".to_vec();
                    bloat.extend(std::iter::repeat_n(b'a', value as usize * 128));
                    bloat.extend_from_slice(b"\r\n");
                    wire.splice(i..i, bloat);
                }
                _ => {
                    wire.drain(i..(i + value as usize % 16).min(wire.len()));
                }
            }
        }
        wire
    }

    /// Body bytes a parser holds decoded, not yet returned.
    fn decoded_len(parser: &RequestParser) -> usize {
        match &parser.phase {
            Phase::Chunked { decoded, .. } => decoded.len(),
            _ => 0,
        }
    }

    fn typed(e: &io::Error) -> bool {
        matches!(
            e.kind(),
            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Mutated requests fed at random split points and mutated
        /// responses read through small buffers: no panic, no body over
        /// `max_body` returned or held, every error `InvalidData` or
        /// `UnexpectedEof`, and an untouched message parses back whole.
        #[test]
        fn wire_parsers_survive_adversarial_input(
            request in any::<bool>(),
            chunked in any::<bool>(),
            body_len in 0usize..600,
            max_body in 1usize..512,
            edits in prop::collection::vec((0u8..5, any::<prop::sample::Index>(), any::<u8>()), 0..4),
            splits in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
            read_cap in 1usize..64,
        ) {
            let wire = mutate(valid_message(request, chunked, body_len), &edits);
            let pristine = edits.is_empty() && body_len <= max_body;
            let mut bodies = Vec::new();
            if request {
                let mut cuts: Vec<usize> = splits.iter().map(|s| s.index(wire.len() + 1)).collect();
                cuts.push(wire.len());
                cuts.sort_unstable();
                let mut parser = RequestParser::new(max_body);
                let (mut fed, mut failed) = (0, false);
                'feed: for cut in cuts {
                    let mut data = &wire[fed..cut];
                    fed = cut;
                    loop {
                        match parser.feed(data) {
                            Ok(Some(req)) => bodies.push(req.body),
                            Ok(None) => break,
                            Err(e) => {
                                prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                                failed = true;
                                break 'feed;
                            }
                        }
                        data = &[];
                    }
                    prop_assert!(decoded_len(&parser) <= max_body);
                    prop_assert!(parser.buffered() <= fed);
                }
                if !failed {
                    match parser.read_from(&mut &[][..]) {
                        Ok(Some(req)) => bodies.push(req.body),
                        Ok(None) => {}
                        Err(e) => prop_assert!(typed(&e), "untyped error {e:?}"),
                    }
                }
            } else {
                let mut r = BufReader::with_capacity(read_cap, &wire[..]);
                let mut sink = Vec::new();
                match read_response_into(&mut r, &mut sink, max_body) {
                    Ok((status, _)) => {
                        prop_assert!(!pristine || status == 206);
                        bodies.push(sink);
                    }
                    Err(e) => {
                        prop_assert!(typed(&e), "untyped error {e:?}");
                        prop_assert!(sink.len() <= max_body);
                    }
                }
            }
            for body in &bodies {
                prop_assert!(body.len() <= max_body);
            }
            if pristine {
                let want: Vec<u8> = (0..body_len).map(|i| (i % 251) as u8).collect();
                prop_assert_eq!(bodies, vec![want]);
            }
        }
    }
}
