//! The shared HTTP/1.1 service core: one hardened serve-path
//! implementation behind every coMtainer daemon.
//!
//! Extracted from the registry server so `comt serve` (the distribution
//! registry) and `comt buildd` (the multi-tenant rebuild service) run the
//! same battle-tested plumbing and differ only in routing. A daemon
//! implements [`HttpHandler`] (pure request → response routing; the trait
//! never sees a socket) and calls [`serve_http`].
//!
//! Two engines sit behind the same API:
//!
//! * **Event loop** (Linux, the default): a readiness-driven reactor over
//!   raw `epoll`/`eventfd`/`sendfile` syscalls ([`crate::eventloop`]).
//!   `threads` loop threads each own a [`crate::poller::Poller`];
//!   connections are nonblocking state machines with per-state deadlines,
//!   responses stream in bounded chunks (file bodies via `sendfile`, so a
//!   2 GiB layer never transits a userspace buffer), writes are scheduled
//!   round-robin with a per-pass quantum, and per-client token buckets
//!   cap egress. Thousands of idle connections cost entries in an epoll
//!   set, not threads.
//! * **Thread pool** (everywhere else): one acceptor feeds a bounded pool
//!   of blocking workers over a bounded queue — a connection flood
//!   back-pressures at accept. Same wire behavior, different scaling
//!   shape; `max_conns`/`client_rate` are loop-engine knobs and are
//!   inert here (the bounded pool is its own admission control).
//!
//! Handlers return bodies either materialized ([`HttpAction::Respond`])
//! or as a [`BodySource`] ([`HttpAction::RespondBody`]) that both engines
//! stream in [`STREAM_CHUNK`]-bounded pieces. Fault injection stays
//! available via [`HttpAction::RespondTruncated`], which lies about the
//! body length and drops the line — the chaos hook the registry uses to
//! exercise client Range-resume.

use crate::wire::{self, Request, Response};
use bytes::Bytes;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bound on any single body copy on the serve path: streamed responses
/// move through the socket in pieces of at most this size.
pub const STREAM_CHUNK: usize = 256 * 1024;

/// Tuning knobs shared by every daemon built on [`serve_http`].
#[derive(Debug, Clone)]
pub struct HttpOptions {
    /// Event loop threads (loop engine) or worker threads (pool engine).
    pub threads: usize,
    /// Accept-queue depth: the listen backlog (loop engine; the kernel
    /// caps it at `somaxconn`) or the accept→worker queue (pool engine).
    pub backlog: usize,
    /// Per-connection read deadline (idle keep-alive or stalled upload).
    pub read_timeout: Duration,
    /// Per-connection write deadline (stalled / zero-window reader).
    pub write_timeout: Duration,
    /// Largest accepted request body.
    pub max_body: usize,
    /// Open-connection cap (loop engine). Accepts past the cap are
    /// refused immediately and counted, so a connection flood degrades
    /// loudly instead of wedging the reactor.
    pub max_conns: usize,
    /// Per-client (peer IP) egress cap in bytes/sec; 0 disables. Loop
    /// engine only.
    pub client_rate: u64,
}

impl Default for HttpOptions {
    fn default() -> Self {
        HttpOptions {
            threads: std::thread::available_parallelism().map_or(4, |n| n.get().clamp(2, 16)),
            backlog: 64,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_body: 1 << 30,
            max_conns: 1024,
            client_rate: 0,
        }
    }
}

/// Where a streamed response body comes from.
#[derive(Debug)]
pub enum BodySource {
    /// Refcounted in-memory bytes (resident blobs, JSON bodies): cloned
    /// per response, written in bounded chunks, never copied whole.
    Bytes(Bytes),
    /// A byte window of a file on disk. The loop engine moves it with
    /// `sendfile` (kernel-space file→socket, zero userspace copies); the
    /// pool engine streams it through a [`STREAM_CHUNK`] buffer.
    File { path: PathBuf, offset: u64, len: u64 },
}

impl BodySource {
    pub fn len(&self) -> u64 {
        match self {
            BodySource::Bytes(b) => b.len() as u64,
            BodySource::File { len, .. } => *len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a handler wants done with the socket after routing one request.
pub enum HttpAction {
    /// A fully materialized response (status, headers, body).
    Respond(Response),
    /// `resp` carries status + headers; the body streams from `source`
    /// (its `Content-Length` is the source length, `resp.body` ignored).
    RespondBody(Response, BodySource),
    /// Fault injection: send only the first N body bytes of a response
    /// that advertises its full length, then close the connection.
    RespondTruncated(Response, usize),
}

/// A daemon's routing layer. Implementations are shared across serve
/// threads, so handlers synchronize their own state.
pub trait HttpHandler: Send + Sync + 'static {
    /// Namespace for this daemon's observe counters — e.g. `dist.server`
    /// yields `dist.server.req.<endpoint>`, `dist.server.bytes_in`, …
    /// Also names the daemon's threads.
    fn metrics_prefix(&self) -> &'static str;

    /// Route one request: returns the endpoint label (for counters) plus
    /// the action to take on the socket.
    fn handle(&self, req: &Request) -> (&'static str, HttpAction);
}

/// A running daemon. Dropping it without [`HttpServer::shutdown`] stops
/// accepting but does not join threads; `shutdown` joins everything.
pub enum HttpServer {
    Pool(PoolServer),
    Loop(crate::eventloop::LoopServer),
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer").field("addr", &self.addr()).finish()
    }
}

impl HttpServer {
    /// The bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        match self {
            HttpServer::Pool(s) => s.addr,
            HttpServer::Loop(s) => s.addr(),
        }
    }

    /// Stop accepting and join all threads. After this returns, no thread
    /// holds a reference to the handler.
    pub fn shutdown(self) {
        match self {
            HttpServer::Pool(s) => s.shutdown(),
            HttpServer::Loop(s) => s.shutdown(),
        }
    }
}

/// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
/// `handler` until shutdown. Picks the readiness event loop when the
/// platform supports it, the blocking thread pool otherwise.
pub fn serve_http<H: HttpHandler>(
    handler: Arc<H>,
    addr: &str,
    opts: HttpOptions,
) -> io::Result<HttpServer> {
    let listener = TcpListener::bind(addr)?;
    if crate::poller::SUPPORTED {
        match crate::eventloop::serve_loop(Arc::clone(&handler), listener, &opts) {
            Ok(s) => return Ok(HttpServer::Loop(s)),
            // A sandbox may deny epoll/eventfd even on Linux; fall back.
            Err(e) if e.kind() == io::ErrorKind::Unsupported || e.raw_os_error() == Some(1) => {
                let listener = TcpListener::bind(addr)?;
                return serve_pool(handler, listener, &opts).map(HttpServer::Pool);
            }
            Err(e) => return Err(e),
        }
    }
    serve_pool(handler, listener, &opts).map(HttpServer::Pool)
}

/// The blocking thread-pool engine (fallback off Linux).
pub struct PoolServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

fn serve_pool<H: HttpHandler>(
    handler: Arc<H>,
    listener: TcpListener,
    opts: &HttpOptions,
) -> io::Result<PoolServer> {
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let prefix = handler.metrics_prefix();

    let (tx, rx) = mpsc::sync_channel::<TcpStream>(opts.backlog);
    let rx = Arc::new(Mutex::new(rx));

    let mut workers = Vec::with_capacity(opts.threads);
    for i in 0..opts.threads {
        let rx = Arc::clone(&rx);
        let handler = Arc::clone(&handler);
        let (rt, wt, max_body) = (opts.read_timeout, opts.write_timeout, opts.max_body);
        workers.push(
            std::thread::Builder::new()
                .name(format!("{prefix}-worker-{i}"))
                .spawn(move || loop {
                    let conn = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                    match conn {
                        Ok(stream) => handle_connection(stream, &*handler, rt, wt, max_body),
                        Err(_) => break, // acceptor gone, queue drained
                    }
                })?,
        );
    }

    let acceptor = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name(format!("{prefix}-acceptor"))
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    match conn {
                        // A full queue back-pressures the acceptor (bounded).
                        Ok(stream) => {
                            if tx.send(stream).is_err() {
                                break;
                            }
                        }
                        Err(_) => continue,
                    }
                }
                // tx drops here; workers drain the queue then exit.
            })?
    };

    Ok(PoolServer {
        addr: local,
        stop,
        acceptor: Some(acceptor),
        workers,
    })
}

impl PoolServer {
    fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept().
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for PoolServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// Stream a [`BodySource`] to `w` in bounded chunks — the pool engine's
/// analogue of the loop engine's chunked write / sendfile path.
fn write_body_source(w: &mut impl Write, source: &BodySource) -> io::Result<u64> {
    match source {
        BodySource::Bytes(data) => {
            for chunk in data.chunks(STREAM_CHUNK) {
                w.write_all(chunk)?;
            }
            Ok(data.len() as u64)
        }
        BodySource::File { path, offset, len } => {
            let mut f = std::fs::File::open(path)?;
            f.seek(SeekFrom::Start(*offset))?;
            let mut remaining = *len;
            let mut buf = vec![0u8; STREAM_CHUNK.min(*len as usize + 1)];
            while remaining > 0 {
                let want = (remaining as usize).min(buf.len());
                let n = f.read(&mut buf[..want])?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "blob file shorter than advertised",
                    ));
                }
                w.write_all(&buf[..n])?;
                remaining -= n as u64;
            }
            Ok(*len)
        }
    }
}

/// The keep-alive loop: read requests until close/timeout/error, route
/// each through the handler, account bytes and latency per endpoint.
fn handle_connection<H: HttpHandler>(
    mut stream: TcpStream,
    handler: &H,
    read_timeout: Duration,
    write_timeout: Duration,
    max_body: usize,
) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_write_timeout(Some(write_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut parser = wire::RequestParser::new(max_body);
    let obs = comt_observe::global();
    let prefix = handler.metrics_prefix();
    loop {
        let req = match parser.read_from(&mut stream) {
            Ok(Some(req)) => req,
            // Clean close, timeout, or a killed upload: any staged request
            // body is discarded with the error — nothing was published.
            Ok(None) | Err(_) => return,
        };
        let close = req.wants_close();
        obs.count(&format!("{prefix}.bytes_in"), req.body.len() as u64);
        let started = Instant::now();
        let (endpoint, action) = handler.handle(&req);
        obs.count(&format!("{prefix}.req.{endpoint}"), 1);
        obs.record_value(
            &format!("{prefix}.{endpoint}.latency_us"),
            started.elapsed().as_micros() as u64,
        );
        match action {
            HttpAction::Respond(resp) => {
                obs.count(&format!("{prefix}.bytes_out"), resp.body.len() as u64);
                if wire::write_response(&mut writer, &resp, None).is_err() {
                    return;
                }
            }
            HttpAction::RespondBody(resp, source) => {
                obs.count(&format!("{prefix}.bytes_out"), source.len());
                let head = wire::response_head_bytes(&resp, source.len());
                let sent = writer
                    .write_all(&head)
                    .and_then(|_| write_body_source(&mut writer, &source))
                    .and_then(|n| writer.flush().map(|_| n));
                if sent.is_err() {
                    return;
                }
            }
            HttpAction::RespondTruncated(resp, after) => {
                obs.count(&format!("{prefix}.chaos_truncations"), 1);
                obs.count(&format!("{prefix}.bytes_out"), after.min(resp.body.len()) as u64);
                if wire::write_response(&mut writer, &resp, Some(after)).is_ok() {
                    // The advertised length was a lie — drop the line.
                    linger_close(&mut stream, read_timeout);
                }
                return;
            }
        }
        if close {
            linger_close(&mut stream, read_timeout);
            return;
        }
    }
}

/// Lingering close: shut the write side, so the peer reads the whole
/// response and then EOF, and discard its input until its own EOF or the
/// read deadline. Closing with unread input queued would make the kernel
/// answer with a reset that destroys the tail of the response in flight.
fn linger_close(stream: &mut TcpStream, read_timeout: Duration) {
    if stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let until = Instant::now() + read_timeout;
    let mut sink = [0u8; 4096];
    loop {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_response_into, write_request};
    use std::io::BufReader;
    use std::sync::atomic::AtomicUsize;

    /// Echoes `METHOD PATH BODY`, except `/truncate`, which lies about its
    /// body length, `/big` (2 MiB of [`pattern`]) and the file routes:
    /// `/file` (all of `file`), `/window` (bytes 1000..6000) and `/short`
    /// (claims 100 bytes more than the file has). Counts every request it
    /// routes.
    #[derive(Default)]
    struct Echo {
        handled: AtomicUsize,
        file: PathBuf,
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    impl HttpHandler for Echo {
        fn metrics_prefix(&self) -> &'static str {
            "test.pool"
        }

        fn handle(&self, req: &Request) -> (&'static str, HttpAction) {
            self.handled.fetch_add(1, Ordering::SeqCst);
            if req.path == "/truncate" {
                let resp = Response::new(200).with_body(vec![b'x'; 100]);
                return ("truncate", HttpAction::RespondTruncated(resp, 10));
            }
            if req.path == "/big" {
                let body = BodySource::Bytes(Bytes::from(pattern(2 << 20)));
                return ("big", HttpAction::RespondBody(Response::new(200), body));
            }
            let file_len = || std::fs::metadata(&self.file).unwrap().len();
            let window = match req.path.as_str() {
                "/file" => Some((0, file_len())),
                "/window" => Some((1000, 5000)),
                "/short" => Some((0, file_len() + 100)),
                _ => None,
            };
            if let Some((offset, len)) = window {
                let path = self.file.clone();
                let body = BodySource::File { path, offset, len };
                return ("file", HttpAction::RespondBody(Response::new(200), body));
            }
            let mut body = format!("{} {} ", req.method, req.path).into_bytes();
            body.extend_from_slice(&req.body);
            ("echo", HttpAction::Respond(Response::new(200).with_body(body)))
        }
    }

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let s = TcpStream::connect(addr).unwrap();
        let r = BufReader::new(s.try_clone().unwrap());
        (s, r)
    }

    fn get(w: &mut TcpStream, path: &str, headers: &[(String, String)]) {
        write_request(w, "GET", path, headers, None, false).unwrap();
    }

    fn raw_body(r: &mut BufReader<TcpStream>) -> Vec<u8> {
        let mut sink = Vec::new();
        let (status, _) = read_response_into(r, &mut sink, 4 << 20).unwrap();
        assert_eq!(status, 200);
        sink
    }

    fn body(r: &mut BufReader<TcpStream>) -> String {
        String::from_utf8(raw_body(r)).unwrap()
    }

    fn at_eof(r: &mut BufReader<TcpStream>) -> bool {
        matches!(r.read(&mut [0u8; 1]), Ok(0) | Err(_))
    }

    #[test]
    fn pool_engine_serves_keepalive_chunked_pipelined_and_refusals() {
        let handler = Arc::new(Echo::default());
        let opts = HttpOptions {
            threads: 2,
            max_body: 1024,
            ..Default::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = serve_pool(Arc::clone(&handler), listener, &opts).unwrap();
        let addr = server.addr;

        // Two keep-alive requests, then a multi-chunk PUT, on one
        // connection.
        let (mut w, mut r) = connect(addr);
        get(&mut w, "/a", &[]);
        assert_eq!(body(&mut r), "GET /a ");
        get(&mut w, "/b", &[]);
        assert_eq!(body(&mut r), "GET /b ");
        w.write_all(
            b"PUT /c HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(body(&mut r), "PUT /c hello world");

        // Two pipelined requests in one write answer in order.
        let mut both = Vec::new();
        write_request(&mut both, "GET", "/p1", &[], None, false).unwrap();
        write_request(&mut both, "PUT", "/p2", &[], Some(b"xy"), false).unwrap();
        w.write_all(&both).unwrap();
        assert_eq!(body(&mut r), "GET /p1 ");
        assert_eq!(body(&mut r), "PUT /p2 xy");

        // `Connection: close` is answered, then the line drops.
        get(&mut w, "/bye", &[("Connection".into(), "close".into())]);
        assert_eq!(body(&mut r), "GET /bye ");
        assert!(at_eof(&mut r));
        assert_eq!(handler.handled.load(Ordering::SeqCst), 6);
        // Hanging up ends the server's lingering close.
        drop((w, r));

        // A truncated response sends its advertised prefix and drops the
        // line.
        let (mut w, mut r) = connect(addr);
        get(&mut w, "/truncate", &[]);
        let mut sink = Vec::new();
        let err = read_response_into(&mut r, &mut sink, 1 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(sink, vec![b'x'; 10]);
        assert!(at_eof(&mut r));
        assert_eq!(handler.handled.load(Ordering::SeqCst), 7);
        drop((w, r));

        // A body over `max_body` is refused before the handler sees it.
        let (mut w, mut r) = connect(addr);
        let _ = write_request(&mut w, "PUT", "/big", &[], Some(&[7u8; 4096]), false);
        assert!(read_response_into(&mut r, &mut Vec::new(), 1 << 20).is_err());
        assert_eq!(handler.handled.load(Ordering::SeqCst), 7);

        server.shutdown();
    }

    #[test]
    fn pool_engine_streams_file_bodies() {
        let dir = std::env::temp_dir().join(format!("comt-http-pool-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("blob");
        // Over one STREAM_CHUNK, so the copy loop runs more than once.
        let content = pattern(STREAM_CHUNK + 4321);
        std::fs::write(&file, &content).unwrap();
        let handler = Arc::new(Echo {
            file,
            ..Default::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = serve_pool(handler, listener, &HttpOptions::default()).unwrap();

        // A whole file and an offset window, keep-alive on one line.
        let (mut w, mut r) = connect(server.addr);
        get(&mut w, "/file", &[]);
        assert_eq!(raw_body(&mut r), content);
        get(&mut w, "/window", &[]);
        assert_eq!(raw_body(&mut r), &content[1000..6000]);

        // A file shorter than it claims sends what it has, then drops the
        // line instead of leaving the peer waiting for the rest.
        get(&mut w, "/short", &[]);
        let mut sink = Vec::new();
        let err = read_response_into(&mut r, &mut sink, 4 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(sink, content);
        assert!(at_eof(&mut r));

        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pool_engine_close_delivers_the_whole_body_despite_unread_input() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = serve_pool(Arc::new(Echo::default()), listener, &HttpOptions::default())
            .unwrap();
        let (mut w, mut r) = connect(server.addr);
        get(&mut w, "/big", &[("Connection".into(), "close".into())]);
        // Start reading, then send bytes the server will never parse.
        let mut first = vec![0u8; 1024];
        r.read_exact(&mut first).unwrap();
        w.write_all(b"stray bytes").unwrap();
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).unwrap();
        first.extend_from_slice(&rest);
        let at = first.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        assert!(first[at..] == pattern(2 << 20), "body lost its tail");
        drop((w, r));
        server.shutdown();
    }
}
