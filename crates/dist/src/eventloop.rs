//! The readiness-driven serve engine: nonblocking connection state
//! machines over raw epoll ([`crate::poller`]).
//!
//! ## Shape
//!
//! `threads` loop threads each own one [`Poller`] and a private set of
//! connections — no cross-loop locking on the hot path. Loop 0 also owns
//! the (nonblocking) listener and deals accepted sockets round-robin to
//! the other loops through per-loop inboxes, waking the target with its
//! eventfd [`Waker`]. A connection lives on one loop for its whole life.
//!
//! ## Connection state machine
//!
//! ```text
//!            read-ready                 request complete
//!   Reading ───────────▶ feed parser ─────────────────────▶ Writing
//!      ▲                                                    │ │ │
//!      │ response drained, keep-alive                       │ │ │ bucket
//!      └────────────────────────────────────────────────────┘ │ │ empty
//!                                   response drained, close   │ ▼
//!                                  Lingering ◀────────────────┘ Throttled
//! ```
//!
//! * **Reading** holds an incremental [`wire::RequestParser`]; bytes are
//!   fed as they arrive, nothing blocks, pipelined tails stay buffered.
//! * **Writing** drains a head buffer then a [`BodyCursor`]: in-memory
//!   bytes go out in [`STREAM_CHUNK`] slices; file bodies move with
//!   `sendfile` (kernel file→socket, no userspace copy — a 2 GiB layer
//!   never transits a `Vec`). Each connection gets at most one
//!   [`STREAM_CHUNK`] quantum per loop pass; level-triggered epoll
//!   re-reports writability, so concurrent pullers drain round-robin
//!   instead of convoy-ing behind the largest response.
//! * **Throttled** parks a connection whose per-client token bucket ran
//!   dry, with *no* epoll interest (no busy loop); the periodic tick
//!   re-arms it once tokens accrue.
//! * **Lingering** ends a `Connection: close` (or chaos-truncated) line:
//!   the write side is shut, so the peer reads the whole body and then
//!   EOF, and input is discarded until the peer's own EOF. Closing with
//!   unread input queued would make the kernel answer with a reset that
//!   destroys the tail of the response still in flight.
//!
//! Every state carries a deadline (read timeout while Reading or
//! Lingering, write timeout while Writing — refreshed on progress, not per
//! pass), swept on the loop's tick: a peer that stalls mid-upload or reads
//! at zero-window forever is closed and its slot freed, so slow or dead
//! clients can never wedge the reactor.

use crate::http::{BodySource, HttpAction, HttpHandler, HttpOptions, STREAM_CHUNK};
use crate::poller::{sendfile, set_backlog, Poller, Waker};
use crate::wire::{self, RequestParser};
use bytes::Bytes;
use std::collections::HashMap;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Loop tick: the longest a loop sleeps before sweeping deadlines and
/// re-arming throttled connections. Readiness events cut it short.
const TICK: Duration = Duration::from_millis(50);

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// A running event-loop server (see [`crate::serve_http`]).
pub struct LoopServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wakers: Vec<Waker>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for LoopServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopServer").field("addr", &self.addr).finish()
    }
}

impl LoopServer {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for w in &self.wakers {
            w.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for LoopServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for w in &self.wakers {
            w.wake();
        }
    }
}

/// State shared by all loop threads.
struct Shared<H> {
    handler: Arc<H>,
    /// Open connections across all loops (the `max_conns` admission gate).
    live: AtomicUsize,
    /// Per-peer-IP token buckets (shared: one client may hit many loops).
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
    opts: HttpOptions,
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

impl<H> Shared<H> {
    /// Grant up to `want` egress bytes to `peer` from its token bucket.
    /// Rate 0 disables limiting (every request granted in full).
    fn grant(&self, peer: IpAddr, want: usize) -> usize {
        let rate = self.opts.client_rate as f64;
        if rate <= 0.0 {
            return want;
        }
        let burst = (rate / 8.0).max(STREAM_CHUNK as f64);
        let now = Instant::now();
        let mut buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        let b = buckets.entry(peer).or_insert(Bucket {
            tokens: burst,
            last: now,
        });
        b.tokens = (b.tokens + rate * now.duration_since(b.last).as_secs_f64()).min(burst);
        b.last = now;
        let granted = (want as f64).min(b.tokens).floor();
        b.tokens -= granted;
        granted as usize
    }
}

/// Where a response body's remaining bytes come from.
enum BodyCursor {
    Bytes {
        data: Bytes,
        pos: usize,
    },
    File {
        file: std::fs::File,
        offset: u64,
        end: u64,
        /// Set after the first sendfile failure (e.g. a seccomp sandbox):
        /// fall back to a bounded read+write copy for the rest.
        buffered: bool,
    },
}

impl BodyCursor {
    fn remaining(&self) -> u64 {
        match self {
            BodyCursor::Bytes { data, pos } => (data.len() - pos) as u64,
            BodyCursor::File { offset, end, .. } => end - offset,
        }
    }
}

/// An in-flight response being drained to the socket.
struct WriteState {
    head: Vec<u8>,
    head_pos: usize,
    body: BodyCursor,
    close_after: bool,
}

enum State {
    Reading,
    Writing(WriteState),
    /// Token bucket ran dry; retry at the instant carried here.
    Throttled(WriteState, Instant),
    /// Response sent and write side shut; discard input until the peer's
    /// EOF, then close.
    Lingering,
}

struct Conn {
    stream: TcpStream,
    peer: IpAddr,
    parser: RequestParser,
    state: State,
    deadline: Instant,
}

enum Pass {
    /// Response fully drained.
    Done,
    /// Socket (or quantum) limit hit; stay writable-interested.
    Blocked,
    /// Token bucket empty; park with no interest until `retry`.
    Throttled,
    /// Connection is broken; close it.
    Dead,
}

/// Bind the already-created listener into the event-loop engine.
pub fn serve_loop<H: HttpHandler>(
    handler: Arc<H>,
    listener: TcpListener,
    opts: &HttpOptions,
) -> io::Result<LoopServer> {
    listener.set_nonblocking(true)?;
    set_backlog(listener.as_raw_fd(), opts.backlog)?;
    let addr = listener.local_addr()?;
    let n = opts.threads.max(1);
    let prefix = handler.metrics_prefix();

    let shared = Arc::new(Shared {
        handler,
        live: AtomicUsize::new(0),
        buckets: Mutex::new(HashMap::new()),
        opts: opts.clone(),
    });
    let stop_flag = Arc::new(AtomicBool::new(false));

    // Build every loop's poller/waker/inbox up front so loop 0 can deal
    // connections to all of them from its first accept.
    let mut pollers = Vec::with_capacity(n);
    let mut wakers = Vec::with_capacity(n);
    let mut inboxes = Vec::with_capacity(n);
    for _ in 0..n {
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.add(waker.raw_fd(), TOKEN_WAKER, true, false)?;
        pollers.push(poller);
        wakers.push(waker.clone());
        inboxes.push(Arc::new(Mutex::new(Vec::<TcpStream>::new())));
    }
    pollers[0].add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;

    let mut threads = Vec::with_capacity(n);
    let all_wakers = wakers.clone();
    for (i, poller) in pollers.into_iter().enumerate() {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop_flag);
        let inbox = Arc::clone(&inboxes[i]);
        let deal = if i == 0 {
            Some((
                listener.try_clone()?,
                inboxes.clone(),
                all_wakers.clone(),
            ))
        } else {
            None
        };
        let waker = wakers[i].clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("{prefix}-loop-{i}"))
                .spawn(move || {
                    EventLoop {
                        shared,
                        stop,
                        poller,
                        waker,
                        inbox,
                        deal,
                        conns: HashMap::new(),
                        next_token: TOKEN_FIRST_CONN,
                        next_loop: 0,
                    }
                    .run()
                })?,
        );
    }
    drop(listener); // loop 0 holds its own clone

    Ok(LoopServer {
        addr,
        stop: stop_flag,
        wakers,
        threads,
    })
}

/// Accepted connections handed from loop 0 to their owning loop.
type Inbox = Arc<Mutex<Vec<TcpStream>>>;

struct EventLoop<H: HttpHandler> {
    shared: Arc<Shared<H>>,
    stop: Arc<AtomicBool>,
    poller: Poller,
    waker: Waker,
    inbox: Inbox,
    /// Loop 0 only: the listener plus every loop's inbox and waker.
    deal: Option<(TcpListener, Vec<Inbox>, Vec<Waker>)>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    next_loop: usize,
}

impl<H: HttpHandler> EventLoop<H> {
    fn prefix(&self) -> &'static str {
        self.shared.handler.metrics_prefix()
    }

    fn run(mut self) {
        let mut events = Vec::with_capacity(256);
        loop {
            events.clear();
            if self.poller.wait(&mut events, Some(TICK)).is_err() {
                break;
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {
                        self.waker.drain();
                        self.drain_inbox();
                    }
                    token => self.conn_event(token, ev.readable, ev.writable, ev.hangup),
                }
            }
            self.sweep();
        }
        // Drop every live connection on the way out.
        let remaining = self.conns.len();
        self.shared.live.fetch_sub(remaining, Ordering::SeqCst);
    }

    /// Accept everything pending, enforcing `max_conns`, and deal new
    /// sockets round-robin across loops (loop 0 only).
    fn accept_ready(&mut self) {
        let obs = comt_observe::global();
        let prefix = self.prefix();
        loop {
            let Some((listener, ..)) = &self.deal else { return };
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            let live = self.shared.live.load(Ordering::SeqCst);
            if live >= self.shared.opts.max_conns {
                // Refuse loudly: drop the socket (RST/FIN) and count it.
                // Degrading at the edge beats wedging every open pull.
                obs.count(&format!("{prefix}.conns_rejected"), 1);
                drop(stream);
                continue;
            }
            self.shared.live.fetch_add(1, Ordering::SeqCst);
            obs.count(&format!("{prefix}.conns_accepted"), 1);
            let (_, inboxes, wakers) = self.deal.as_ref().expect("loop 0 deals");
            let target = self.next_loop % inboxes.len();
            self.next_loop = self.next_loop.wrapping_add(1);
            if target == 0 {
                self.adopt(stream);
            } else {
                inboxes[target]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(stream);
                wakers[target].wake();
            }
        }
    }

    fn drain_inbox(&mut self) {
        let pending = std::mem::take(&mut *self.inbox.lock().unwrap_or_else(|e| e.into_inner()));
        for stream in pending {
            self.adopt(stream);
        }
    }

    /// Take ownership of an accepted socket: nonblocking, registered for
    /// read readiness, state machine at Reading.
    fn adopt(&mut self, stream: TcpStream) {
        let peer = stream
            .peer_addr()
            .map(|a| a.ip())
            .unwrap_or(IpAddr::from([0u8, 0, 0, 0]));
        if stream.set_nonblocking(true).is_err() {
            self.shared.live.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self.poller.add(stream.as_raw_fd(), token, true, false).is_err() {
            self.shared.live.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.conns.insert(
            token,
            Conn {
                stream,
                peer,
                parser: RequestParser::new(self.shared.opts.max_body),
                state: State::Reading,
                deadline: Instant::now() + self.shared.opts.read_timeout,
            },
        );
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.shared.live.fetch_sub(1, Ordering::SeqCst);
            // conn.stream drops (and closes) here.
        }
    }

    fn conn_event(&mut self, token: u64, readable: bool, writable: bool, hangup: bool) {
        let lingering = matches!(
            self.conns.get(&token).map(|c| &c.state),
            Some(State::Lingering)
        );
        if lingering {
            // A hangup here is usually the peer's FIN meeting ours: drain
            // what it sent first, so the close itself cannot reset.
            self.discard_input(token);
            return;
        }
        if hangup {
            // EPOLLERR/EPOLLHUP: the fd is dead — a mid-write disconnect
            // lands here and frees the slot immediately.
            self.close(token);
            return;
        }
        let state_is_reading = matches!(
            self.conns.get(&token).map(|c| &c.state),
            Some(State::Reading)
        );
        if state_is_reading && readable {
            self.on_readable(token);
        } else if writable {
            self.on_writable(token);
        } else if readable && !state_is_reading {
            // Bytes (or a FIN) arrived while a response drains. RDHUP with
            // no error lands here too: probe the socket so a peer that
            // vanished mid-write is detected instead of written to forever.
            if let Some(conn) = self.conns.get_mut(&token) {
                let mut probe = [0u8; 1];
                match conn.stream.peek(&mut probe) {
                    Ok(0) => self.close(token),
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => self.close(token),
                }
            }
        }
    }

    /// Pump the socket into the parser; dispatch when a request completes.
    fn on_readable(&mut self, token: u64) {
        let mut buf = [0u8; 64 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    self.close(token);
                    return;
                }
                Ok(n) => {
                    conn.deadline = Instant::now() + self.shared.opts.read_timeout;
                    match conn.parser.feed(&buf[..n]) {
                        Ok(Some(req)) => {
                            self.dispatch(token, req);
                            return;
                        }
                        Ok(None) => continue,
                        Err(_) => {
                            // Protocol violation: drop the line, same as
                            // the blocking engine.
                            self.close(token);
                            return;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
    }

    /// Route one complete request through the handler and start draining
    /// the response. Mirrors the blocking engine's accounting exactly.
    fn dispatch(&mut self, token: u64, req: wire::Request) {
        let obs = comt_observe::global();
        let prefix = self.prefix();
        let close_requested = req.wants_close();
        obs.count(&format!("{prefix}.bytes_in"), req.body.len() as u64);
        let started = Instant::now();
        let (endpoint, action) = self.shared.handler.handle(&req);
        obs.count(&format!("{prefix}.req.{endpoint}"), 1);
        obs.record_value(
            &format!("{prefix}.{endpoint}.latency_us"),
            started.elapsed().as_micros() as u64,
        );
        let ws = match action {
            HttpAction::Respond(resp) => {
                obs.count(&format!("{prefix}.bytes_out"), resp.body.len() as u64);
                let head = wire::response_head_bytes(&resp, resp.body.len() as u64);
                WriteState {
                    head,
                    head_pos: 0,
                    body: BodyCursor::Bytes {
                        data: Bytes::from(resp.body),
                        pos: 0,
                    },
                    close_after: close_requested,
                }
            }
            HttpAction::RespondBody(resp, source) => {
                obs.count(&format!("{prefix}.bytes_out"), source.len());
                let head = wire::response_head_bytes(&resp, source.len());
                let body = match source {
                    BodySource::Bytes(data) => BodyCursor::Bytes { data, pos: 0 },
                    BodySource::File { path, offset, len } => {
                        match open_window(&path, offset) {
                            Ok(file) => BodyCursor::File {
                                file,
                                offset,
                                end: offset + len,
                                buffered: false,
                            },
                            Err(_) => {
                                // The file vanished between routing and
                                // serving; nothing sane to send under an
                                // already-chosen status. Drop the line.
                                self.close(token);
                                return;
                            }
                        }
                    }
                };
                WriteState {
                    head,
                    head_pos: 0,
                    body,
                    close_after: close_requested,
                }
            }
            HttpAction::RespondTruncated(resp, after) => {
                let cut = after.min(resp.body.len());
                obs.count(&format!("{prefix}.chaos_truncations"), 1);
                obs.count(&format!("{prefix}.bytes_out"), cut as u64);
                // Advertise the full length, deliver only the prefix, then
                // hang up — the chaos hook for client Range-resume.
                let head = wire::response_head_bytes(&resp, resp.body.len() as u64);
                WriteState {
                    head,
                    head_pos: 0,
                    body: BodyCursor::Bytes {
                        data: Bytes::from(resp.body).slice(0..cut),
                        pos: 0,
                    },
                    close_after: true,
                }
            }
        };
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.state = State::Writing(ws);
            conn.deadline = Instant::now() + self.shared.opts.write_timeout;
        }
        // Optimistic pass: most responses fit the socket buffer whole.
        self.on_writable(token);
    }

    /// One fair write pass: at most one [`STREAM_CHUNK`] quantum, bucket
    /// permitting. Handles completion, throttling, and keep-alive.
    fn on_writable(&mut self, token: u64) {
        enum Next {
            Close,
            Linger,
            Stay,
            TryPipelined,
        }
        let next = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let ws = match std::mem::replace(&mut conn.state, State::Reading) {
                State::Writing(ws) => ws,
                // Spurious wakeup (e.g. OUT still armed after a state
                // change): restore and ignore.
                other => {
                    conn.state = other;
                    return;
                }
            };
            let (outcome, ws) = write_pass(conn, ws, &self.shared);
            match outcome {
                Pass::Dead => Next::Close,
                Pass::Blocked => {
                    conn.state = State::Writing(ws);
                    let _ = self
                        .poller
                        .modify(conn.stream.as_raw_fd(), token, false, true);
                    Next::Stay
                }
                Pass::Throttled => {
                    comt_observe::global().count(
                        &format!("{}.throttle_waits", self.shared.handler.metrics_prefix()),
                        1,
                    );
                    // Park with no interest; the sweep re-arms us. Rate
                    // limiting is intentional backpressure, so the write
                    // deadline is refreshed — only *peer* stalls kill conns.
                    conn.deadline = Instant::now() + self.shared.opts.write_timeout;
                    conn.state = State::Throttled(ws, Instant::now() + TICK);
                    let _ = self
                        .poller
                        .modify(conn.stream.as_raw_fd(), token, false, false);
                    Next::Stay
                }
                Pass::Done => {
                    if ws.close_after {
                        Next::Linger
                    } else {
                        conn.state = State::Reading;
                        conn.deadline = Instant::now() + self.shared.opts.read_timeout;
                        let _ = self
                            .poller
                            .modify(conn.stream.as_raw_fd(), token, true, false);
                        Next::TryPipelined
                    }
                }
            }
        };
        match next {
            Next::Close => self.close(token),
            Next::Linger => self.linger(token),
            Next::Stay => {}
            Next::TryPipelined => {
                // A pipelined request may already be buffered in full.
                match self.conns.get_mut(&token).map(|c| c.parser.feed(&[])) {
                    Some(Ok(Some(req))) => self.dispatch(token, req),
                    Some(Err(_)) => self.close(token),
                    _ => {}
                }
            }
        }
    }

    /// Shut the write side of a drained `close_after` response and start
    /// discarding input under the read deadline.
    fn linger(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.stream.shutdown(Shutdown::Write).is_err() {
            self.close(token);
            return;
        }
        conn.state = State::Lingering;
        conn.deadline = Instant::now() + self.shared.opts.read_timeout;
        let _ = self
            .poller
            .modify(conn.stream.as_raw_fd(), token, true, false);
        // The peer may have sent (and finished) already.
        self.discard_input(token);
    }

    /// Read and drop whatever a lingering peer sends; close on its EOF.
    fn discard_input(&mut self, token: u64) {
        let mut sink = [0u8; 4096];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            match conn.stream.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        self.close(token);
    }

    /// Deadline sweep + throttled re-arm, run every tick.
    fn sweep(&mut self) {
        let now = Instant::now();
        let mut expired = Vec::new();
        let mut rearm = Vec::new();
        for (&token, conn) in &self.conns {
            if now >= conn.deadline {
                expired.push(token);
            } else if matches!(&conn.state, State::Throttled(_, retry) if now >= *retry) {
                rearm.push(token);
            }
        }
        if !expired.is_empty() {
            comt_observe::global()
                .count(&format!("{}.conn_timeouts", self.prefix()), expired.len() as u64);
        }
        for token in expired {
            self.close(token);
        }
        for token in rearm {
            if let Some(conn) = self.conns.get_mut(&token) {
                if let State::Throttled(ws, _) = std::mem::replace(&mut conn.state, State::Reading)
                {
                    conn.state = State::Writing(ws);
                    let _ = self
                        .poller
                        .modify(conn.stream.as_raw_fd(), token, false, true);
                }
            }
        }
    }
}

fn open_window(path: &std::path::Path, offset: u64) -> io::Result<std::fs::File> {
    let mut f = std::fs::File::open(path)?;
    if offset > 0 {
        f.seek(SeekFrom::Start(offset))?;
    }
    Ok(f)
}

/// Drain head then body, bounded by one quantum and the peer's bucket.
fn write_pass<H: HttpHandler>(
    conn: &mut Conn,
    mut ws: WriteState,
    shared: &Shared<H>,
) -> (Pass, WriteState) {
    // Head first (tiny, not counted against the quantum).
    while ws.head_pos < ws.head.len() {
        match conn.stream.write(&ws.head[ws.head_pos..]) {
            Ok(0) => return (Pass::Dead, ws),
            Ok(n) => {
                ws.head_pos += n;
                conn.deadline = Instant::now() + shared.opts.write_timeout;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return (Pass::Blocked, ws),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return (Pass::Dead, ws),
        }
    }
    if ws.body.remaining() == 0 {
        return (Pass::Done, ws);
    }
    let want = (ws.body.remaining() as usize).min(STREAM_CHUNK);
    let mut quantum = shared.grant(conn.peer, want);
    if quantum == 0 {
        return (Pass::Throttled, ws);
    }
    while quantum > 0 {
        let wrote = match &mut ws.body {
            BodyCursor::Bytes { data, pos } => {
                let end = (*pos + quantum).min(data.len());
                match conn.stream.write(&data[*pos..end]) {
                    Ok(0) => return (Pass::Dead, ws),
                    Ok(n) => {
                        *pos += n;
                        n
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return (Pass::Blocked, ws),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return (Pass::Dead, ws),
                }
            }
            BodyCursor::File {
                file,
                offset,
                end,
                buffered,
            } => {
                let n = quantum.min((*end - *offset) as usize);
                if *buffered {
                    match copy_window(file, &mut conn.stream, offset, n) {
                        Ok(0) => return (Pass::Dead, ws),
                        Ok(n) => n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            return (Pass::Blocked, ws)
                        }
                        Err(_) => return (Pass::Dead, ws),
                    }
                } else {
                    match sendfile(conn.stream.as_raw_fd(), file.as_raw_fd(), offset, n) {
                        Ok(0) => return (Pass::Dead, ws), // file shorter than advertised
                        Ok(n) => {
                            comt_observe::global().count(
                                &format!("{}.sendfile_bytes", shared.handler.metrics_prefix()),
                                n as u64,
                            );
                            n
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            return (Pass::Blocked, ws)
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            // sendfile refused (sandboxed syscall filter,
                            // exotic fs): degrade to a bounded copy.
                            *buffered = true;
                            continue;
                        }
                    }
                }
            }
        };
        conn.deadline = Instant::now() + shared.opts.write_timeout;
        quantum -= wrote.min(quantum);
        if ws.body.remaining() == 0 {
            return (Pass::Done, ws);
        }
    }
    // Quantum spent with bytes left: yield the loop to other writers;
    // level-triggered epoll re-reports OUT next pass (round-robin).
    (Pass::Blocked, ws)
}

/// Buffered fallback for the sendfile window: seek is implicit (the file
/// cursor tracks `offset` once buffered mode starts), one bounded copy.
fn copy_window(
    file: &mut std::fs::File,
    sock: &mut TcpStream,
    offset: &mut u64,
    n: usize,
) -> io::Result<usize> {
    file.seek(SeekFrom::Start(*offset))?;
    let mut buf = vec![0u8; n.min(STREAM_CHUNK)];
    let got = file.read(&mut buf)?;
    if got == 0 {
        return Ok(0);
    }
    let wrote = sock.write(&buf[..got])?;
    *offset += wrote as u64;
    Ok(wrote)
}
