//! A minimal readiness poller over raw Linux syscalls — no `libc`, no
//! external crates.
//!
//! The event-driven serve path ([`crate::eventloop`]) needs exactly five
//! kernel facilities: `epoll` (readiness), `eventfd` (cross-thread wake),
//! `sendfile` (zero-copy file→socket), `listen` with a chosen backlog, and
//! nonblocking sockets (which `std::net` already exposes). The first four
//! have no `std` surface, so
//! this module invokes them directly via the architecture's syscall
//! instruction (`syscall` on x86_64, `svc 0` on aarch64) behind a typed
//! [`Poller`]/[`Waker`] API.
//!
//! Off Linux (or on an unsupported architecture) [`SUPPORTED`] is `false`
//! and [`serve_http`](crate::serve_http) falls back to the blocking
//! thread-per-connection pool — same wire behavior, different scaling
//! shape.

#![allow(clippy::missing_safety_doc)]

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
pub const SUPPORTED: bool = true;
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub const SUPPORTED: bool = false;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Peer hung up or the fd errored — the connection is dead either way.
    pub hangup: bool,
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod imp {
    use super::Event;
    use std::io::{self, Read, Write};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::time::Duration;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EVENTFD2: usize = 290;
        pub const EPOLL_CREATE1: usize = 291;
        pub const SENDFILE: usize = 40;
        pub const LISTEN: usize = 50;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EVENTFD2: usize = 19;
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const SENDFILE: usize = 71;
        pub const LISTEN: usize = 201;
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(n: usize, a1: usize, a2: usize, a3: usize, a4: usize, a5: usize, a6: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(n: usize, a1: usize, a2: usize, a3: usize, a4: usize, a5: usize, a6: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            options(nostack),
        );
        ret
    }

    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    // The kernel ABI packs epoll_event on x86_64 only.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy, Default)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: usize = 1;
    const EPOLL_CTL_DEL: usize = 2;
    const EPOLL_CTL_MOD: usize = 3;

    const EPOLL_CLOEXEC: usize = 0x80000;
    const EFD_CLOEXEC: usize = 0x80000;
    const EFD_NONBLOCK: usize = 0x800;

    /// Readiness poller: a thin typed wrapper around one epoll instance.
    #[derive(Debug)]
    pub struct Poller {
        epfd: OwnedFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
            // OwnedFd closes the epoll instance on drop — no raw close
            // syscall needed.
            Ok(Poller {
                epfd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) },
            })
        }

        fn ctl(&self, op: usize, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let ev = EpollEvent { events, data: token };
            let ptr = if op == EPOLL_CTL_DEL { 0 } else { &ev as *const _ as usize };
            check(unsafe {
                syscall6(nr::EPOLL_CTL, self.epfd.as_raw_fd() as usize, op, fd as usize, ptr, 0, 0)
            })
            .map(|_| ())
        }

        fn interest_bits(read: bool, write: bool) -> u32 {
            // Level-triggered. RDHUP is always on so a peer that closes its
            // end while we are idle surfaces as an event, not a timeout.
            let mut bits = EPOLLRDHUP;
            if read {
                bits |= EPOLLIN;
            }
            if write {
                bits |= EPOLLOUT;
            }
            bits
        }

        /// Register `fd` with the given readiness interest.
        pub fn add(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, Self::interest_bits(read, write), token)
        }

        /// Change an already-registered fd's interest set.
        pub fn modify(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, Self::interest_bits(read, write), token)
        }

        /// Deregister an fd (closing it also deregisters, but explicit
        /// delete keeps the kernel set tidy when a conn is recycled).
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Wait for readiness, appending into `out`. `timeout` of `None`
        /// blocks indefinitely. Returns the number of events delivered.
        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
            let mut raw = [EpollEvent::default(); 256];
            let ms: isize = match timeout {
                None => -1,
                // Round up so a sub-millisecond timeout is not a busy loop.
                Some(t) => {
                    let mut ms = t.as_millis().min(i32::MAX as u128) as isize;
                    if t.subsec_nanos() % 1_000_000 != 0 || ms == 0 {
                        ms += 1;
                    }
                    ms
                }
            };
            let n = loop {
                let ret = unsafe {
                    syscall6(
                        nr::EPOLL_PWAIT,
                        self.epfd.as_raw_fd() as usize,
                        raw.as_mut_ptr() as usize,
                        raw.len(),
                        ms as usize,
                        0, // no sigmask
                        8, // sigsetsize (ignored for null mask)
                    )
                };
                match check(ret) {
                    Ok(n) => break n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &raw[..n] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(n)
        }
    }

    /// Cross-thread wakeup for a [`Poller`]: an eventfd registered in the
    /// epoll set. `wake` is async-signal-cheap and coalescing.
    #[derive(Debug)]
    pub struct Waker {
        // The eventfd wrapped as a File so read/write go through std.
        file: std::sync::Arc<std::fs::File>,
    }

    impl Clone for Waker {
        fn clone(&self) -> Self {
            Waker {
                file: std::sync::Arc::clone(&self.file),
            }
        }
    }

    impl Waker {
        pub fn new() -> io::Result<Waker> {
            let fd = check(unsafe {
                syscall6(nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0)
            })?;
            Ok(Waker {
                file: std::sync::Arc::new(unsafe { std::fs::File::from_raw_fd(fd as RawFd) }),
            })
        }

        pub fn raw_fd(&self) -> RawFd {
            self.file.as_raw_fd()
        }

        /// Make the owning loop's `wait` return. Coalesces; never blocks.
        pub fn wake(&self) {
            let _ = (&*self.file).write(&1u64.to_ne_bytes());
        }

        /// Clear the pending wake count (call on the loop thread after a
        /// wake event, or level-triggered epoll would spin).
        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            let _ = (&*self.file).read(&mut buf);
        }
    }

    /// Zero-copy file→socket transfer. Advances `offset` by the number of
    /// bytes moved. Returns `Ok(0)` at EOF; `WouldBlock` when the socket
    /// buffer is full.
    pub fn sendfile(out_fd: RawFd, in_fd: RawFd, offset: &mut u64, count: usize) -> io::Result<usize> {
        let mut off = *offset as i64;
        let ret = unsafe {
            syscall6(
                nr::SENDFILE,
                out_fd as usize,
                in_fd as usize,
                &mut off as *mut i64 as usize,
                count,
                0,
                0,
            )
        };
        let n = check(ret)?;
        *offset = off as u64;
        Ok(n)
    }

    /// Re-`listen` a bound listener with an explicit accept-queue depth
    /// (`std` always asks for 128). The kernel caps it at `somaxconn`.
    pub fn set_backlog(fd: RawFd, backlog: usize) -> io::Result<()> {
        let backlog = backlog.min(i32::MAX as usize);
        let ret = unsafe { syscall6(nr::LISTEN, fd as usize, backlog, 0, 0, 0, 0) };
        check(ret).map(|_| ())
    }
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod imp {
    //! Stub for unsupported targets: every constructor reports
    //! `Unsupported`, which routes `serve_http` to the thread pool.
    use super::Event;
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "event loop requires Linux epoll",
        ))
    }

    #[derive(Debug)]
    pub struct Poller;
    impl Poller {
        pub fn new() -> io::Result<Poller> {
            unsupported()
        }
        pub fn add(&self, _: RawFd, _: u64, _: bool, _: bool) -> io::Result<()> {
            unsupported()
        }
        pub fn modify(&self, _: RawFd, _: u64, _: bool, _: bool) -> io::Result<()> {
            unsupported()
        }
        pub fn delete(&self, _: RawFd) -> io::Result<()> {
            unsupported()
        }
        pub fn wait(&self, _: &mut Vec<Event>, _: Option<Duration>) -> io::Result<usize> {
            unsupported()
        }
    }

    #[derive(Debug, Clone)]
    pub struct Waker;
    impl Waker {
        pub fn new() -> io::Result<Waker> {
            unsupported()
        }
        pub fn raw_fd(&self) -> RawFd {
            -1
        }
        pub fn wake(&self) {}
        pub fn drain(&self) {}
    }

    pub fn sendfile(_: RawFd, _: RawFd, _: &mut u64, _: usize) -> io::Result<usize> {
        unsupported()
    }

    pub fn set_backlog(_: RawFd, _: usize) -> io::Result<()> {
        unsupported()
    }
}

pub use imp::{sendfile, set_backlog, Poller, Waker};

#[cfg(all(test, target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[test]
    fn poller_reports_accept_readiness() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.add(listener.as_raw_fd(), 7, true, false).unwrap();

        // Nothing pending: a short wait times out empty.
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty());

        // A connect makes the listener readable.
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(2000))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        let (conn, _) = listener.accept().unwrap();
        conn.set_nonblocking(true).unwrap();
        // A fresh idle socket is writable but not readable.
        poller.add(conn.as_raw_fd(), 9, true, true).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(2000))).unwrap();
        let ev = events.iter().find(|e| e.token == 9).expect("conn event");
        assert!(ev.writable && !ev.readable);
        poller.delete(conn.as_raw_fd()).unwrap();
    }

    #[test]
    fn set_backlog_deepens_the_accept_queue() {
        // `std` listens with a backlog of 128; past it the kernel drops
        // SYNs, so connect number 130 of an unaccepted burst would stall
        // for a full SYN retransmit. With the backlog raised, every
        // connect of a larger burst completes at once. The kernel caps
        // the backlog at `somaxconn`, so the burst stays under it.
        let somaxconn = std::fs::read_to_string("/proc/sys/net/core/somaxconn")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(4096);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        set_backlog(listener.as_raw_fd(), 512).unwrap();
        let addr = listener.local_addr().unwrap();
        let _clients: Vec<TcpStream> = (0..somaxconn.min(200))
            .map(|i| {
                TcpStream::connect_timeout(&addr, Duration::from_millis(500))
                    .unwrap_or_else(|e| panic!("connect {i} past the backlog: {e}"))
            })
            .collect();
    }

    #[test]
    fn waker_wakes_and_drains() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.raw_fd(), 1, true, false).unwrap();

        let w2 = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w2.wake();
            w2.wake(); // coalesces
        });
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        // Both wakes must have landed before the drain, or the second
        // could re-arm the eventfd after it.
        handle.join().unwrap();
        waker.drain();
        // Drained: no longer readable.
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.iter().all(|e| e.token != 1));
    }

    #[test]
    fn sendfile_moves_file_bytes_to_socket() {
        let dir = std::env::temp_dir().join(format!("comt-sendfile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("payload");
        let payload: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &payload).unwrap();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut got = Vec::new();
            s.read_to_end(&mut got).unwrap();
            got
        });
        let (sock, _) = listener.accept().unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let mut offset = 0u64;
        while (offset as usize) < payload.len() {
            match sendfile(sock.as_raw_fd(), file.as_raw_fd(), &mut offset, 64 * 1024) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("sendfile: {e}"),
            }
        }
        assert_eq!(offset, payload.len() as u64);
        let mut w = &sock;
        w.flush().unwrap();
        drop(sock);
        assert_eq!(reader.join().unwrap(), payload);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
