//! A minimal readiness abstraction over `poll(2)` for the event loop.
//!
//! This is the **sanctioned I/O layer** of the event-driven transport: the
//! one module allowed to touch the kernel. Everything here is nonblocking
//! by construction — [`Poller::wait`] blocks only up to its caller-chosen
//! timeout, and the `try_*` wrappers translate `WouldBlock` into `None`
//! instead of parking the thread. The lint rule `E1` enforces that the
//! event-loop modules reach the kernel *only* through this file.
//!
//! No registry dependencies: on Unix the shim declares `poll(2)` itself
//! (std already links libc, so the single `extern "C"` item adds nothing
//! to the build); elsewhere a readiness-*emulating* fallback reports every
//! registered source ready after a short sleep and lets the nonblocking
//! ops discover the truth via `WouldBlock` — correct (the loop must
//! tolerate spurious readiness anyway, `poll(2)` is allowed to lie too)
//! if slower.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Anything the [`Poller`] can watch: it only needs the raw descriptor.
///
/// The fd is ignored by the non-Unix readiness-emulating fallback, so the
/// non-Unix impls may return `-1`.
pub trait PollSource {
    /// The raw file descriptor handed to `poll(2)`.
    fn poll_fd(&self) -> i32;
}

#[cfg(unix)]
impl PollSource for TcpStream {
    fn poll_fd(&self) -> i32 {
        std::os::fd::AsRawFd::as_raw_fd(self)
    }
}

#[cfg(not(unix))]
impl PollSource for TcpStream {
    fn poll_fd(&self) -> i32 {
        -1
    }
}

#[cfg(unix)]
impl PollSource for std::net::TcpListener {
    fn poll_fd(&self) -> i32 {
        std::os::fd::AsRawFd::as_raw_fd(self)
    }
}

#[cfg(not(unix))]
impl PollSource for std::net::TcpListener {
    fn poll_fd(&self) -> i32 {
        -1
    }
}

/// What a caller wants to be told about one stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the stream has bytes to read (or hit EOF/error).
    pub readable: bool,
    /// Wake when the stream can accept bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Write-only interest.
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    /// No interest — the slot is skipped (kept so callers can use stable
    /// indices for a mixed set of live and idle streams).
    pub const NONE: Interest = Interest { readable: false, writable: false };
}

/// What the kernel reported about one stream. Hangups and errors are
/// folded into readiness: a closed or failed stream is "ready" so the
/// caller's nonblocking read/write observes the EOF or error directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Readiness {
    /// Reading will not block (data, EOF, or a pending error).
    pub readable: bool,
    /// Writing will not block (space, or a pending error).
    pub writable: bool,
}

impl Readiness {
    fn clear() -> Readiness {
        Readiness::default()
    }
}

/// A reusable `poll(2)` invocation: owns the scratch `pollfd` array so the
/// per-tick cost is filling it, not allocating it.
#[derive(Debug, Default)]
pub struct Poller {
    #[cfg(unix)]
    fds: Vec<sys::PollFd>,
    /// Maps `fds` entries back to caller indices (interested subset only).
    #[cfg(unix)]
    slots: Vec<usize>,
}

impl Poller {
    /// A poller with empty scratch.
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Waits up to `timeout` for any interested stream to become ready.
    ///
    /// `out` is resized to `streams.len()` and `out[i]` reports the
    /// readiness of `streams[i]`; entries with [`Interest::NONE`] are
    /// never reported ready. Returns the number of ready streams (0 on
    /// timeout). Spurious readiness is allowed — callers must treat a
    /// `WouldBlock` from the subsequent I/O as "not actually ready".
    ///
    /// # Errors
    ///
    /// Propagates `poll(2)` failures other than `EINTR` (retried).
    pub fn wait(
        &mut self,
        streams: &[(&dyn PollSource, Interest)],
        out: &mut Vec<Readiness>,
        timeout: Duration,
    ) -> io::Result<usize> {
        out.clear();
        out.resize(streams.len(), Readiness::clear());
        self.wait_impl(streams, out, timeout)
    }

    #[cfg(unix)]
    fn wait_impl(
        &mut self,
        streams: &[(&dyn PollSource, Interest)],
        out: &mut [Readiness],
        timeout: Duration,
    ) -> io::Result<usize> {
        self.fds.clear();
        self.slots.clear();
        for (i, (stream, interest)) in streams.iter().enumerate() {
            let mut events = 0i16;
            if interest.readable {
                events |= sys::POLLIN;
            }
            if interest.writable {
                events |= sys::POLLOUT;
            }
            if events != 0 {
                self.fds.push(sys::PollFd { fd: stream.poll_fd(), events, revents: 0 });
                self.slots.push(i);
            }
        }
        if self.fds.is_empty() {
            std::thread::sleep(timeout);
            return Ok(0);
        }
        // `poll(2)` counts whole milliseconds. A sub-millisecond remainder
        // rounds *up*: rounded down, a deadline 0.4 ms away turns the park
        // into a spin of zero-timeout polls until it is due.
        let millis = i32::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX);
        sys::poll(&mut self.fds, millis)?;
        let mut ready = 0;
        for (fd, &slot) in self.fds.iter().zip(&self.slots) {
            // POLLERR/POLLHUP/POLLNVAL arrive unrequested; fold them into
            // both directions so the caller's next op surfaces the error.
            let broken = fd.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0;
            let r = Readiness {
                readable: streams[slot].1.readable && (fd.revents & sys::POLLIN != 0 || broken),
                writable: streams[slot].1.writable && (fd.revents & sys::POLLOUT != 0 || broken),
            };
            if r.readable || r.writable {
                out[slot] = r;
                ready += 1;
            }
        }
        Ok(ready)
    }

    /// Readiness-emulating fallback: report every interested stream ready
    /// after a short nap. The loop's nonblocking ops turn the lie into
    /// `WouldBlock`, so behavior is correct — the nap bounds the spin.
    #[cfg(not(unix))]
    fn wait_impl(
        &mut self,
        streams: &[(&dyn PollSource, Interest)],
        out: &mut [Readiness],
        timeout: Duration,
    ) -> io::Result<usize> {
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
        let mut ready = 0;
        for (i, (_, interest)) in streams.iter().enumerate() {
            if interest.readable || interest.writable {
                out[i] = Readiness { readable: interest.readable, writable: interest.writable };
                ready += 1;
            }
        }
        Ok(ready)
    }
}

#[cfg(unix)]
mod sys {
    use std::io;

    pub(super) const POLLIN: i16 = 0x001;
    pub(super) const POLLOUT: i16 = 0x004;
    pub(super) const POLLERR: i16 = 0x008;
    pub(super) const POLLHUP: i16 = 0x010;
    pub(super) const POLLNVAL: i16 = 0x020;

    /// `struct pollfd` from `<poll.h>` — identical layout on every Unix.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub(super) struct PollFd {
        pub(super) fd: i32,
        pub(super) events: i16,
        pub(super) revents: i16,
    }

    extern "C" {
        // `nfds_t` is `unsigned long` on Linux (the primary target); the
        // value is always tiny, so platforms with a narrower nfds_t still
        // receive it intact through the C calling convention.
        #[link_name = "poll"]
        fn libc_poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
    }

    /// `poll(2)` over the scratch array, retrying `EINTR`.
    pub(super) fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `fds` is a live, exclusively borrowed slice of
            // `#[repr(C)]` pollfd structs; the kernel writes only the
            // `revents` fields of the `fds.len()` entries passed.
            let rc = unsafe { libc_poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_ulong, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// The write end of the event loop's wake channel. Used by whichever
/// threads hand the loop a command or ask it to stop (writes go through
/// `&self`); a one-byte write nudges the loop out of [`Poller::wait`].
///
/// On Linux this is the classic **self-pipe**: `pipe2(2)` with both ends
/// nonblocking. A pipe write is several times cheaper than pushing a byte
/// through the loop-back TCP stack, and every command that finds the loop
/// parked pays it.
/// Elsewhere a nonblocking loop-back TCP pair stands in (std offers no
/// portable pipe), trading some wake latency for zero platform code.
#[derive(Debug)]
pub struct WakeTx {
    #[cfg(target_os = "linux")]
    fd: i32,
    #[cfg(not(target_os = "linux"))]
    stream: TcpStream,
}

/// The read end of the wake channel, owned by the event loop; registers
/// with the [`Poller`] like any stream and drains pending wake bytes.
#[derive(Debug)]
pub struct WakeRx {
    #[cfg(target_os = "linux")]
    fd: i32,
    #[cfg(not(target_os = "linux"))]
    stream: TcpStream,
}

// SAFETY(Send/Sync): a raw pipe fd is just an integer; concurrent
// one-byte `write(2)`s from many threads are exactly what pipes support
// (atomic under PIPE_BUF). Dropping closes the fd once — WakeTx and
// WakeRx each own their own end.
#[cfg(target_os = "linux")]
unsafe impl Send for WakeTx {}
#[cfg(target_os = "linux")]
unsafe impl Sync for WakeTx {}

impl WakeTx {
    /// Nonblocking one-byte nudge. A `WouldBlock` (pipe full) is success:
    /// unread wake bytes wake the loop just as well.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than `WouldBlock`/`Interrupted` (the
    /// read end is gone, i.e. the loop already exited).
    pub fn notify(&self) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            pipe_sys::try_write(self.fd, &[1]).map(|_| ())
        }
        #[cfg(not(target_os = "linux"))]
        {
            try_write_shared(&self.stream, &[1]).map(|_| ())
        }
    }
}

impl WakeRx {
    /// Swallows every pending wake byte (their only content is "look at
    /// the queues"). One syscall in the common case: the drain stops as
    /// soon as a read comes back short.
    pub fn drain_wakes(&mut self) {
        let mut sink = [0u8; 256];
        loop {
            #[cfg(target_os = "linux")]
            let n = pipe_sys::try_read(self.fd, &mut sink);
            #[cfg(not(target_os = "linux"))]
            let n = try_read(&mut self.stream, &mut sink).unwrap_or(Some(0));
            match n {
                Some(n) if n == sink.len() => continue,
                _ => return,
            }
        }
    }
}

impl PollSource for WakeRx {
    fn poll_fd(&self) -> i32 {
        #[cfg(target_os = "linux")]
        {
            self.fd
        }
        #[cfg(not(target_os = "linux"))]
        {
            self.stream.poll_fd()
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for WakeTx {
    fn drop(&mut self) {
        pipe_sys::close(self.fd);
    }
}

#[cfg(target_os = "linux")]
impl Drop for WakeRx {
    fn drop(&mut self) {
        pipe_sys::close(self.fd);
    }
}

/// Creates a connected wake channel (see [`WakeTx`] for the mechanism).
///
/// # Errors
///
/// Propagates `pipe2(2)` failure (fd exhaustion) on Linux; loop-back
/// bind/connect/accept failures elsewhere.
pub fn wake_channel() -> io::Result<(WakeTx, WakeRx)> {
    #[cfg(target_os = "linux")]
    {
        let (read_fd, write_fd) = pipe_sys::pipe()?;
        Ok((WakeTx { fd: write_fd }, WakeRx { fd: read_fd }))
    }
    #[cfg(not(target_os = "linux"))]
    {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        for s in [&tx, &rx] {
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
        }
        Ok((WakeTx { stream: tx }, WakeRx { stream: rx }))
    }
}

/// The `pipe2(2)` shim behind the Linux wake channel. Same pattern as
/// [`sys`]: declare the handful of libc symbols std already links instead
/// of pulling a dependency.
#[cfg(target_os = "linux")]
mod pipe_sys {
    use std::io;

    const O_NONBLOCK: i32 = 0o4000;
    const O_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        fn pipe2(fds: *mut i32, flags: i32) -> i32;
        #[link_name = "read"]
        fn libc_read(fd: i32, buf: *mut u8, count: usize) -> isize;
        #[link_name = "write"]
        fn libc_write(fd: i32, buf: *const u8, count: usize) -> isize;
        #[link_name = "close"]
        fn libc_close(fd: i32) -> i32;
    }

    /// A nonblocking close-on-exec pipe, returned as `(read_fd, write_fd)`.
    pub(super) fn pipe() -> io::Result<(i32, i32)> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a live 2-element array, exactly what pipe2
        // writes into on success.
        if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok((fds[0], fds[1]))
    }

    /// Nonblocking read: `Some(n)` bytes, `None` on `WouldBlock`; EOF and
    /// errors also report `None` (to a wake-byte drain they all mean
    /// "nothing more to swallow"). Retries `EINTR`.
    pub(super) fn try_read(fd: i32, buf: &mut [u8]) -> Option<usize> {
        loop {
            // SAFETY: `buf` is a live, exclusively borrowed slice; the
            // kernel writes at most `buf.len()` bytes into it.
            let rc = unsafe { libc_read(fd, buf.as_mut_ptr(), buf.len()) };
            if rc >= 0 {
                return Some(rc as usize);
            }
            let err = io::Error::last_os_error();
            match err.kind() {
                io::ErrorKind::Interrupted => continue,
                _ => return None,
            }
        }
    }

    /// Nonblocking write; `WouldBlock` (pipe full — unread wakes pending)
    /// is success. Retries `EINTR`.
    ///
    /// # Errors
    ///
    /// Propagates write failures other than `WouldBlock`/`Interrupted` —
    /// for a wake pipe that means the read end closed (`EPIPE`).
    pub(super) fn try_write(fd: i32, buf: &[u8]) -> io::Result<usize> {
        loop {
            // SAFETY: `buf` is a live borrowed slice; the kernel reads at
            // most `buf.len()` bytes from it.
            let rc = unsafe { libc_write(fd, buf.as_ptr(), buf.len()) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            match err.kind() {
                io::ErrorKind::Interrupted => continue,
                io::ErrorKind::WouldBlock => return Ok(0),
                _ => return Err(err),
            }
        }
    }

    /// Best-effort `close(2)` (nothing useful to do with the error).
    pub(super) fn close(fd: i32) {
        // SAFETY: called once per owned fd, from the owner's Drop.
        let _ = unsafe { libc_close(fd) };
    }
}

/// Nonblocking write through a shared reference (`Write` is implemented
/// for `&TcpStream`); same contract as [`try_write`]. For wakers, which
/// may be invoked concurrently from several threads.
///
/// # Errors
///
/// Propagates I/O errors other than `WouldBlock`/`Interrupted`.
#[cfg(not(target_os = "linux"))]
fn try_write_shared(stream: &TcpStream, buf: &[u8]) -> io::Result<Option<usize>> {
    let mut shared = stream;
    loop {
        match shared.write(buf) {
            Ok(n) => return Ok(Some(n)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Best-effort socket teardown (`shutdown(2)` — nonblocking by nature:
/// it marks the stream, it never waits for the peer). Errors are
/// swallowed: teardown targets are sockets already known dead or being
/// dropped, and a failed shutdown changes nothing about either.
pub fn shutdown_stream(stream: &TcpStream, how: std::net::Shutdown) {
    let _ = stream.shutdown(how);
}

/// Nonblocking read: `Ok(None)` on `WouldBlock`, `Ok(Some(0))` on EOF,
/// `Ok(Some(n))` on data. Retries `EINTR`.
///
/// # Errors
///
/// Propagates I/O errors other than `WouldBlock`/`Interrupted`.
pub fn try_read(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<Option<usize>> {
    loop {
        match stream.read(buf) {
            Ok(n) => return Ok(Some(n)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Nonblocking plain write: `Ok(None)` on `WouldBlock`, else the byte
/// count accepted (which may be short). Retries `EINTR`.
///
/// # Errors
///
/// Propagates I/O errors other than `WouldBlock`/`Interrupted`.
pub fn try_write(stream: &mut TcpStream, buf: &[u8]) -> io::Result<Option<usize>> {
    loop {
        match stream.write(buf) {
            Ok(n) => return Ok(Some(n)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Nonblocking accept on a listener already in nonblocking mode:
/// `Ok(None)` when no connection is pending, otherwise the accepted
/// stream, flipped nonblocking with Nagle disabled — ready for the event
/// loop. Retries `EINTR`; `ECONNABORTED` (the peer gave up while queued)
/// reports `None` rather than an error, per the `accept(2)` litany.
///
/// # Errors
///
/// Propagates accept failures other than
/// `WouldBlock`/`Interrupted`/`ConnectionAborted`, and failures to
/// configure the accepted stream.
pub fn try_accept(listener: &std::net::TcpListener) -> io::Result<Option<TcpStream>> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                return Ok(Some(stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => return Ok(None),
            Err(e) => return Err(e),
        }
    }
}

/// Connects to a **loop-back** peer and returns the stream nonblocking
/// with Nagle disabled. Sanctioned for event-loop use on the same grounds
/// as [`Poller::wait`]'s bounded tick: a loop-back `connect(2)` completes
/// or is refused synchronously in the kernel — there is no network for
/// the three-way handshake to cross — so the call cannot park the loop on
/// a remote peer. (The transport is loop-back-only by construction; see
/// `TcpCluster`.) A refused connect — nobody listening, or the listener
/// backlog full — surfaces as `Err`, which the reconnect machinery counts
/// as a failed attempt and retries with backoff.
///
/// # Errors
///
/// Propagates connect or configuration failures.
pub fn connect_loopback(addr: &std::net::SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn idle_stream_times_out_and_data_makes_it_readable() {
        let (mut a, b) = pair();
        let mut poller = Poller::new();
        let mut out = Vec::new();
        let n = poller
            .wait(&[(&b, Interest::READ)], &mut out, Duration::from_millis(10))
            .unwrap();
        // Spurious readiness is legal (and what the fallback produces),
        // but actual bytes must not be: the stream is idle.
        if n > 0 {
            let mut byte = [0u8; 1];
            assert_eq!(try_read(&mut { b.try_clone().unwrap() }, &mut byte).unwrap(), None);
        }
        assert_eq!(try_write(&mut a, b"x").unwrap(), Some(1));
        let n = poller
            .wait(&[(&b, Interest::READ)], &mut out, Duration::from_secs(5))
            .unwrap();
        assert!(n >= 1, "pending byte must wake the poller");
        assert!(out[0].readable);
        let mut byte = [0u8; 1];
        let mut b = b;
        assert_eq!(try_read(&mut b, &mut byte).unwrap(), Some(1));
        assert_eq!(byte[0], b'x');
        assert_eq!(try_read(&mut b, &mut byte).unwrap(), None, "drained socket would block");
    }

    #[test]
    fn a_sub_millisecond_timeout_parks_instead_of_spinning() {
        let (_a, b) = pair();
        let mut poller = Poller::new();
        let mut out = Vec::new();
        let timeout = Duration::from_micros(400);
        let t0 = std::time::Instant::now();
        let n = poller.wait(&[(&b, Interest::READ)], &mut out, timeout).unwrap();
        if n == 0 {
            assert!(t0.elapsed() >= timeout, "returned after {:?}", t0.elapsed());
        }
    }

    #[test]
    fn a_full_socket_would_block_and_draining_rearms_writability() {
        let (mut a, mut b) = pair();
        // Flood until the kernel buffers fill.
        let chunk = [0u8; 64 * 1024];
        let mut sent = 0usize;
        while let Some(n) = try_write(&mut a, &chunk).unwrap() {
            sent += n;
            assert!(sent < 1 << 30, "socket never filled");
        }
        let mut poller = Poller::new();
        let mut out = Vec::new();
        // Drain the peer; the writer must become ready again.
        let mut drained = 0usize;
        let mut scratch = vec![0u8; 64 * 1024];
        while drained < sent {
            if let Some(n) = try_read(&mut b, &mut scratch).unwrap() {
                assert!(n > 0);
                drained += n;
            } else {
                poller.wait(&[(&b, Interest::READ)], &mut out, Duration::from_secs(5)).unwrap();
            }
        }
        let n = poller
            .wait(&[(&a, Interest::WRITE)], &mut out, Duration::from_secs(5))
            .unwrap();
        assert!(n >= 1 && out[0].writable, "drained peer must re-arm the writer");
        assert!(try_write(&mut a, b"y").unwrap().is_some());
    }

    #[test]
    fn none_interest_is_never_reported() {
        let (mut a, b) = pair();
        assert_eq!(try_write(&mut a, b"z").unwrap(), Some(1));
        let mut poller = Poller::new();
        let mut out = Vec::new();
        poller
            .wait(&[(&b, Interest::NONE)], &mut out, Duration::from_millis(5))
            .unwrap();
        assert_eq!(out[0], Readiness::default(), "NONE slots stay quiet even with data pending");
    }

    #[test]
    fn wake_channel_notify_wakes_the_poller_and_drain_quiesces_it() {
        let (tx, mut rx) = wake_channel().unwrap();
        let mut poller = Poller::new();
        let mut out = Vec::new();
        tx.notify().unwrap();
        let n = poller
            .wait(&[(&rx, Interest::READ)], &mut out, Duration::from_secs(5))
            .unwrap();
        assert!(n >= 1 && out[0].readable, "a notify byte must wake the poller");
        rx.drain_wakes();
        // Coalesced notifies still only need one drain.
        tx.notify().unwrap();
        tx.notify().unwrap();
        tx.notify().unwrap();
        let n = poller
            .wait(&[(&rx, Interest::READ)], &mut out, Duration::from_secs(5))
            .unwrap();
        assert!(n >= 1 && out[0].readable);
        rx.drain_wakes();
    }
}
