//! The libc-free syscall shim behind the reactor.
//!
//! The repo's no-external-deps policy rules out the `libc` crate, and
//! std does not expose `epoll(7)` — so the five syscalls the reactor
//! needs (`epoll_create1`, `epoll_ctl`, `epoll_pwait`, `close`, and
//! `listen` to widen the listener's backlog) are invoked directly
//! through inline assembly on the platforms where the calling
//! convention is stable and documented: Linux on x86_64 (`syscall`,
//! number in `rax`, args in `rdi/rsi/rdx/r10/r8/r9`) and aarch64
//! (`svc 0`, number in `x8`, args in `x0..x5`). Everything else in the
//! server stays plain std; on any other target this module is compiled
//! out and the server cannot serve (see the [reactor docs](super)).
//!
//! `epoll_pwait` with a null sigmask is exactly `epoll_wait`; it is
//! used on both architectures because aarch64 never had the older
//! `epoll_wait` number.
//!
//! Errors follow the raw kernel convention: a negative return is
//! `-errno`, converted here into [`io::Error::from_raw_os_error`] so
//! callers match on [`io::ErrorKind`] (`Interrupted`, `WouldBlock`)
//! exactly as they would with std I/O.

use std::io;
use std::os::fd::RawFd;

// --- Raw syscall entry, per architecture. -------------------------------

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const CLOSE: usize = 3;
    pub const LISTEN: usize = 50;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EPOLL_CREATE1: usize = 291;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const CLOSE: usize = 57;
    pub const LISTEN: usize = 201;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const EPOLL_CREATE1: usize = 20;
}

/// Invoke syscall `n` with up to six arguments, returning the raw
/// kernel result (negative = `-errno`).
///
/// Safety: the caller must uphold the invoked syscall's own contract —
/// every pointer argument must be valid for the kernel's documented
/// access pattern for as long as the call runs.
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") n as isize => ret,
        in("rdi") a,
        in("rsi") b,
        in("rdx") c,
        in("r10") d,
        in("r8") e,
        in("r9") f,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack)
    );
    ret
}

/// See the x86_64 twin for the contract.
#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "svc 0",
        in("x8") n,
        inlateout("x0") a => ret,
        in("x1") b,
        in("x2") c,
        in("x3") d,
        in("x4") e,
        in("x5") f,
        options(nostack)
    );
    ret
}

/// Kernel convention → std convention: negative returns become
/// [`io::Error`]s carrying the errno.
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

// --- listen --------------------------------------------------------------

/// The backlog [`listen`] asks for: the largest the argument can say.
/// The kernel silently clamps it to `net.core.somaxconn` (4096 by
/// default since Linux 5.4), so the listener gets the host's ceiling
/// instead of std's fixed 128.
pub const LISTEN_BACKLOG: i32 = i32::MAX;

/// `listen(fd, backlog)`. On a socket that is already listening (a
/// bound std `TcpListener`) this only resizes its accept queue: the
/// connections whose handshakes the kernel completes before anyone
/// accepts them.
pub fn listen(fd: RawFd, backlog: i32) -> io::Result<()> {
    // Safety: no pointer arguments.
    check(unsafe { syscall6(nr::LISTEN, fd as usize, backlog as usize, 0, 0, 0, 0) })?;
    Ok(())
}

// --- epoll ---------------------------------------------------------------

/// `EPOLL_CLOEXEC`: the epoll fd must not leak across an exec.
const EPOLL_CLOEXEC: usize = 0o2000000;

/// `epoll_ctl` op: add a new fd to the interest set.
pub const EPOLL_CTL_ADD: i32 = 1;
/// `epoll_ctl` op: remove an fd from the interest set.
pub const EPOLL_CTL_DEL: i32 = 2;
/// `epoll_ctl` op: change an already-registered fd's interest.
pub const EPOLL_CTL_MOD: i32 = 3;

/// Readability interest/readiness (level-triggered by default).
pub const EPOLLIN: u32 = 0x1;
/// Writability interest/readiness.
pub const EPOLLOUT: u32 = 0x4;
/// Error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x8;
/// Hangup (always reported, never requested).
pub const EPOLLHUP: u32 = 0x10;

/// One `struct epoll_event`. x86_64 declares it packed in the kernel
/// ABI; aarch64 uses natural alignment — mirror both exactly.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLLIN | ...`).
    pub events: u32,
    /// The caller's token, returned verbatim with each readiness event.
    pub data: u64,
}

/// An owned epoll instance; the fd is closed on drop.
#[derive(Debug)]
pub struct EpollFd(RawFd);

impl EpollFd {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> io::Result<EpollFd> {
        // Safety: no pointer arguments.
        let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        Ok(EpollFd(fd as RawFd))
    }

    /// `epoll_ctl(op, fd)` with interest `events` and `token` as the
    /// event payload.
    pub fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let ev = EpollEvent {
            events,
            data: token,
        };
        // Safety: `ev` lives across the call; the kernel only reads it.
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.0 as usize,
                op as usize,
                fd as usize,
                std::ptr::from_ref(&ev) as usize,
                0,
                0,
            )
        })?;
        Ok(())
    }

    /// `epoll_pwait` into `buf` (its *capacity* is the event ceiling);
    /// on return `buf` holds exactly the ready events. `timeout_ms < 0`
    /// blocks indefinitely.
    pub fn wait(&self, buf: &mut Vec<EpollEvent>, timeout_ms: i32) -> io::Result<usize> {
        buf.clear();
        let cap = buf.capacity().max(1);
        // Safety: `buf` owns `cap` writable `EpollEvent` slots; the
        // kernel writes at most `cap` of them and we set the length to
        // exactly the count it reports.
        let n = check(unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                self.0 as usize,
                buf.as_mut_ptr() as usize,
                cap,
                timeout_ms as usize,
                0, // null sigmask: plain epoll_wait semantics
                0,
            )
        })?;
        // Safety: the kernel initialized the first `n` events.
        unsafe { buf.set_len(n) };
        Ok(n)
    }
}

impl Drop for EpollFd {
    fn drop(&mut self) {
        // Safety: the fd is owned and closed exactly once.
        let _ = unsafe { syscall6(nr::CLOSE, self.0 as usize, 0, 0, 0, 0, 0) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn epoll_reports_readability_with_the_registered_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let ep = EpollFd::new().unwrap();
        ep.ctl(EPOLL_CTL_ADD, rx.as_raw_fd(), EPOLLIN, 7777)
            .unwrap();
        let mut buf = Vec::with_capacity(8);

        // Nothing buffered: a zero timeout returns no events.
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);

        tx.write_all(b"x").unwrap();
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(n, 1);
        let ev = buf[0];
        assert_eq!({ ev.data }, 7777, "the token round-trips");
        assert_ne!({ ev.events } & EPOLLIN, 0, "readable");

        ep.ctl(EPOLL_CTL_DEL, rx.as_raw_fd(), 0, 0).unwrap();
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0, "deregistered");
    }

    /// Nobody accepts here, so every completed handshake waits in the
    /// accept queue. Std's backlog of 128 holds 129 of them and the
    /// 130th SYN is dropped, which leaves that connect waiting a full
    /// second for its retransmit; the widened queue takes all 300.
    #[test]
    fn a_widened_backlog_completes_300_connects_without_accepts() {
        const CONNECTS: usize = 300;
        let somaxconn: usize = std::fs::read_to_string("/proc/sys/net/core/somaxconn")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0);
        if somaxconn < CONNECTS {
            eprintln!("skipping: net.core.somaxconn is {somaxconn}, below {CONNECTS}");
            return;
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listen(listener.as_raw_fd(), LISTEN_BACKLOG).unwrap();
        let addr = listener.local_addr().unwrap();
        let streams: Vec<TcpStream> = (0..CONNECTS)
            .map(|i| {
                TcpStream::connect_timeout(&addr, std::time::Duration::from_millis(200))
                    .unwrap_or_else(|e| panic!("connect {} of {CONNECTS} failed: {e}", i + 1))
            })
            .collect();
        assert_eq!(streams.len(), CONNECTS);
    }

    #[test]
    fn errors_carry_real_errnos() {
        let ep = EpollFd::new().unwrap();
        // Adding a nonsense fd must fail with EBADF, proving the
        // negative-return → io::Error conversion.
        let err = ep.ctl(EPOLL_CTL_ADD, -1, EPOLLIN, 0).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(9), "EBADF");
    }
}
