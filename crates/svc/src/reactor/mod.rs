//! The readiness-driven reactor: many connections per worker thread.
//!
//! The threads engine spends one OS thread per connection; this module
//! spends one `Worker` thread per core-ish
//! ([`SvcConfig::workers`](crate::SvcConfig::workers)) and multiplexes
//! every connection it accepted over one `epoll(7)` instance, reached
//! through the inline-assembly syscall shim in `sys.rs` (the repo takes
//! no external crates, and std does not expose epoll). See
//! `docs/ARCHITECTURE.md` for the full picture; `worker.rs` holds the
//! event-loop contract.
//!
//! Division of labor:
//!
//! * **Accepting happens in the workers.** The nonblocking listener
//!   sits in one worker's epoll set at a time. That worker accepts one
//!   connection, runs the admission policy both engines share (the
//!   `max_conns` claim, or a refusal `ERR`), and passes the listener to
//!   the next worker's set, so connection *i* lands on worker
//!   *i* mod `workers`. There is no accept thread and no handoff queue.
//! * **Workers** own everything per-connection: the nonblocking
//!   socket, the [`Connection`](crate::Connection) state machine, the
//!   partial-write carryover cursor, and the last-activity stamp that
//!   the worker's periodic slab sweep checks read deadlines against.
//!   No locks are held while serving; the only cross-thread
//!   touchpoints are the listener pass (one `epoll_ctl` on the next
//!   worker's set) and the shared namespace/gauge atomics.
//! * **Shutdown** writes one byte into a `UnixStream` pair whose other
//!   end sits in every worker's epoll set. Nobody drains it, so it
//!   stays readable and wakes every worker at once.
//!
//! On platforms without the shim (anything but Linux on
//! x86_64/aarch64) the `epoll` engine reports itself unsupported and
//! `ReactorPool::spawn` fails cleanly; the caller keeps the
//! thread-per-connection engine instead.

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) mod sys;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod worker;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) use worker::ReactorPool;

use std::fmt;

/// Which connection-serving engine a server runs.
///
/// `epoll` is the reactor (many connections per worker; see the
/// [module docs](self)); `threads` is the original
/// thread-per-connection design, kept both as the portable fallback
/// and as the behavioral reference the reactor is tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Readiness via `epoll(7)`: O(ready) waits, the default on
    /// supported platforms.
    Epoll,
    /// One blocking accept thread, one blocking handler thread per
    /// connection.
    Threads,
}

impl Engine {
    /// Whether this build has the syscall shim the `epoll` engine
    /// needs (Linux on x86_64 or aarch64).
    pub const SHIM_SUPPORTED: bool = cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ));

    /// The best engine this build supports: `epoll` with the shim,
    /// `threads` without.
    pub fn auto() -> Engine {
        if Engine::SHIM_SUPPORTED {
            Engine::Epoll
        } else {
            Engine::Threads
        }
    }

    /// Parse a `--engine` value (`epoll` | `threads`).
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "epoll" => Some(Engine::Epoll),
            "threads" => Some(Engine::Threads),
            _ => None,
        }
    }

    /// The CLI/report spelling (`epoll` | `threads`).
    pub fn label(self) -> &'static str {
        match self {
            Engine::Epoll => "epoll",
            Engine::Threads => "threads",
        }
    }

    /// Whether this engine can run in this build (see
    /// [`Engine::SHIM_SUPPORTED`]; `threads` always can).
    pub fn supported(self) -> bool {
        matches!(self, Engine::Threads) || Engine::SHIM_SUPPORTED
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::auto()
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Off the shim no reactor can be built, so a pool never exists.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
#[derive(Debug)]
pub(crate) enum ReactorPool {}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
impl ReactorPool {
    pub(crate) fn spawn(
        _listener: std::net::TcpListener,
        _workers: usize,
        _shared: &crate::server::Shared,
    ) -> std::io::Result<ReactorPool> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "engine 'epoll' needs the Linux x86_64/aarch64 syscall shim; \
             use --engine threads on this platform",
        ))
    }

    pub(crate) fn shutdown(self) {
        match self {}
    }

    pub(crate) fn join(self) {
        match self {}
    }
}
