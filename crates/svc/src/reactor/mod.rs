//! The readiness-driven reactor: many connections per worker thread.
//!
//! The server's one serving path: one `Worker` thread per core-ish
//! ([`SvcConfig::workers`](crate::SvcConfig::workers)), each
//! multiplexing every connection it accepted over one `epoll(7)`
//! instance, reached through the inline-assembly syscall shim in
//! `sys.rs` (the repo takes no external crates, and std does not expose
//! epoll). See `docs/ARCHITECTURE.md` for the full picture; `worker.rs`
//! holds the event-loop contract.
//!
//! Division of labor:
//!
//! * **Accepting happens in the workers.** The nonblocking listener
//!   sits in one worker's epoll set at a time. That worker accepts one
//!   connection, runs the admission policy (the `max_conns` claim, or a
//!   refusal `ERR`), and passes the listener to the next worker's set,
//!   so connection *i* lands on worker *i* mod `workers`. There is no
//!   accept thread and no handoff queue.
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
//! x86_64/aarch64) the crate still compiles, but there is no reactor:
//! `ReactorPool::spawn`, and with it [`Server::spawn`](crate::Server::spawn),
//! fails with [`std::io::ErrorKind::Unsupported`].

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

/// The connection-serving engine: the `epoll(7)` reactor, the only
/// one (see the [module docs](self)). A one-value type, so
/// [`SvcConfig::engine`](crate::SvcConfig::engine) stays readable to
/// code that prints it; nothing selects or parses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Readiness via `epoll(7)`: O(ready) waits.
    Epoll,
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
            "serving needs the reactor's epoll syscall shim, \
             which exists only on Linux x86_64/aarch64",
        ))
    }

    pub(crate) fn shutdown(self) {
        match self {}
    }

    pub(crate) fn join(self) {
        match self {}
    }
}
