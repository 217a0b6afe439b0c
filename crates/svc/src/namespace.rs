//! Keyed arbitration namespaces: one epoch-recycled object per key.
//!
//! A [`Namespace`] maps byte-string keys to recyclable arbitration
//! objects — test-and-set or leader-election semantics over one shared
//! [`Layout`]. Keys hash (FNV-1a) to **shards** — each shard
//! is an independently locked map in its own pair of cache lines, so
//! traffic on unrelated keys never contends on one lock or
//! false-shares a header.
//!
//! Each key advances through **epochs**, generalizing the `rtas-load`
//! arena's release/acquire recycling to *dynamic* membership with an
//! explicit ack:
//!
//! * an operation is **admitted** into the key's open epoch by a CAS on
//!   a packed state word (`resetting bit | epoch | entered count`) —
//!   at most `capacity` admissions per epoch, every further caller is
//!   turned away with a loss verdict (it is certainly not the winner;
//!   the verdict linearizes after the eventual winner, exactly like the
//!   fast path of [`rtas::TestAndSet::test_and_set`]);
//! * admitted operations run the real protocol and then bump a
//!   `finished` counter with release ordering;
//! * a **reset** (the client's ack, the `RESET` wire op) first claims
//!   the resetting bit — closing admission — then waits until
//!   `finished` has caught up with the admitted count (the object is
//!   quiescent), recycles the object with its allocation-free
//!   [`ObjectState::reset`], and opens the next epoch with a release store
//!   that every later admission reads with acquire ordering. The reset
//!   therefore happens-before every next-epoch operation — the
//!   quiescence contract of [`rtas::native::NativeMemory::reset`]
//!   discharged by construction, with no static participant groups.
//!
//! Every key shares the namespace's one [`Layout`] — the protocol
//! descriptor and register count, computed once per `(backend,
//! capacity)` — and owns only an [`ObjectState`]: a register block and
//! its counters. The block is carved out of a zeroed chunk the layout
//! shares among its keys, with the registers a solo epoch touches at its
//! front, so a key commits only the pages its epochs write: about
//! 4.4 KB for a Combined/64 key that only sees solo epochs, of the
//! 20,392 B it declares (`tests/resident_memory.rs`). The steady-state
//! op path — lookup of an existing key, admission, protocol run, finish
//! — performs **zero allocations** (pinned by the counting-allocator
//! test in `tests/alloc_steady.rs`); only first-contact key creation
//! allocates.
//!
//! ## Leases: reclaiming epochs whose holders vanished
//!
//! The explicit `RESET` ack makes a hostile client dangerous: a holder
//! that disconnects mid-epoch (or stalls forever) would leave its key's
//! epoch open for good — every later arrival joins or drains into loss
//! verdicts on the stranded epoch and the key never recycles. A
//! namespace built [`Namespace::with_lease`] arms a **lease** on each
//! epoch at its *first* admission. Admission is the one place the lease
//! is checked: an arrival that finds the open epoch's lease expired —
//! full or not — retires that epoch itself through the exact begin/end
//! reset path a client ack takes (quiescence included), then is
//! admitted into the fresh epoch. Reclamation can therefore never mint
//! a second winner; it merely retires an epoch whose single winner
//! (every admitted epoch resolves exactly one) was never acked, and an
//! arrival after expiry always lands in the fresh epoch. Reclamations
//! are counted separately ([`SvcStats::reclaimed`]) and as resets. A
//! key nobody touches after expiry keeps its stranded epoch until its
//! next arrival — nothing is waiting on it, and no thread walks the
//! key map. Idle keys are never reclaimed: an epoch with zero
//! admissions has no lease. Symmetrically, a `RESET` that arrives for
//! a zero-admission epoch (a byzantine duplicate ack, or an ack racing
//! a reclamation) is a **no-op** — it returns the open epoch without
//! recycling, so replayed acks cannot burn epochs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use rtas::native::NativeRunner;
use rtas::sync::{Backoff, CachePadded};
use rtas::{Backend, Layout, MonotonicClock, ObjectState};
use rtas_obs::{EventKind, FlightRecorder, Lane};

use crate::protocol::{Acquired, SvcStats};

/// Which arbitration semantics a key carries. Fixed at first contact;
/// mixing kinds on one key is refused with [`NsError::KindMismatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Test-and-set: winner = the call that set the bit.
    Tas,
    /// Leader election: winner = the elected leader.
    Elect,
}

impl Kind {
    /// Stable lowercase label (error messages, stats).
    pub fn label(self) -> &'static str {
        match self {
            Kind::Tas => "tas",
            Kind::Elect => "elect",
        }
    }
}

/// Why a namespace operation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NsError {
    /// The key exists with different arbitration semantics.
    KindMismatch {
        /// The kind the key was created with.
        existing: Kind,
        /// The kind this request asked for.
        requested: Kind,
    },
    /// Creating the key would exceed the namespace's key ceiling.
    KeyLimit {
        /// The configured ceiling.
        max_keys: usize,
    },
}

impl std::fmt::Display for NsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NsError::KindMismatch {
                existing,
                requested,
            } => write!(
                f,
                "kind mismatch: key holds a {} object, request asked for {}",
                existing.label(),
                requested.label()
            ),
            NsError::KeyLimit { max_keys } => {
                write!(f, "key limit reached: namespace holds {max_keys} keys")
            }
        }
    }
}

impl std::error::Error for NsError {}

/// Low bits of the state word: admissions into the open epoch.
const ENTERED_BITS: u32 = 20;
const ENTERED_MASK: u64 = (1 << ENTERED_BITS) - 1;
/// Top bit: a reset is in flight — admission is closed.
const RESETTING: u64 = 1 << 63;

/// Largest per-key-epoch capacity a [`Namespace`] accepts: the
/// admission count must fit the state word's 20-bit entered field.
pub const MAX_CAPACITY: usize = ENTERED_MASK as usize;

/// Default ceiling on live keys ([`Namespace::new`],
/// [`crate::SvcConfig::max_keys`]): high enough for any reasonable
/// workload, low enough that a key-churning client cannot grow an
/// unauthenticated server without bound.
pub const DEFAULT_MAX_KEYS: usize = 1 << 20;

/// The per-key epoch gate: packed `resetting | epoch | entered` word
/// plus a `finished` counter (see the [module docs](self) for the
/// protocol).
#[derive(Debug)]
struct EpochGate {
    word: AtomicU64,
    finished: AtomicU64,
    /// Lease deadline for the open epoch, in nanoseconds on the owning
    /// namespace's clock; written by the epoch's *first* admission
    /// (store-before-CAS, published by the admission CAS's release), so
    /// any acquire load of the word that observes `entered > 0` also
    /// observes this epoch's deadline. Meaningless while `entered == 0`.
    lease_deadline_ns: AtomicU64,
}

enum Admission {
    /// Admitted into `epoch`; the caller must run the protocol and then
    /// call [`EpochGate::finish`].
    Admitted { epoch: u64 },
    /// Epoch already has `capacity` participants; the caller loses
    /// without touching the object (and must *not* call `finish`).
    Full { epoch: u64 },
    /// The open epoch's lease expired: the caller retires it with
    /// [`EpochGate::begin_reclaim`] and asks for admission again.
    Expired,
}

impl EpochGate {
    fn new() -> Self {
        EpochGate {
            word: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            lease_deadline_ns: AtomicU64::new(0),
        }
    }

    fn epoch_of(word: u64) -> u64 {
        (word & !RESETTING) >> ENTERED_BITS
    }

    /// The currently open epoch.
    fn epoch(&self) -> u64 {
        Self::epoch_of(self.word.load(Ordering::Acquire))
    }

    /// Admit into the open epoch. `now_ns`/`lease_ns` arm the lease on
    /// the epoch's first admission and report an admitted epoch whose
    /// lease has expired at `now_ns`, full or not; `lease_ns == 0`
    /// disables leasing (and `now_ns` goes unread — the hot path pays
    /// no clock read).
    fn admit(&self, capacity: u64, now_ns: u64, lease_ns: u64) -> Admission {
        let mut backoff = Backoff::new();
        loop {
            let w = self.word.load(Ordering::Acquire);
            if w & RESETTING != 0 {
                backoff.snooze();
                continue;
            }
            // Read after the acquire load above: `entered > 0` means the
            // first admission's CAS is visible, and with it the deadline
            // it stored (store-before-CAS below).
            if lease_ns != 0
                && w & ENTERED_MASK != 0
                && now_ns >= self.lease_deadline_ns.load(Ordering::Relaxed)
            {
                return Admission::Expired;
            }
            if w & ENTERED_MASK >= capacity {
                return Admission::Full {
                    epoch: Self::epoch_of(w),
                };
            }
            if lease_ns != 0 && w & ENTERED_MASK == 0 {
                // First admission arms the lease. Store BEFORE the CAS:
                // the CAS's release publishes it, so a reclaimer that
                // sees `entered > 0` sees this epoch's deadline, never a
                // stale one.
                self.lease_deadline_ns
                    .store(now_ns.saturating_add(lease_ns), Ordering::Relaxed);
            }
            if self
                .word
                .compare_exchange_weak(w, w + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Admission::Admitted {
                    epoch: Self::epoch_of(w),
                };
            }
        }
    }

    fn finish(&self) {
        self.finished.fetch_add(1, Ordering::Release);
    }

    /// Close admission and wait for quiescence; returns the epoch being
    /// retired, or `None` if the open epoch has **zero admissions** —
    /// there is nothing to retire, and recycling anyway would let a
    /// replayed (byzantine duplicate) `RESET` burn epochs. The caller
    /// recycles the object, then calls [`EpochGate::end_reset`].
    fn begin_reset(&self) -> Option<u64> {
        let mut backoff = Backoff::new();
        let w = loop {
            let w = self.word.load(Ordering::Acquire);
            if w & RESETTING != 0 {
                // A concurrent reset is retiring this epoch; wait for it,
                // then look again at the (fresh) epoch it opened.
                backoff.snooze();
                continue;
            }
            if w & ENTERED_MASK == 0 {
                return None;
            }
            if self
                .word
                .compare_exchange_weak(w, w | RESETTING, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break w;
            }
        };
        self.quiesce(w & ENTERED_MASK);
        Some(Self::epoch_of(w))
    }

    /// [`EpochGate::begin_reset`], but only if the open epoch's lease
    /// has expired at `now_ns` — what an arrival runs on
    /// [`Admission::Expired`]. Returns the epoch to retire, claimed and
    /// quiescent, or `None` (idle epoch, unexpired lease, or a
    /// concurrent reset already in flight — which is itself the
    /// progress we wanted).
    fn begin_reclaim(&self, now_ns: u64) -> Option<u64> {
        loop {
            let w = self.word.load(Ordering::Acquire);
            if w & RESETTING != 0 || w & ENTERED_MASK == 0 {
                return None;
            }
            // Read after the acquire load above: `entered > 0` means the
            // first admission's CAS is visible, and with it the deadline
            // it stored (store-before-CAS on the admitting side).
            let deadline = self.lease_deadline_ns.load(Ordering::Relaxed);
            if now_ns < deadline {
                return None;
            }
            if self
                .word
                .compare_exchange_weak(w, w | RESETTING, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.quiesce(w & ENTERED_MASK);
                return Some(Self::epoch_of(w));
            }
        }
    }

    /// Wait until every admitted call of the claimed epoch has finished.
    fn quiesce(&self, entered: u64) {
        let mut backoff = Backoff::new();
        while self.finished.load(Ordering::Acquire) != entered {
            backoff.snooze();
        }
    }

    /// Publish the recycled object and open epoch `old + 1`; returns
    /// the newly opened epoch.
    fn end_reset(&self, old_epoch: u64) -> u64 {
        self.finished.store(0, Ordering::Relaxed);
        self.word
            .store((old_epoch + 1) << ENTERED_BITS, Ordering::Release);
        old_epoch + 1
    }
}

/// One key's state: its recyclable object's registers and counters
/// (run through the namespace's shared [`Layout`]) and its epoch gate.
/// Cumulative counters live on the key's *shard* (`ShardCounters`), not
/// the entry — `stats()` then reads a handful of atomics per shard
/// instead of walking every key under its lock.
struct Entry {
    kind: Kind,
    object: ObjectState,
    gate: EpochGate,
}

impl std::fmt::Debug for Entry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry")
            .field("kind", &self.kind)
            .field("epoch", &self.gate.epoch())
            .finish()
    }
}

impl Entry {
    fn new(kind: Kind, layout: &Layout) -> Self {
        Entry {
            kind,
            object: layout.state(),
            gate: EpochGate::new(),
        }
    }

    /// Atomic registers of a `kind` object of `layout` (a test-and-set
    /// adds its bit).
    fn registers(kind: Kind, layout: &Layout) -> u64 {
        match kind {
            Kind::Tas => layout.tas_registers(),
            Kind::Elect => layout.registers(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn acquire(
        &self,
        layout: &Layout,
        counters: &ShardCounters,
        runner: &mut NativeRunner,
        now_ns: u64,
        lease_ns: u64,
        key_hash: u64,
        trace: Option<&FlightRecorder>,
    ) -> Acquired {
        counters.ops.fetch_add(1, Ordering::Relaxed);
        loop {
            match self.gate.admit(layout.capacity() as u64, now_ns, lease_ns) {
                // The holder never acked: retire its epoch, then ask
                // again — the retry lands in the fresh epoch (or behind
                // whichever concurrent reset got there first).
                Admission::Expired => self.reclaim(counters, now_ns, key_hash, trace),
                // Over capacity: certainly not the winner — the loss
                // verdict linearizes right after the epoch's eventual
                // winner.
                Admission::Full { epoch } => return Acquired { won: false, epoch },
                Admission::Admitted { epoch } => {
                    let won = match self.kind {
                        Kind::Tas => !layout.test_and_set(&self.object, runner),
                        Kind::Elect => layout.elect(&self.object, runner),
                    };
                    if won {
                        counters.wins.fetch_add(1, Ordering::Relaxed);
                    }
                    self.gate.finish();
                    return Acquired { won, epoch };
                }
            }
        }
    }

    /// Recycle for the next epoch (the client's `RESET` ack); returns
    /// the open epoch and whether this ack opened it. A zero-admission
    /// open epoch is left untouched — the ack is idempotent — and comes
    /// back unchanged with `false`.
    fn recycle(&self, counters: &ShardCounters) -> (u64, bool) {
        match self.gate.begin_reset() {
            Some(old) => {
                self.object.reset();
                counters.resets.fetch_add(1, Ordering::Relaxed);
                (self.gate.end_reset(old), true)
            }
            None => (self.gate.epoch(), false),
        }
    }

    /// Reclaim the open epoch if its lease has expired at `now_ns`.
    /// Same quiescent recycle path as a client ack — a reclamation can
    /// never produce a second winner. Each reclamation lands a
    /// [`EventKind::LeaseReclaim`] record (retired epoch + key hash) on
    /// the recorder's reclaim lane, so a flight-recorder dump accounts
    /// for every `reclaimed` tick.
    fn reclaim(
        &self,
        counters: &ShardCounters,
        now_ns: u64,
        key_hash: u64,
        trace: Option<&FlightRecorder>,
    ) {
        if let Some(old) = self.gate.begin_reclaim(now_ns) {
            self.object.reset();
            self.gate.end_reset(old);
            counters.resets.fetch_add(1, Ordering::Relaxed);
            counters.reclaimed.fetch_add(1, Ordering::Relaxed);
            if let Some(rec) = trace {
                rec.record(Lane::Reclaim, EventKind::LeaseReclaim, 0, old, key_hash);
            }
        }
    }
}

/// Per-shard cumulative counters: relaxed increments on the hot path,
/// relaxed snapshot loads in [`Namespace::stats`]. A `STATS` request
/// therefore never takes a shard lock and never stalls a TAS/ELECT —
/// the same lock-free read discipline the epoch gate already uses for
/// recycling. Every epoch advance (client ack or lease reclamation)
/// bumps `resets`, so `resets` equals the sum of all live keys' epochs.
#[derive(Debug, Default)]
struct ShardCounters {
    ops: AtomicU64,
    wins: AtomicU64,
    resets: AtomicU64,
    registers: AtomicU64,
    reclaimed: AtomicU64,
}

#[derive(Debug)]
struct NsShard {
    map: RwLock<HashMap<Box<[u8]>, Arc<Entry>>>,
    counters: ShardCounters,
}

/// The sharded keyed namespace. See the [module docs](self).
#[derive(Debug)]
pub struct Namespace {
    shards: Vec<CachePadded<NsShard>>,
    /// The one layout every key's object shares.
    layout: &'static Layout,
    max_keys: usize,
    /// Live keys across all shards (maintained under the shard write
    /// locks, read lock-free by the admission check — the ceiling may
    /// overshoot by at most one in-flight creation per shard).
    key_count: AtomicUsize,
    /// Lease duration in nanoseconds for admitted epochs; `0` disables
    /// reclamation entirely (the default — the hot path then never
    /// reads the clock).
    lease_ns: u64,
    /// The namespace's monotonic clock; all lease deadlines are
    /// nanosecond offsets from its origin. When a flight recorder is
    /// attached the recorder's clock is adopted, so lease deadlines and
    /// trace timestamps share one axis.
    clock: MonotonicClock,
    /// Flight recorder for lease-reclaim events, if tracing is wired up
    /// ([`Namespace::attach_recorder`]).
    trace: Option<Arc<FlightRecorder>>,
}

/// FNV-1a: tiny, allocation-free, and deterministic — the shard choice
/// must not depend on `std`'s per-process `RandomState`. Also the key
/// fingerprint carried by flight-recorder events (`ArbiterVerdict`,
/// `LeaseReclaim`), so a trace can be joined against keys without
/// storing variable-length bytes in fixed-size records.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl Namespace {
    /// A namespace whose keyed objects run `backend` and admit up to
    /// `capacity` participants per epoch, striped over `shards`
    /// independently locked shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, `capacity == 0`, or `capacity` exceeds
    /// [`MAX_CAPACITY`] (the gate's admission-counter width).
    pub fn new(backend: Backend, shards: usize, capacity: usize) -> Self {
        Self::with_lease(backend, shards, capacity, DEFAULT_MAX_KEYS, None)
    }

    /// [`Namespace::new`] with an explicit key ceiling: first contact
    /// with a fresh key is refused with [`NsError::KeyLimit`] once
    /// `max_keys` keys are live, so a client inventing endless keys
    /// cannot grow the server's memory without bound.
    ///
    /// # Panics
    ///
    /// Panics on the [`Namespace::new`] conditions, or if
    /// `max_keys == 0`.
    pub fn with_max_keys(
        backend: Backend,
        shards: usize,
        capacity: usize,
        max_keys: usize,
    ) -> Self {
        Self::with_lease(backend, shards, capacity, max_keys, None)
    }

    /// [`Namespace::with_max_keys`] plus an admission lease: when
    /// `lease` is `Some`, an epoch whose first admission happened more
    /// than `lease` ago and that was never acked with `RESET` is retired
    /// by the key's next arrival, which is then admitted into the fresh
    /// epoch (see the [module docs](self)). `None` keeps the namespace
    /// clock-free (no lease, nothing is ever reclaimed).
    ///
    /// # Panics
    ///
    /// Panics on the [`Namespace::with_max_keys`] conditions, or if
    /// `lease` is `Some` but zero (use `None` to disable) or overflows
    /// a `u64` nanosecond count.
    pub fn with_lease(
        backend: Backend,
        shards: usize,
        capacity: usize,
        max_keys: usize,
        lease: Option<Duration>,
    ) -> Self {
        assert!(shards >= 1, "namespace needs at least one shard");
        assert!(capacity >= 1, "namespace needs capacity of at least 1");
        assert!(
            capacity <= MAX_CAPACITY,
            "capacity {capacity} exceeds the admission counter width \
             (MAX_CAPACITY = {MAX_CAPACITY})"
        );
        assert!(max_keys >= 1, "namespace needs room for at least one key");
        let lease_ns = match lease {
            None => 0,
            Some(d) => {
                let ns = u64::try_from(d.as_nanos()).expect("lease overflows u64 nanoseconds");
                assert!(ns > 0, "zero lease is ambiguous: use None to disable");
                ns
            }
        };
        Namespace {
            shards: (0..shards)
                .map(|_| {
                    CachePadded(NsShard {
                        map: RwLock::new(HashMap::new()),
                        counters: ShardCounters::default(),
                    })
                })
                .collect(),
            layout: Layout::shared(backend, capacity),
            max_keys,
            key_count: AtomicUsize::new(0),
            lease_ns,
            clock: MonotonicClock::new(),
            trace: None,
        }
    }

    /// Wire a flight recorder in: lease reclamations emit
    /// [`EventKind::LeaseReclaim`] events, and the namespace adopts the
    /// recorder's clock so lease deadlines and trace timestamps share
    /// one origin. Call before serving traffic (the clock origin moves).
    pub fn attach_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.clock = *recorder.clock();
        self.trace = Some(recorder);
    }

    /// Number of namespace shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Participants admitted per key-epoch.
    pub fn capacity(&self) -> usize {
        self.layout.capacity()
    }

    /// Ceiling on live keys across all shards.
    pub fn max_keys(&self) -> usize {
        self.max_keys
    }

    /// The algorithm backing every keyed object.
    pub fn backend(&self) -> Backend {
        self.layout.backend()
    }

    /// The admission lease, if reclamation is enabled.
    pub fn lease(&self) -> Option<Duration> {
        (self.lease_ns != 0).then(|| Duration::from_nanos(self.lease_ns))
    }

    /// Nanoseconds elapsed on the namespace's own clock. Saturates at
    /// `u64::MAX` (≈ 584 years of uptime).
    fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// The attached flight recorder, if any — only reclaim events are
    /// recorded *inside* the namespace; per-request events are the
    /// connection layer's job (it knows lanes and sampling).
    fn recorder(&self) -> Option<&FlightRecorder> {
        self.trace.as_deref().filter(|r| r.enabled())
    }

    fn shard_of(&self, key: &[u8]) -> &NsShard {
        &self.shards[(fnv1a(key) % self.shards.len() as u64) as usize].0
    }

    fn get_or_create(
        &self,
        shard: &NsShard,
        kind: Kind,
        key: &[u8],
    ) -> Result<Arc<Entry>, NsError> {
        if let Some(entry) = shard.map.read().unwrap().get(key).cloned() {
            return if entry.kind == kind {
                Ok(entry)
            } else {
                Err(NsError::KindMismatch {
                    existing: entry.kind,
                    requested: kind,
                })
            };
        }
        let mut map = shard.map.write().unwrap();
        if let Some(entry) = map.get(key) {
            // Lost the creation race; the other creator picked the kind.
            return if entry.kind == kind {
                Ok(Arc::clone(entry))
            } else {
                Err(NsError::KindMismatch {
                    existing: entry.kind,
                    requested: kind,
                })
            };
        }
        if self.key_count.load(Ordering::Relaxed) >= self.max_keys {
            return Err(NsError::KeyLimit {
                max_keys: self.max_keys,
            });
        }
        let entry = Arc::new(Entry::new(kind, self.layout));
        // Keys are never evicted, so accumulating registers at creation
        // keeps the counter equal to the sum over all live objects.
        shard
            .counters
            .registers
            .fetch_add(Entry::registers(kind, self.layout), Ordering::Relaxed);
        map.insert(key.into(), Arc::clone(&entry));
        self.key_count.fetch_add(1, Ordering::Relaxed);
        Ok(entry)
    }

    /// One arbitration operation on `key` (created at first contact
    /// with `kind` semantics): participate in the key's open epoch and
    /// return the verdict.
    pub fn acquire(
        &self,
        kind: Kind,
        key: &[u8],
        runner: &mut NativeRunner,
    ) -> Result<Acquired, NsError> {
        // Read the clock only when a lease is armed: the disabled path
        // stays clock-free (and allocation-free — see tests/alloc_steady).
        let now_ns = if self.lease_ns != 0 { self.now_ns() } else { 0 };
        let key_hash = fnv1a(key);
        let shard = &self.shards[(key_hash % self.shards.len() as u64) as usize].0;
        Ok(self.get_or_create(shard, kind, key)?.acquire(
            self.layout,
            &shard.counters,
            runner,
            now_ns,
            self.lease_ns,
            key_hash,
            self.recorder(),
        ))
    }

    /// Recycle `key`'s object for its next epoch (the resolution ack).
    /// Returns the newly opened epoch, or `None` if the key does not
    /// exist. Waits for the in-flight operations of the epoch being
    /// retired; admission re-opens only after the allocation-free reset
    /// is published (release/acquire — see the [module docs](self)).
    pub fn reset(&self, key: &[u8]) -> Option<u64> {
        self.reset_ack(key).map(|(epoch, _)| epoch)
    }

    /// [`Namespace::reset`], also saying whether this ack opened the
    /// returned epoch. It did not when the open epoch had no
    /// admissions — a lease reclaim or an earlier ack already opened
    /// it — and the ack was an idempotent no-op.
    pub(crate) fn reset_ack(&self, key: &[u8]) -> Option<(u64, bool)> {
        let shard = self.shard_of(key);
        let entry = shard.map.read().unwrap().get(key).cloned()?;
        Some(entry.recycle(&shard.counters))
    }

    /// Aggregate counters over every shard — lock-free: a handful of
    /// relaxed atomic loads per shard plus the global key count, so a
    /// `STATS` request never blocks behind (or stalls) the arbitration
    /// hot path. The snapshot is not atomic across counters: under
    /// concurrent traffic, individual counters may be skewed by the
    /// operations in flight, which is the usual (and here acceptable)
    /// monitoring-read semantics. The connection gauges
    /// ([`SvcStats::conns`], [`SvcStats::refused`]) are left zero —
    /// only the server's accept loop knows them.
    pub fn stats(&self) -> SvcStats {
        let mut stats = SvcStats {
            keys: self.key_count.load(Ordering::Relaxed) as u64,
            ..SvcStats::default()
        };
        for shard in &self.shards {
            let c = &shard.0.counters;
            stats.ops += c.ops.load(Ordering::Relaxed);
            stats.wins += c.wins.load(Ordering::Relaxed);
            stats.resets += c.resets.load(Ordering::Relaxed);
            stats.registers += c.registers.load(Ordering::Relaxed);
            stats.reclaimed += c.reclaimed.load(Ordering::Relaxed);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_key_wins_then_loses_until_reset() {
        let ns = Namespace::new(Backend::LogStar, 2, 4);
        let mut runner = NativeRunner::new();
        let first = ns.acquire(Kind::Tas, b"job/1", &mut runner).unwrap();
        assert!(first.won);
        assert_eq!(first.epoch, 0);
        for _ in 0..6 {
            // Losses both under and over capacity.
            assert!(!ns.acquire(Kind::Tas, b"job/1", &mut runner).unwrap().won);
        }
        assert_eq!(ns.reset(b"job/1"), Some(1));
        let next = ns.acquire(Kind::Tas, b"job/1", &mut runner).unwrap();
        assert!(next.won, "fresh epoch after reset");
        assert_eq!(next.epoch, 1);
    }

    #[test]
    fn elect_and_tas_kinds_do_not_mix_on_one_key() {
        let ns = Namespace::new(Backend::Combined, 1, 2);
        let mut runner = NativeRunner::new();
        assert!(ns.acquire(Kind::Elect, b"leader", &mut runner).unwrap().won);
        let err = ns.acquire(Kind::Tas, b"leader", &mut runner).unwrap_err();
        assert_eq!(
            err,
            NsError::KindMismatch {
                existing: Kind::Elect,
                requested: Kind::Tas
            }
        );
        assert!(err.to_string().contains("kind mismatch"));
        // Distinct keys are independent.
        assert!(ns.acquire(Kind::Tas, b"bit", &mut runner).unwrap().won);
    }

    #[test]
    fn reset_on_missing_key_is_a_noop() {
        let ns = Namespace::new(Backend::LogStar, 4, 1);
        assert_eq!(ns.reset(b"nothing"), None);
        assert_eq!(ns.stats(), SvcStats::default());
    }

    #[test]
    fn over_capacity_arrivals_lose_without_entering() {
        let ns = Namespace::new(Backend::LogStar, 1, 1);
        let mut runner = NativeRunner::new();
        assert!(ns.acquire(Kind::Tas, b"k", &mut runner).unwrap().won);
        // Capacity 1: every further acquire this epoch is turned away at
        // the gate (the one-shot object is never over-subscribed).
        for _ in 0..100 {
            assert!(!ns.acquire(Kind::Tas, b"k", &mut runner).unwrap().won);
        }
        assert_eq!(ns.reset(b"k"), Some(1));
        assert!(ns.acquire(Kind::Tas, b"k", &mut runner).unwrap().won);
    }

    #[test]
    fn stats_aggregate_ops_wins_and_resets() {
        let ns = Namespace::new(Backend::LogStar, 2, 2);
        let mut runner = NativeRunner::new();
        for epoch in 0..5u64 {
            for key in [&b"a"[..], &b"b"[..]] {
                let a = ns.acquire(Kind::Tas, key, &mut runner).unwrap();
                assert!(a.won);
                assert_eq!(a.epoch, epoch);
                assert!(!ns.acquire(Kind::Tas, key, &mut runner).unwrap().won);
                ns.reset(key).unwrap();
            }
        }
        let stats = ns.stats();
        assert_eq!(stats.keys, 2);
        assert_eq!(stats.ops, 20);
        assert_eq!(stats.wins, 10);
        assert_eq!(stats.resets, 10);
        assert!(stats.registers > 0);
    }

    #[test]
    fn concurrent_acquires_have_exactly_one_winner_per_epoch() {
        let threads = 8;
        let epochs = 30u64;
        let ns = Namespace::new(Backend::Combined, 2, threads);
        let wins: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let ns = &ns;
                    s.spawn(move || {
                        let mut runner = NativeRunner::new();
                        let mut wins = 0u64;
                        for _ in 0..epochs {
                            let a = ns.acquire(Kind::Tas, b"contended", &mut runner).unwrap();
                            wins += a.won as u64;
                            if a.won {
                                // The winner acks and recycles.
                                ns.reset(b"contended").unwrap();
                            }
                        }
                        wins
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        // Winner-led resets: each thread's sequence of acquires spans at
        // least `epochs` epochs in total, and every completed epoch had
        // exactly one winner (wins == resets performed).
        let stats = ns.stats();
        assert_eq!(wins, stats.wins);
        assert_eq!(stats.wins, stats.resets, "one winner acked per epoch");
        assert_eq!(stats.ops, threads as u64 * epochs);
    }

    #[test]
    fn keys_spread_across_shards() {
        let ns = Namespace::new(Backend::LogStar, 8, 1);
        let mut runner = NativeRunner::new();
        for i in 0..64u32 {
            let key = format!("key/{i}");
            ns.acquire(Kind::Tas, key.as_bytes(), &mut runner).unwrap();
        }
        let occupied = ns
            .shards
            .iter()
            .filter(|s| !s.0.map.read().unwrap().is_empty())
            .count();
        assert!(occupied >= 4, "64 keys landed on only {occupied}/8 shards");
        assert_eq!(ns.stats().keys, 64);
    }

    #[test]
    fn key_limit_refuses_creation_but_not_existing_keys() {
        let ns = Namespace::with_max_keys(Backend::LogStar, 2, 1, 2);
        assert_eq!(ns.max_keys(), 2);
        let mut runner = NativeRunner::new();
        assert!(ns.acquire(Kind::Tas, b"a", &mut runner).unwrap().won);
        assert!(ns.acquire(Kind::Tas, b"b", &mut runner).unwrap().won);
        let err = ns.acquire(Kind::Tas, b"c", &mut runner).unwrap_err();
        assert_eq!(err, NsError::KeyLimit { max_keys: 2 });
        assert!(err.to_string().contains("key limit"));
        // Existing keys keep working at the ceiling.
        assert!(!ns.acquire(Kind::Tas, b"a", &mut runner).unwrap().won);
        ns.reset(b"a").unwrap();
        assert!(ns.acquire(Kind::Tas, b"a", &mut runner).unwrap().won);
        assert_eq!(ns.stats().keys, 2);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = Namespace::new(Backend::LogStar, 0, 1);
    }

    #[test]
    fn expired_lease_reclaims_an_unacked_epoch() {
        // Long enough that the two back-to-back arrivals at the end
        // never straddle a lease, even on a loaded host.
        let lease = Duration::from_millis(100);
        let ns = Namespace::with_lease(Backend::Combined, 1, 2, 16, Some(lease));
        assert_eq!(ns.lease(), Some(lease));
        let mut runner = NativeRunner::new();
        // A holder wins epoch 0 and then vanishes without a RESET. The
        // epoch is not full: capacity 2, one admission.
        assert!(ns.acquire(Kind::Tas, b"k", &mut runner).unwrap().won);
        assert_eq!(ns.stats().reclaimed, 0);
        std::thread::sleep(lease * 2);
        // The next arrival retires the stranded epoch instead of joining
        // it, and wins the NEXT epoch — the reclaimed epoch's winner is
        // never duplicated.
        let a = ns.acquire(Kind::Tas, b"k", &mut runner).unwrap();
        assert!(a.won, "arrival after lease expiry lands in the fresh epoch");
        assert_eq!(a.epoch, 1);
        let stats = ns.stats();
        assert_eq!(stats.reclaimed, 1);
        assert_eq!(stats.resets, 1, "a reclamation is a reset");
        // Counted once: epoch 1's lease has not expired, so the next
        // arrival joins it (and loses) without reclaiming anything.
        let b = ns.acquire(Kind::Tas, b"k", &mut runner).unwrap();
        assert!(!b.won);
        assert_eq!(b.epoch, 1);
        assert_eq!(ns.stats().reclaimed, 1);
    }

    #[test]
    fn reclamations_land_on_the_recorder_reclaim_lane() {
        let lease = Duration::from_millis(2);
        let mut ns = Namespace::with_lease(Backend::Combined, 2, 2, 16, Some(lease));
        let recorder = Arc::new(FlightRecorder::new(rtas_obs::TraceMode::On, 0));
        ns.attach_recorder(Arc::clone(&recorder));
        let mut runner = NativeRunner::new();
        assert!(ns.acquire(Kind::Tas, b"gone", &mut runner).unwrap().won);
        std::thread::sleep(lease * 4);
        let a = ns.acquire(Kind::Tas, b"gone", &mut runner).unwrap();
        assert_eq!((a.won, a.epoch), (true, 1));
        let events = recorder.snapshot();
        let reclaims: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::LeaseReclaim as u32)
            .collect();
        assert_eq!(reclaims.len(), 1);
        assert_eq!(reclaims[0].lane, 1, "reclaim lane");
        assert_eq!(reclaims[0].b, 0, "epoch 0 was retired");
        assert_eq!(reclaims[0].c, fnv1a(b"gone"));
        assert_eq!(ns.stats().reclaimed, 1);
    }

    #[test]
    fn idle_keys_are_never_reclaimed() {
        let lease = Duration::from_millis(1);
        let ns = Namespace::with_lease(Backend::LogStar, 2, 1, 16, Some(lease));
        let mut runner = NativeRunner::new();
        assert!(ns.acquire(Kind::Tas, b"k", &mut runner).unwrap().won);
        ns.reset(b"k").unwrap();
        // The open epoch has zero admissions: no lease, ever — even a
        // stale deadline from the retired epoch must not fire when the
        // next arrival comes long after it.
        std::thread::sleep(lease * 4);
        let a = ns.acquire(Kind::Tas, b"k", &mut runner).unwrap();
        assert_eq!((a.won, a.epoch), (true, 1));
        let stats = ns.stats();
        assert_eq!(stats.reclaimed, 0);
        assert_eq!(stats.resets, 1, "only the client's ack recycled");
    }

    #[test]
    fn duplicate_reset_ack_is_a_noop_on_a_zero_admission_epoch() {
        let ns = Namespace::new(Backend::Combined, 1, 4);
        let mut runner = NativeRunner::new();
        assert!(ns.acquire(Kind::Tas, b"k", &mut runner).unwrap().won);
        assert_eq!(ns.reset(b"k"), Some(1));
        // Byzantine duplicate acks: the open epoch has no admissions, so
        // each replay returns the open epoch unchanged instead of
        // burning it.
        assert_eq!(ns.reset(b"k"), Some(1));
        assert_eq!(ns.reset(b"k"), Some(1));
        let a = ns.acquire(Kind::Tas, b"k", &mut runner).unwrap();
        assert!(a.won);
        assert_eq!(a.epoch, 1);
        assert_eq!(ns.stats().resets, 1);
    }

    #[test]
    fn full_epoch_heals_lazily_under_traffic() {
        let lease = Duration::from_millis(5);
        let ns = Namespace::with_lease(Backend::Combined, 1, 1, 16, Some(lease));
        let mut runner = NativeRunner::new();
        // Capacity 1: the holder wedges the key at a full gate.
        assert!(ns.acquire(Kind::Tas, b"k", &mut runner).unwrap().won);
        assert!(!ns.acquire(Kind::Tas, b"k", &mut runner).unwrap().won);
        std::thread::sleep(lease * 4);
        // Plain traffic finds the lease expired, reclaims inline, and is
        // admitted into (and wins) the fresh epoch.
        let a = ns.acquire(Kind::Tas, b"k", &mut runner).unwrap();
        assert!(a.won, "arrival after lease expiry heals the key inline");
        assert_eq!(a.epoch, 1);
        assert_eq!(ns.stats().reclaimed, 1);
    }

    #[test]
    fn reclaim_waits_for_in_flight_admissions() {
        // A reclamation must quiesce exactly like a client reset: expire
        // epochs while contenders are mid-protocol and verify win
        // accounting stays exact.
        let lease = Duration::from_millis(2);
        let threads = 4;
        let rounds = 25u64;
        let ns = Namespace::with_lease(Backend::Combined, 2, threads, 64, Some(lease));
        let ns = &ns;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(move || {
                    let mut runner = NativeRunner::new();
                    for _ in 0..rounds {
                        // Win or lose, never ack: only arrivals past the
                        // lease recycle.
                        let _ = ns.acquire(Kind::Tas, b"leaky", &mut runner).unwrap();
                        std::thread::sleep(Duration::from_micros(200));
                    }
                });
            }
        });
        // Traffic stopped: let the last open epoch's lease run out. One
        // more arrival retires it, wins the fresh epoch, and acks it, so
        // every admitted epoch is retired.
        std::thread::sleep(lease * 4);
        let mut runner = NativeRunner::new();
        assert!(ns.acquire(Kind::Tas, b"leaky", &mut runner).unwrap().won);
        ns.reset(b"leaky").unwrap();
        let stats = ns.stats();
        assert!(stats.reclaimed > 0, "leaked epochs were reclaimed");
        assert_eq!(
            stats.wins, stats.resets,
            "every retired epoch had exactly one winner"
        );
        assert_eq!(stats.ops, threads as u64 * rounds + 1);
    }
}
