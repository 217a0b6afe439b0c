//! Keyed arbitration namespaces: one epoch-recycled object per key.
//!
//! A [`Namespace`] maps byte-string keys to recyclable arbitration
//! objects — test-and-set or leader-election semantics over one shared
//! [`Layout`]. Keys hash (FNV-1a) to **shards**, each in its own pair of
//! cache lines. A shard finds its keys in an append-only
//! open-addressing table that lookups read without a lock; only the
//! creation of a key takes the shard's mutex. Traffic on unrelated keys
//! never contends on a lock or false-shares a header, and traffic on one
//! key shares only the cache lines its epoch gate and its object write.
//!
//! ## The op path
//!
//! Once a key exists, one `TAS` or `ELECT` writes shared memory only
//! where arbitration needs it:
//!
//! * the lookup writes nothing: it compares the hashes stored in the
//!   shard's table and dereferences an entry only when its hash
//!   matches. Entries live as long as the namespace, so the lookup
//!   returns a plain `&Entry`, with no refcount;
//! * the admission CAS on the key's gate word (below), whose index in
//!   the epoch is the caller's election slot;
//! * the protocol's own register writes, if the caller elects;
//! * one store of the key's bit, if it loses the election;
//! * the `finished` increment that lets a reset see the epoch quiesce.
//!
//! Op and win counts are not on that list. [`Namespace::acquire`] adds
//! each call to one namespace-wide pair of counters; a connection
//! tallies its own calls and adds the tally once per burst, and before
//! it answers `STATS` or `METRICS`.
//!
//! ## The doorway
//!
//! Both kinds run the paper's TAS-from-LE construction (Preliminaries)
//! through [`Layout::test_and_set_slot`]: read the key's bit, elect, and
//! set the bit on a loss. A caller that reads the bit set loses without
//! electing, so an `ELECT` that arrives after a loser of its epoch has
//! finished costs one read instead of an election. At most one winner
//! per key-epoch still holds, for `ELECT` as for `TAS`: only a caller
//! that completed the election and lost sets the bit, so the bit is set
//! only once the election's winner is someone else, and a caller turned
//! away at the bit is one more loser behind that winner. Every caller
//! that elects is one of the election's at most `capacity`
//! participants, so when all of them complete exactly one wins.
//!
//! ## Epochs
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
//!   fast path of [`rtas::TestAndSet::test_and_set`]). The entered count
//!   before the CAS is the operation's slot: an epoch's first admission
//!   elects in slot 0, the slot a layout packs the registers of solo
//!   epochs for;
//! * admitted operations run the doorway and then bump a `finished`
//!   counter with release ordering;
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

use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
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
    /// Leader election: winner = the elected leader. It runs behind the
    /// same bit as a test-and-set (see [the doorway](self#the-doorway)):
    /// a call that finds the bit set loses without electing, and a key
    /// of either kind declares the leader election's registers plus the
    /// bit. The two kinds differ only in name, which first contact fixes.
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
    /// Admitted into `epoch` as its `slot`-th participant (from 0); the
    /// caller must run the protocol in that slot and then call
    /// [`EpochGate::finish`].
    Admitted { epoch: u64, slot: usize },
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
                    slot: (w & ENTERED_MASK) as usize,
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

/// One key: its bytes and kind, its recyclable object's registers and
/// counters (run through the namespace's shared [`Layout`]) and its
/// epoch gate. Cumulative counters live on the key's *shard*
/// (`ShardCounters`) or the namespace, not the entry — `stats()` then
/// reads a handful of atomics instead of walking every key.
struct Entry {
    key: Box<[u8]>,
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
    fn new(key: &[u8], kind: Kind, layout: &Layout) -> Self {
        Entry {
            key: key.into(),
            kind,
            object: layout.state(),
            gate: EpochGate::new(),
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
                Admission::Admitted { epoch, slot } => {
                    let won = !layout.test_and_set_slot(&self.object, runner, slot);
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

/// Per-shard cumulative counters, bumped off the op path (by key
/// creation, resets and reclamations) and read with relaxed snapshot
/// loads in [`Namespace::stats`]. A `STATS` request therefore never
/// takes a lock and never stalls a TAS/ELECT. Every epoch advance
/// (client ack or lease reclamation) bumps `resets`, so `resets` equals
/// the sum of all live keys' epochs.
#[derive(Debug, Default)]
struct ShardCounters {
    resets: AtomicU64,
    registers: AtomicU64,
    reclaimed: AtomicU64,
}

/// The namespace's op and win counters, on cache lines of their own:
/// a publication never invalidates the read-mostly fields every op
/// loads.
#[derive(Debug, Default)]
struct OpCounters {
    ops: AtomicU64,
    wins: AtomicU64,
}

/// Ops and wins a caller has counted but not yet added to its
/// namespace's counters ([`Namespace::publish`]).
#[derive(Debug, Default)]
pub(crate) struct Tally {
    ops: u64,
    wins: u64,
}

/// Slots of a shard's first table: room for 6 keys at the 3/4 load
/// limit.
const FIRST_TABLE_BITS: u32 = 3;

/// One slot of a shard's key table. Empty while `hash` reads 0; the
/// creator stores `entry` and then `hash`, with release ordering, and
/// neither changes again.
#[derive(Debug, Default)]
struct Slot {
    /// The key's hash, with 0 stored as 1 (see [`stored_hash`]).
    hash: AtomicU64,
    entry: AtomicPtr<Entry>,
}

/// A hash as a table slot stores it: 0 marks an empty slot, so a hash
/// of 0 is stored as 1. Two keys that then compare equal are told apart
/// by their bytes, like any other hash collision.
fn stored_hash(hash: u64) -> u64 {
    hash.max(1)
}

/// An append-only open-addressing table of a power of two of slots,
/// probed linearly. A probe starts at the slot named by the hash's top
/// bits: the shard choice (hash modulo the shard count) reads the low
/// ones for a power-of-two count, so the keys of one shard still spread
/// over its table.
#[derive(Debug)]
struct Table {
    /// Log2 of the slot count.
    bits: u32,
    slots: Box<[Slot]>,
}

impl Table {
    fn new(bits: u32) -> Table {
        Table {
            bits,
            slots: (0..1usize << bits).map(|_| Slot::default()).collect(),
        }
    }

    /// The slot a probe for `hash` starts at.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.bits)) as usize
    }

    /// The slot a probe visits after slot `i`.
    fn next(&self, i: usize) -> usize {
        (i + 1) & (self.slots.len() - 1)
    }

    /// The entry of `key`, whose stored hash is `hash`. The table is
    /// never full, so the probe ends at an empty slot if not before.
    fn find(&self, hash: u64, key: &[u8]) -> Option<&Entry> {
        let mut i = self.home(hash);
        loop {
            let slot = &self.slots[i];
            match slot.hash.load(Ordering::Acquire) {
                0 => return None,
                h if h == hash => {
                    // SAFETY: the acquire load above read the hash the
                    // creator stored after the entry, so it sees the
                    // entry's pointer and the entry behind it. Entries
                    // are not freed before the namespace drops.
                    let entry = unsafe { &*slot.entry.load(Ordering::Relaxed) };
                    if *entry.key == *key {
                        return Some(entry);
                    }
                }
                _ => {}
            }
            i = self.next(i);
        }
    }

    /// Put `entry` in the first empty slot of `hash`'s probe. Only the
    /// holder of the shard's creation lock inserts.
    fn insert(&self, hash: u64, entry: *mut Entry) {
        let mut i = self.home(hash);
        while self.slots[i].hash.load(Ordering::Relaxed) != 0 {
            i = self.next(i);
        }
        self.slots[i].entry.store(entry, Ordering::Relaxed);
        self.slots[i].hash.store(hash, Ordering::Release);
    }

    /// Whether `keys` keys would load the table past 3/4.
    fn overloaded_by(&self, keys: usize) -> bool {
        keys * 4 > self.slots.len() * 3
    }
}

/// What a shard's creation lock guards: every entry of the shard and
/// every table it has published, the current one last. They stay
/// allocated until the namespace drops, because a lookup may still hold
/// an entry or probe a retired table.
#[derive(Debug, Default)]
struct Owned {
    /// Leaked boxes, in creation order.
    entries: Vec<NonNull<Entry>>,
    /// Leaked boxes, the current table last.
    tables: Vec<NonNull<Table>>,
}

// SAFETY: `Owned` is the only owner of the boxes its pointers came
// from, and `Entry` and `Table` are `Send`.
unsafe impl Send for Owned {}

impl Drop for Owned {
    fn drop(&mut self) {
        // SAFETY: each pointer is a leaked box, listed once; the
        // namespace is being dropped, so no lookup holds one.
        unsafe {
            for entry in self.entries.drain(..) {
                drop(Box::from_raw(entry.as_ptr()));
            }
            for table in self.tables.drain(..) {
                drop(Box::from_raw(table.as_ptr()));
            }
        }
    }
}

#[derive(Debug)]
struct NsShard {
    /// The current table; null until the shard's first key.
    table: AtomicPtr<Table>,
    /// Serializes key creation.
    owned: Mutex<Owned>,
    counters: ShardCounters,
}

impl NsShard {
    fn new() -> Self {
        NsShard {
            table: AtomicPtr::new(std::ptr::null_mut()),
            owned: Mutex::new(Owned::default()),
            counters: ShardCounters::default(),
        }
    }

    /// The entry of `key` (hashed to `hash`), without a lock and
    /// without a write.
    fn find(&self, hash: u64, key: &[u8]) -> Option<&Entry> {
        // SAFETY: a non-null pointer is a table `insert` published with
        // a release store; tables are never freed before the shard.
        let table = unsafe { self.table.load(Ordering::Acquire).as_ref() }?;
        table.find(stored_hash(hash), key)
    }

    /// Add `entry` under `hash`, growing the table first if it would
    /// pass 3/4 load. The caller holds the creation lock as `owned`.
    fn insert(&self, owned: &mut Owned, hash: u64, entry: Entry) -> &Entry {
        let entry = NonNull::from(Box::leak(Box::new(entry)));
        owned.entries.push(entry);
        let hash = stored_hash(hash);
        // SAFETY: tables live until the shard drops.
        let current = owned.tables.last().map(|t| unsafe { t.as_ref() });
        match current {
            Some(table) if !table.overloaded_by(owned.entries.len()) => {
                table.insert(hash, entry.as_ptr());
            }
            _ => {
                // Double the table from the stored hashes, then publish
                // it whole with one release store.
                let grown = Table::new(current.map_or(FIRST_TABLE_BITS, |t| t.bits + 1));
                for slot in current.iter().flat_map(|t| t.slots.iter()) {
                    let old = slot.hash.load(Ordering::Relaxed);
                    if old != 0 {
                        grown.insert(old, slot.entry.load(Ordering::Relaxed));
                    }
                }
                grown.insert(hash, entry.as_ptr());
                let grown = NonNull::from(Box::leak(Box::new(grown)));
                owned.tables.push(grown);
                self.table.store(grown.as_ptr(), Ordering::Release);
            }
        }
        // SAFETY: `owned` frees the entry only when the shard drops.
        unsafe { entry.as_ref() }
    }
}

/// The sharded keyed namespace. See the [module docs](self).
#[derive(Debug)]
pub struct Namespace {
    shards: Vec<CachePadded<NsShard>>,
    /// The one layout every key's object shares.
    layout: &'static Layout,
    max_keys: usize,
    /// Live keys across all shards (maintained under the shards'
    /// creation locks, read lock-free by the admission check — the
    /// ceiling may overshoot by at most one in-flight creation per
    /// shard).
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
    /// Published op and win counts ([`Namespace::publish`]).
    counts: CachePadded<OpCounters>,
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
    /// `capacity` participants per epoch, striped over `shards` shards.
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
            shards: (0..shards).map(|_| CachePadded(NsShard::new())).collect(),
            layout: Layout::shared(backend, capacity),
            max_keys,
            key_count: AtomicUsize::new(0),
            lease_ns,
            clock: MonotonicClock::new(),
            trace: None,
            counts: CachePadded::default(),
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

    /// `key`'s hash and the shard it belongs to.
    fn locate(&self, key: &[u8]) -> (u64, &NsShard) {
        let hash = fnv1a(key);
        (
            hash,
            &self.shards[(hash % self.shards.len() as u64) as usize].0,
        )
    }

    /// `key`'s entry, created with `kind` at first contact.
    fn get_or_create<'s>(
        &self,
        shard: &'s NsShard,
        hash: u64,
        kind: Kind,
        key: &[u8],
    ) -> Result<&'s Entry, NsError> {
        let entry = match shard.find(hash, key) {
            Some(entry) => entry,
            None => self.create(shard, hash, kind, key)?,
        };
        if entry.kind == kind {
            Ok(entry)
        } else {
            Err(NsError::KindMismatch {
                existing: entry.kind,
                requested: kind,
            })
        }
    }

    /// Create `key` with `kind` under its shard's creation lock — or
    /// return the entry a racing creator made first, whatever its kind.
    fn create<'s>(
        &self,
        shard: &'s NsShard,
        hash: u64,
        kind: Kind,
        key: &[u8],
    ) -> Result<&'s Entry, NsError> {
        // Each step below leaves the shard valid (at worst an entry no
        // table lists), so a panic while the lock was held poisons
        // nothing.
        let mut owned = shard.owned.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = shard.find(hash, key) {
            return Ok(entry);
        }
        if self.key_count.load(Ordering::Relaxed) >= self.max_keys {
            return Err(NsError::KeyLimit {
                max_keys: self.max_keys,
            });
        }
        let entry = shard.insert(&mut owned, hash, Entry::new(key, kind, self.layout));
        // Keys are never evicted, so accumulating registers at creation
        // keeps the counter equal to the sum over all live objects.
        shard
            .counters
            .registers
            .fetch_add(self.layout.tas_registers(), Ordering::Relaxed);
        self.key_count.fetch_add(1, Ordering::Relaxed);
        Ok(entry)
    }

    /// One arbitration operation on `key` (created at first contact
    /// with `kind` semantics): participate in the key's open epoch and
    /// return the verdict. Adds the call to the namespace's op and win
    /// counters.
    pub fn acquire(
        &self,
        kind: Kind,
        key: &[u8],
        runner: &mut NativeRunner,
    ) -> Result<Acquired, NsError> {
        let mut tally = Tally::default();
        let acquired = self.acquire_into(kind, key, runner, &mut tally);
        self.publish(&mut tally);
        acquired
    }

    /// [`Namespace::acquire`], counting the call into `tally` instead of
    /// the namespace's counters.
    pub(crate) fn acquire_into(
        &self,
        kind: Kind,
        key: &[u8],
        runner: &mut NativeRunner,
        tally: &mut Tally,
    ) -> Result<Acquired, NsError> {
        // Read the clock only when a lease is armed: the disabled path
        // stays clock-free (and allocation-free — see tests/alloc_steady).
        let now_ns = if self.lease_ns != 0 { self.now_ns() } else { 0 };
        let (hash, shard) = self.locate(key);
        let acquired = self.get_or_create(shard, hash, kind, key)?.acquire(
            self.layout,
            &shard.counters,
            runner,
            now_ns,
            self.lease_ns,
            hash,
            self.recorder(),
        );
        tally.ops += 1;
        tally.wins += u64::from(acquired.won);
        Ok(acquired)
    }

    /// Add `tally` to the namespace's op and win counters, and clear it.
    /// An empty tally writes nothing.
    pub(crate) fn publish(&self, tally: &mut Tally) {
        if tally.ops != 0 {
            self.counts.0.ops.fetch_add(tally.ops, Ordering::Relaxed);
            if tally.wins != 0 {
                self.counts.0.wins.fetch_add(tally.wins, Ordering::Relaxed);
            }
            *tally = Tally::default();
        }
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
        let (hash, shard) = self.locate(key);
        Some(shard.find(hash, key)?.recycle(&shard.counters))
    }

    /// Aggregate counters — lock-free: a handful of relaxed atomic
    /// loads per shard plus the namespace's key, op and win counts, so
    /// a `STATS` request never blocks behind (or stalls) the
    /// arbitration hot path. The snapshot is not atomic across
    /// counters: under concurrent traffic, individual counters may be
    /// skewed by the operations in flight, and `ops` and `wins` leave
    /// out the calls a connection has tallied but not yet published
    /// (those of a burst it is still executing). That is the usual (and
    /// here acceptable) monitoring-read semantics. The connection gauges
    /// ([`SvcStats::conns`], [`SvcStats::refused`]) are left zero —
    /// only the server's accept loop knows them.
    pub fn stats(&self) -> SvcStats {
        let mut stats = SvcStats {
            keys: self.key_count.load(Ordering::Relaxed) as u64,
            ops: self.counts.0.ops.load(Ordering::Relaxed),
            wins: self.counts.0.wins.load(Ordering::Relaxed),
            ..SvcStats::default()
        };
        for shard in &self.shards {
            let c = &shard.0.counters;
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
    use std::sync::atomic::AtomicBool;

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
        for kind in [Kind::Tas, Kind::Elect] {
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
                                let a = ns.acquire(kind, b"contended", &mut runner).unwrap();
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
            // Winner-led resets: each thread's sequence of acquires spans
            // at least `epochs` epochs in total, and every completed epoch
            // had exactly one winner (wins == resets performed).
            let stats = ns.stats();
            assert_eq!(wins, stats.wins, "{kind:?}");
            assert_eq!(
                stats.wins, stats.resets,
                "{kind:?}: one winner acked per epoch"
            );
            assert_eq!(stats.ops, threads as u64 * epochs, "{kind:?}");
        }
    }

    #[test]
    fn elects_after_a_finished_loss_lose_at_the_doorway() {
        // One hot-elect epoch: 64 ELECTs of one key, 32 from each of two
        // threads, with no reset in between.
        let per_thread = 32;
        let ns = Namespace::new(Backend::Combined, 1, 2 * per_thread);
        let a_loss_finished = AtomicBool::new(false);
        let threads: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut runner = NativeRunner::new();
                        let (mut wins, mut steps, mut elections) = (0, 0, 0);
                        for _ in 0..per_thread {
                            let late = a_loss_finished.load(Ordering::SeqCst);
                            let a = ns.acquire(Kind::Elect, b"hot", &mut runner).unwrap();
                            assert_eq!(a.epoch, 0);
                            if late {
                                assert_eq!(
                                    runner.steps(),
                                    0,
                                    "an ELECT that started after a loss finished elected"
                                );
                            }
                            if !a.won {
                                a_loss_finished.store(true, Ordering::SeqCst);
                            }
                            wins += u64::from(a.won);
                            steps += runner.steps();
                            elections += u64::from(runner.steps() > 0);
                        }
                        (wins, steps, elections)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let sum = |f: fn(&(u64, u64, u64)) -> u64| threads.iter().map(f).sum::<u64>();
        assert_eq!(sum(|t| t.0), 1, "one winner in the epoch");
        // A thread elects at most twice: a win and then a loss, or one
        // loss. Its later ELECTs start after its own loss finished.
        assert!(sum(|t| t.2) <= 4, "{} of 64 ELECTs elected", sum(|t| t.2));
        assert!(sum(|t| t.1) > 0);
        let stats = ns.stats();
        assert_eq!((stats.ops, stats.wins), (64, 1));
        assert_eq!(
            stats.registers,
            ns.layout.tas_registers(),
            "an ELECT key counts the bit"
        );
        eprintln!(
            "register steps in one 64-ELECT epoch: {} ({} elections)",
            sum(|t| t.1),
            sum(|t| t.2)
        );
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
            .filter(|s| !s.0.table.load(Ordering::Relaxed).is_null())
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

    /// Keys `0..n`, each `key/<i>`.
    fn fresh_keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("key/{i}").into_bytes()).collect()
    }

    #[test]
    fn racing_creators_share_every_key_through_table_growth() {
        // About 256 keys per shard: a first table of 8 slots doubles six
        // times to hold them.
        let (threads, shards, n) = (4, 2, 512);
        let ns = Namespace::new(Backend::LogStar, shards, threads);
        let keys = fresh_keys(n);
        let wins: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (ns, keys, wins, start) = (&ns, &keys, &wins, &start);
                s.spawn(move || {
                    let mut runner = NativeRunner::new();
                    start.wait();
                    // Thread t touches the half of the keys that starts
                    // at its own quarter, so every key has two creators
                    // racing for it, from different directions.
                    for j in 0..n / 2 {
                        let i = if t % 2 == 0 {
                            (t * n / 4 + j) % n
                        } else {
                            (t * n / 4 + n / 2 - 1 - j) % n
                        };
                        let a = ns.acquire(Kind::Tas, &keys[i], &mut runner).unwrap();
                        assert_eq!(a.epoch, 0);
                        wins[i].fetch_add(u64::from(a.won), Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(ns.stats().keys, n as u64);
        assert_eq!(ns.stats().ops, (threads * n / 2) as u64);
        for (i, w) in wins.iter().enumerate() {
            assert_eq!(w.load(Ordering::Relaxed), 1, "key/{i}: one winner");
        }
        for (i, shard) in ns.shards.iter().enumerate() {
            let tables = shard.0.owned.lock().unwrap().tables.len();
            assert!(tables >= 4, "shard {i} grew only {} times", tables - 1);
        }
        // Every key is found again, in its first epoch, by a fresh caller.
        let mut runner = NativeRunner::new();
        for key in &keys {
            assert_eq!(ns.reset(key), Some(1));
            assert!(ns.acquire(Kind::Tas, key, &mut runner).unwrap().won);
        }
        assert_eq!(ns.stats().keys, n as u64);
    }

    #[test]
    fn a_tas_and_an_elect_racing_for_a_fresh_key_agree_on_its_kind() {
        let n = 256;
        let ns = Namespace::new(Backend::LogStar, 2, 2);
        let keys = fresh_keys(n);
        let start = std::sync::Barrier::new(2);
        let racer = |kind: Kind| {
            let (ns, keys, start) = (&ns, &keys, &start);
            move || {
                let mut runner = NativeRunner::new();
                start.wait();
                keys.iter()
                    .map(|key| ns.acquire(kind, key, &mut runner))
                    .collect::<Vec<_>>()
            }
        };
        let (tas, elect) = std::thread::scope(|s| {
            let tas = s.spawn(racer(Kind::Tas));
            let elect = s.spawn(racer(Kind::Elect));
            (tas.join().unwrap(), elect.join().unwrap())
        });
        for (i, (t, e)) in tas.iter().zip(&elect).enumerate() {
            let (created, refused) = match (t, e) {
                (Ok(a), Err(err)) => ((Kind::Tas, a), (Kind::Elect, err)),
                (Err(err), Ok(a)) => ((Kind::Elect, a), (Kind::Tas, err)),
                other => panic!("key/{i}: {other:?}"),
            };
            assert!(created.1.won, "key/{i}: the creator is alone in the epoch");
            assert_eq!(
                *refused.1,
                NsError::KindMismatch {
                    existing: created.0,
                    requested: refused.0
                },
                "key/{i}"
            );
        }
        assert_eq!(ns.stats().keys, n as u64);
    }
}
