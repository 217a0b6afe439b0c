//! The flight-recorder event vocabulary.
//!
//! Every recorded event is one 40-byte record: a ticket (ring order), a
//! timestamp from the recorder's [`rtas::MonotonicClock`], an
//! [`EventKind`] code packed with a 32-bit argument `a`, and two `u64`
//! payload words `b` and `c`. What the arguments mean is per-kind and
//! documented on each variant; the decoder renders them with per-kind
//! field names but carries unknown codes through untouched so old
//! decoders survive new kinds.

/// Which lane of the recorder an event is written to (and read from).
///
/// Accept-path and reclaim events go to their own small rings so a
/// flood of per-frame worker events can never overwrite them; each
/// reactor worker gets a private ring so recording never contends
/// across workers on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Listener/admission events.
    Accept,
    /// Lease-reclaim events: an arrival on an expired key-epoch retired
    /// it.
    Reclaim,
    /// Per-reactor-worker events (index = worker index).
    Worker(usize),
}

/// Stable numeric lane id used in dump files: `0` accept, `1` reclaim,
/// `2 + k` for worker `k`.
pub fn lane_id(lane: Lane) -> u32 {
    match lane {
        Lane::Accept => 0,
        Lane::Reclaim => 1,
        Lane::Worker(k) => 2u32.saturating_add(k as u32),
    }
}

/// Human name for a dump-file lane id: `accept`, `reclaim`,
/// `worker<k>`.
pub fn lane_name(id: u32) -> String {
    match id {
        0 => "accept".to_string(),
        1 => "reclaim".to_string(),
        k => format!("worker{}", k - 2),
    }
}

/// What happened. Codes are part of the dump-file format; add new kinds
/// at the end, never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum EventKind {
    /// A connection was accepted. `a` = live connections after the
    /// accept.
    Accept = 1,
    /// A connection was refused at the admission gate. `a` = live
    /// connections at the time.
    AdmissionRefusal = 2,
    /// A worker's poller returned. `a` = number of ready events.
    ReadinessWakeup = 3,
    /// A request frame was decoded. `a` = opcode, `b` = payload length.
    FrameDecoded = 4,
    /// The arbiter produced a verdict. `a` = 1 if the caller won,
    /// `b` = epoch, `c` = FNV-1a hash of the key.
    ArbiterVerdict = 5,
    /// A RESET ack retired an epoch. `b` = the epoch it opened, `c` =
    /// key hash. An ack that found nothing to retire records nothing.
    ResetAck = 6,
    /// An arrival found its key's lease expired and retired the epoch
    /// before being admitted into the next one. `b` = epoch that was
    /// torn down, `c` = key hash.
    LeaseReclaim = 7,
    /// A connection's send buffer filled; writable interest was armed.
    /// `a` = slab slot, `b` = buffered bytes.
    BackpressureOn = 8,
    /// A backpressured connection drained. `a` = slab slot.
    BackpressureOff = 9,
    /// A reactor worker's read-deadline sweep closed idle connections.
    /// `a` = connections closed, `b` = connections scanned. Sweeps that
    /// close nothing record nothing.
    TimerSweep = 10,
    /// A server-side request span completed: the request carried a
    /// wire trace context and its full read→decode→arbiter→encode→write
    /// life is summarized in one record. `a` = opcode, `b` = span id,
    /// `c` = span duration in nanoseconds (the span *starts* at
    /// `ts_ns - c` on the server clock).
    ServerSpan = 11,
    /// A client-side request span completed: one wire round trip as
    /// seen by the load generator. `a` = opcode, `b` = span id,
    /// `c` = send→decoded round-trip duration in nanoseconds (the span
    /// starts at `ts_ns - c` on the client clock).
    ClientSpan = 12,
}

impl EventKind {
    /// Decode a wire/dump code; `None` for codes this build predates.
    pub fn from_code(code: u32) -> Option<EventKind> {
        Some(match code {
            1 => EventKind::Accept,
            2 => EventKind::AdmissionRefusal,
            3 => EventKind::ReadinessWakeup,
            4 => EventKind::FrameDecoded,
            5 => EventKind::ArbiterVerdict,
            6 => EventKind::ResetAck,
            7 => EventKind::LeaseReclaim,
            8 => EventKind::BackpressureOn,
            9 => EventKind::BackpressureOff,
            10 => EventKind::TimerSweep,
            11 => EventKind::ServerSpan,
            12 => EventKind::ClientSpan,
            _ => return None,
        })
    }

    /// Stable kebab-case name used by the timeline and JSON renderers.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Accept => "accept",
            EventKind::AdmissionRefusal => "admission-refusal",
            EventKind::ReadinessWakeup => "readiness-wakeup",
            EventKind::FrameDecoded => "frame-decoded",
            EventKind::ArbiterVerdict => "arbiter-verdict",
            EventKind::ResetAck => "reset-ack",
            EventKind::LeaseReclaim => "lease-reclaim",
            EventKind::BackpressureOn => "backpressure-on",
            EventKind::BackpressureOff => "backpressure-off",
            EventKind::TimerSweep => "timer-sweep",
            EventKind::ServerSpan => "server-span",
            EventKind::ClientSpan => "client-span",
        }
    }
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder clock's origin.
    pub ts_ns: u64,
    /// Dump-file lane id (see [`lane_name`]).
    pub lane: u32,
    /// Write-order ticket within the lane.
    pub ticket: u64,
    /// Raw [`EventKind`] code (kept raw so unknown codes round-trip).
    pub kind: u32,
    /// Per-kind 32-bit argument.
    pub a: u32,
    /// Per-kind payload word.
    pub b: u64,
    /// Per-kind payload word.
    pub c: u64,
}

impl TraceEvent {
    /// The event's kind, if this build knows the code.
    pub fn kind(&self) -> Option<EventKind> {
        EventKind::from_code(self.kind)
    }

    /// Pack into the four ring words (`[ts, kind<<32|a, b, c]`).
    pub fn to_words(&self) -> [u64; crate::ring::WORDS] {
        [
            self.ts_ns,
            (u64::from(self.kind) << 32) | u64::from(self.a),
            self.b,
            self.c,
        ]
    }

    /// Unpack from ring words plus lane/ticket context.
    pub fn from_words(lane: u32, ticket: u64, words: [u64; crate::ring::WORDS]) -> TraceEvent {
        TraceEvent {
            ts_ns: words[0],
            lane,
            ticket,
            kind: (words[1] >> 32) as u32,
            a: words[1] as u32,
            b: words[2],
            c: words[3],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_round_trip_and_unknown_codes_do_not() {
        for code in 1..=12u32 {
            let kind = EventKind::from_code(code).expect("known code");
            assert_eq!(kind as u32, code);
            assert!(!kind.name().is_empty());
        }
        assert_eq!(EventKind::from_code(0), None);
        assert_eq!(EventKind::from_code(13), None);
    }

    #[test]
    fn events_pack_and_unpack_losslessly() {
        let ev = TraceEvent {
            ts_ns: 123_456_789,
            lane: 3,
            ticket: 42,
            kind: EventKind::ArbiterVerdict as u32,
            a: 1,
            b: u64::MAX - 7,
            c: 0xDEAD_BEEF_CAFE_F00D,
        };
        let back = TraceEvent::from_words(3, 42, ev.to_words());
        assert_eq!(back, ev);
        assert_eq!(back.kind(), Some(EventKind::ArbiterVerdict));
    }

    #[test]
    fn lane_ids_and_names_agree() {
        assert_eq!(lane_id(Lane::Accept), 0);
        assert_eq!(lane_id(Lane::Reclaim), 1);
        assert_eq!(lane_id(Lane::Worker(0)), 2);
        assert_eq!(lane_id(Lane::Worker(5)), 7);
        assert_eq!(lane_name(0), "accept");
        assert_eq!(lane_name(1), "reclaim");
        assert_eq!(lane_name(7), "worker5");
    }
}
