//! HMTT trace-record emulation.
//!
//! The paper's prototype deploys HMTT as a bump-in-the-wire between the
//! memory controller and DRAM. Each captured trace record has four
//! fields (§V): an 8-bit sequence number, an 8-bit timestamp, a 1-bit
//! read/write flag and a 29-bit physical address. Records are DMA'd into
//! a reserved DRAM area on a second socket so the tracer cannot observe
//! its own writes.
//!
//! This module reproduces the record format bit-exactly ([`HmttRecord`]),
//! including the information loss it implies: both the sequence number
//! and the timestamp wrap at 256, so the consumer must reconstruct full
//! ordering and time ([`HmttDecoder`]), and the 29-bit address field
//! limits the traceable physical space to 32 GB of cachelines. The
//! reserved DRAM area is modelled by [`TraceRing`], a bounded ring that
//! counts overruns when software falls behind the hardware producer.

use hopp_types::{AccessKind, LineAccess, LineAddr, Nanos};

/// Mask for the 29-bit physical (cacheline) address field.
const ADDR_MASK: u64 = (1 << 29) - 1;

/// Granularity of the 8-bit hardware timestamp in nanoseconds.
///
/// HMTT timestamps tick coarsely; 64 ns per tick keeps the wrap period
/// (16.4 µs) comfortably above the inter-record gap of a busy memory
/// bus, which is what the reconstruction relies on.
pub const TIMESTAMP_TICK_NS: u64 = 64;

/// One HMTT trace record, packed exactly as the hardware emits it.
///
/// # Example
///
/// ```
/// use hopp_trace::hmtt::HmttRecord;
/// use hopp_types::{AccessKind, LineAccess, LineAddr, Nanos};
///
/// let acc = LineAccess { addr: LineAddr::new(0x1abcd), kind: AccessKind::Read,
///                        at: Nanos::from_nanos(640) };
/// let rec = HmttRecord::capture(7, &acc);
/// assert_eq!(rec.seqno(), 7);
/// assert_eq!(rec.addr(), LineAddr::new(0x1abcd));
/// assert!(rec.is_read());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HmttRecord(u64);

impl HmttRecord {
    /// Packs an observed bus access into the 46-bit record layout:
    /// `[seqno:8][timestamp:8][rw:1][addr:29]` (stored in a `u64`).
    ///
    /// The physical address is truncated to 29 bits, exactly as the
    /// hardware would; `seqno` is truncated to 8 bits.
    pub fn capture(seqno: u64, access: &LineAccess) -> Self {
        let ts = (access.at.as_nanos() / TIMESTAMP_TICK_NS) & 0xff;
        let rw = u64::from(matches!(access.kind, AccessKind::Read));
        let addr = access.addr.raw() & ADDR_MASK;
        HmttRecord(((seqno & 0xff) << 38) | (ts << 30) | (rw << 29) | addr)
    }

    /// The raw packed bits.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs a record from raw bits (e.g. read back from the ring).
    pub const fn from_raw(raw: u64) -> Self {
        HmttRecord(raw)
    }

    /// The 8-bit wrapping sequence number.
    pub const fn seqno(self) -> u8 {
        ((self.0 >> 38) & 0xff) as u8
    }

    /// The 8-bit wrapping timestamp (in [`TIMESTAMP_TICK_NS`] ticks).
    pub const fn timestamp_ticks(self) -> u8 {
        ((self.0 >> 30) & 0xff) as u8
    }

    /// True if the access was a read.
    pub const fn is_read(self) -> bool {
        (self.0 >> 29) & 1 == 1
    }

    /// The 29-bit physical cacheline address.
    pub const fn addr(self) -> LineAddr {
        LineAddr::new(self.0 & ADDR_MASK)
    }
}

/// Reconstructs full timestamps and detects sequence gaps from the
/// wrapping 8-bit fields of a record stream.
///
/// The prototype's software HPD consumes records from the reserved DRAM
/// area; since both counters wrap at 256 it must count wraps. The
/// decoder assumes records arrive in capture order and that consecutive
/// records are less than one timestamp wrap (≈16 µs) apart — true for
/// any bus busy enough to be worth prefetching for.
#[derive(Clone, Debug, Default)]
pub struct HmttDecoder {
    last_seq: Option<u8>,
    last_ticks: Option<u8>,
    tick_wraps: u64,
    /// Records lost between the last two decoded records (seqno gaps).
    pub dropped: u64,
}

impl HmttDecoder {
    /// Creates a decoder with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes the next record, returning the access with a
    /// reconstructed absolute timestamp.
    pub fn decode(&mut self, rec: HmttRecord) -> LineAccess {
        if let Some(prev) = self.last_seq {
            let gap = rec.seqno().wrapping_sub(prev);
            if gap != 1 {
                self.dropped += u64::from(gap.wrapping_sub(1));
            }
        }
        self.last_seq = Some(rec.seqno());

        let ticks = rec.timestamp_ticks();
        if let Some(prev) = self.last_ticks {
            if ticks < prev {
                self.tick_wraps += 1;
            }
        }
        self.last_ticks = Some(ticks);

        let abs_ticks = self.tick_wraps * 256 + u64::from(ticks);
        LineAccess {
            addr: rec.addr(),
            kind: if rec.is_read() {
                AccessKind::Read
            } else {
                AccessKind::Write
            },
            at: Nanos::from_nanos(abs_ticks * TIMESTAMP_TICK_NS),
        }
    }
}

/// The reserved DRAM ring the receiving card DMA-writes records into.
///
/// When the software consumer falls behind, the hardware overwrites the
/// oldest records; [`TraceRing::overruns`] counts how many were lost.
#[derive(Clone, Debug)]
pub struct TraceRing {
    buf: Vec<u64>,
    head: usize,
    len: usize,
    overruns: u64,
}

impl TraceRing {
    /// Creates a ring holding `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be non-zero");
        TraceRing {
            buf: vec![0; capacity],
            head: 0,
            len: 0,
            overruns: 0,
        }
    }

    /// Appends a record, overwriting the oldest when full.
    pub fn push(&mut self, rec: HmttRecord) {
        let tail = (self.head + self.len) % self.buf.len();
        self.buf[tail] = rec.raw();
        if self.len == self.buf.len() {
            // Overwrote the oldest unread record.
            self.head = (self.head + 1) % self.buf.len();
            self.overruns += 1;
        } else {
            self.len += 1;
        }
    }

    /// Removes and returns the oldest record, if any.
    pub fn pop(&mut self) -> Option<HmttRecord> {
        if self.len == 0 {
            return None;
        }
        let rec = HmttRecord::from_raw(self.buf[self.head]);
        self.head = (self.head + 1) % self.buf.len();
        self.len -= 1;
        Some(rec)
    }

    /// Number of unread records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no unread records remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records lost to producer overrun since creation.
    pub fn overruns(&self) -> u64 {
        self.overruns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(addr: u64, ns: u64, kind: AccessKind) -> LineAccess {
        LineAccess {
            addr: LineAddr::new(addr),
            kind,
            at: Nanos::from_nanos(ns),
        }
    }

    #[test]
    fn record_roundtrip() {
        let a = acc(0x1fff_ffff, 12 * TIMESTAMP_TICK_NS, AccessKind::Write);
        let r = HmttRecord::capture(300, &a); // seqno wraps to 44
        assert_eq!(r.seqno(), 44);
        assert_eq!(r.timestamp_ticks(), 12);
        assert!(!r.is_read());
        assert_eq!(r.addr(), LineAddr::new(0x1fff_ffff));
        assert_eq!(HmttRecord::from_raw(r.raw()), r);
    }

    #[test]
    fn address_truncates_to_29_bits() {
        let a = acc(0x7_1234_5678, 0, AccessKind::Read);
        let r = HmttRecord::capture(0, &a);
        assert_eq!(r.addr().raw(), 0x7_1234_5678 & ((1 << 29) - 1));
    }

    #[test]
    fn decoder_reconstructs_time_across_wraps() {
        let mut dec = HmttDecoder::new();
        let tick = TIMESTAMP_TICK_NS;
        // Three records spaced 200 ticks apart: the third crosses a wrap.
        let times = [10 * tick, 210 * tick, 410 * tick];
        let mut decoded = Vec::new();
        for (i, t) in times.iter().enumerate() {
            let r = HmttRecord::capture(i as u64, &acc(i as u64, *t, AccessKind::Read));
            decoded.push(dec.decode(r).at.as_nanos());
        }
        assert_eq!(decoded, vec![10 * tick, 210 * tick, 410 * tick]);
        assert_eq!(dec.dropped, 0);
    }

    #[test]
    fn decoder_counts_sequence_gaps() {
        let mut dec = HmttDecoder::new();
        let r0 = HmttRecord::capture(0, &acc(0, 0, AccessKind::Read));
        let r5 = HmttRecord::capture(5, &acc(1, 64, AccessKind::Read));
        dec.decode(r0);
        dec.decode(r5);
        assert_eq!(dec.dropped, 4);
    }

    #[test]
    fn ring_fifo_order() {
        let mut ring = TraceRing::new(4);
        for i in 0..3 {
            ring.push(HmttRecord::capture(i, &acc(i, 0, AccessKind::Read)));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.pop().unwrap().seqno(), 0);
        assert_eq!(ring.pop().unwrap().seqno(), 1);
        assert_eq!(ring.pop().unwrap().seqno(), 2);
        assert!(ring.pop().is_none());
        assert!(ring.is_empty());
    }

    #[test]
    fn ring_overrun_drops_oldest() {
        let mut ring = TraceRing::new(2);
        for i in 0..5 {
            ring.push(HmttRecord::capture(i, &acc(i, 0, AccessKind::Read)));
        }
        assert_eq!(ring.overruns(), 3);
        assert_eq!(ring.len(), 2);
        // Oldest surviving records are seqno 3 and 4.
        assert_eq!(ring.pop().unwrap().seqno(), 3);
        assert_eq!(ring.pop().unwrap().seqno(), 4);
    }

    #[test]
    #[should_panic]
    fn ring_rejects_zero_capacity() {
        let _ = TraceRing::new(0);
    }
}
