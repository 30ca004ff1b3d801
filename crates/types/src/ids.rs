//! Identifier newtypes: page numbers, process ids, cacheline addresses.

use core::fmt;

use crate::{LINES_PER_PAGE, LINE_SHIFT, PAGE_SHIFT};

/// A virtual page number: a process-local page index.
///
/// Streams, strides and every prefetch decision in HoPP's software are
/// expressed in `Vpn` space, because spatial access patterns exist in
/// virtual addresses (physical frames are allocated arbitrarily).
///
/// # Example
///
/// ```
/// use hopp_types::Vpn;
/// let a = Vpn::new(100);
/// let b = Vpn::new(104);
/// assert_eq!(b.stride_from(a), 4);
/// assert_eq!(a.offset(4), Some(b));
/// assert_eq!(a.offset(-200), None); // would underflow
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(u64);

impl Vpn {
    /// Creates a virtual page number from a raw page index.
    pub const fn new(raw: u64) -> Self {
        Vpn(raw)
    }

    /// The raw page index.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The virtual byte address of the first byte of this page.
    pub const fn base_addr(self) -> u64 {
        self.0 << PAGE_SHIFT
    }

    /// The page containing the given virtual byte address.
    pub const fn containing(addr: u64) -> Self {
        Vpn(addr >> PAGE_SHIFT)
    }

    /// Signed page distance `self - other`, the *stride* between two
    /// consecutive accesses of a stream.
    pub const fn stride_from(self, other: Vpn) -> i64 {
        self.0 as i64 - other.0 as i64
    }

    /// This page shifted by a signed page count, or `None` on overflow.
    pub fn offset(self, delta: i64) -> Option<Vpn> {
        self.0.checked_add_signed(delta).map(Vpn)
    }

    /// This page shifted by a signed page count, clamping at the ends of
    /// the address space instead of failing.
    pub fn offset_saturating(self, delta: i64) -> Vpn {
        Vpn(self.0.saturating_add_signed(delta))
    }

    /// The page index as a `usize`, for indexing page tables.
    ///
    /// This is the sanctioned way to use a `Vpn` as a table index; raw
    /// `as` casts on [`Vpn::raw`] are rejected by the unit-hygiene rule
    /// of `cargo xtask check`.
    #[allow(clippy::cast_possible_truncation)]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The page at position `index` of a page table.
    pub const fn from_index(index: usize) -> Self {
        Vpn(index as u64)
    }
}

impl fmt::Debug for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vpn({:#x})", self.0)
    }
}

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{:#x}", self.0)
    }
}

impl From<u64> for Vpn {
    fn from(raw: u64) -> Self {
        Vpn(raw)
    }
}

/// A physical page number: an index into the machine's DRAM frames.
///
/// The memory controller (and therefore the hot page detection table)
/// sees only physical addresses; the reverse page table maps a `Ppn`
/// back to its owning `(Pid, Vpn)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ppn(u64);

impl Ppn {
    /// Creates a physical page number from a raw frame index.
    pub const fn new(raw: u64) -> Self {
        Ppn(raw)
    }

    /// The raw frame index.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The physical byte address of the first byte of this frame.
    pub const fn base_addr(self) -> u64 {
        self.0 << PAGE_SHIFT
    }

    /// The frame containing the given physical byte address.
    pub const fn containing(addr: u64) -> Self {
        Ppn(addr >> PAGE_SHIFT)
    }

    /// The physical cacheline address of line `line` (0..64) of this frame.
    ///
    /// # Panics
    ///
    /// Panics if `line >= LINES_PER_PAGE` (debug builds only).
    pub fn line(self, line: u8) -> LineAddr {
        debug_assert!((line as usize) < LINES_PER_PAGE);
        LineAddr((self.0 << (PAGE_SHIFT - LINE_SHIFT)) | u64::from(line))
    }

    /// The frame index as a `usize`, for indexing frame tables.
    ///
    /// This is the sanctioned way to use a `Ppn` as a table index; raw
    /// `as` casts on [`Ppn::raw`] are rejected by the unit-hygiene rule
    /// of `cargo xtask check`.
    #[allow(clippy::cast_possible_truncation)]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The frame at position `index` of a frame table.
    pub const fn from_index(index: usize) -> Self {
        Ppn(index as u64)
    }
}

impl fmt::Debug for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ppn({:#x})", self.0)
    }
}

impl fmt::Display for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{:#x}", self.0)
    }
}

impl From<u64> for Ppn {
    fn from(raw: u64) -> Self {
        Ppn(raw)
    }
}

/// A physical cacheline address (byte address divided by the line size).
///
/// This is the granularity at which the LLC and the memory controller
/// operate; the HPD table converts it back to a [`Ppn`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a cacheline address from a raw line index.
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// The raw line index (physical byte address >> 6).
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The physical frame containing this line.
    pub const fn ppn(self) -> Ppn {
        Ppn(self.0 >> (PAGE_SHIFT - LINE_SHIFT))
    }

    /// The line index within its page (0..64).
    pub const fn line_in_page(self) -> u8 {
        (self.0 & (LINES_PER_PAGE as u64 - 1)) as u8
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

/// A process identifier.
///
/// The RPT stores 16-bit PIDs (per the paper's 64-bit entry layout), so
/// `Pid` wraps `u16`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pid(u16);

impl Pid {
    /// The kernel's reserved PID (never used by a simulated process).
    pub const KERNEL: Pid = Pid(0);

    /// Creates a process id.
    pub const fn new(raw: u16) -> Self {
        Pid(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// The process at position `index` of a process table.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit the RPT's 16-bit PID field — a
    /// workload-construction bug, not a runtime condition.
    pub fn from_index(index: usize) -> Self {
        debug_assert!(index <= u16::MAX as usize, "pid index {index} > u16::MAX");
        Pid(index as u16)
    }
}

impl fmt::Debug for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pid({})", self.0)
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

impl From<u16> for Pid {
    fn from(raw: u16) -> Self {
        Pid(raw)
    }
}

/// A slot in the (remote) swap device.
///
/// Fastswap's readahead prefetches pages *adjacent in swap-slot order*,
/// which is why the slot a page was evicted into matters to the
/// baselines.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SwapSlot(u64);

impl SwapSlot {
    /// Creates a swap slot index.
    pub const fn new(raw: u64) -> Self {
        SwapSlot(raw)
    }

    /// The raw slot index.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The slot shifted by a signed offset, or `None` on overflow.
    pub fn offset(self, delta: i64) -> Option<SwapSlot> {
        self.0.checked_add_signed(delta).map(SwapSlot)
    }

    /// The slot index as a `usize`, for indexing slot tables.
    #[allow(clippy::cast_possible_truncation)]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The slot at position `index` of a slot table.
    pub const fn from_index(index: usize) -> Self {
        SwapSlot(index as u64)
    }
}

impl fmt::Debug for SwapSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SwapSlot({})", self.0)
    }
}

/// A memory node in a disaggregated memory pool.
///
/// The paper's testbed has exactly one memory server; the fabric layer
/// generalizes it to a rack-scale pool where placement, replication and
/// failover are expressed in terms of node indices.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node id from a raw pool index.
    pub const fn new(raw: u16) -> Self {
        NodeId(raw)
    }

    /// The raw pool index.
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// The pool index as a `usize`, for indexing node tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The node at position `index` of a pool's node table.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds the 16-bit node-id space — a pool
    /// construction bug, not a runtime condition (debug builds only).
    pub fn from_index(index: usize) -> Self {
        debug_assert!(index <= u16::MAX as usize, "node index {index} > u16::MAX");
        NodeId(index as u16)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpn_stride_and_offset_roundtrip() {
        let a = Vpn::new(1000);
        for d in [-5i64, -1, 0, 1, 7, 100] {
            let b = a.offset(d).unwrap();
            assert_eq!(b.stride_from(a), d);
        }
    }

    #[test]
    fn vpn_offset_checks_bounds() {
        assert_eq!(Vpn::new(3).offset(-4), None);
        assert_eq!(Vpn::new(u64::MAX).offset(1), None);
        assert_eq!(Vpn::new(3).offset_saturating(-4), Vpn::new(0));
    }

    #[test]
    fn vpn_addr_containment() {
        let v = Vpn::containing(0x1234_5678);
        assert_eq!(v, Vpn::new(0x12345));
        assert!(v.base_addr() <= 0x1234_5678);
        assert!(0x1234_5678 < v.base_addr() + 4096);
    }

    #[test]
    fn line_addr_decomposes_into_ppn_and_line() {
        let p = Ppn::new(0xabcd);
        for line in [0u8, 1, 31, 63] {
            let la = p.line(line);
            assert_eq!(la.ppn(), p);
            assert_eq!(la.line_in_page(), line);
        }
    }

    #[test]
    fn ppn_base_addr_is_page_aligned() {
        let p = Ppn::new(42);
        assert_eq!(p.base_addr() % 4096, 0);
        assert_eq!(Ppn::containing(p.base_addr() + 4095), p);
    }

    #[test]
    fn swap_slot_offsets() {
        let s = SwapSlot::new(10);
        assert_eq!(s.offset(-10), Some(SwapSlot::new(0)));
        assert_eq!(s.offset(-11), None);
    }

    #[test]
    fn index_conversions_roundtrip() {
        assert_eq!(Ppn::from_index(42).index(), 42);
        assert_eq!(Vpn::from_index(42).index(), 42);
        assert_eq!(Vpn::from_index(42), Vpn::new(42));
        assert_eq!(Ppn::from_index(42), Ppn::new(42));
        assert_eq!(NodeId::from_index(7).index(), 7);
        assert_eq!(NodeId::from_index(7), NodeId::new(7));
        assert_eq!(Pid::from_index(3), Pid::new(3));
    }

    #[test]
    fn debug_formats_are_nonempty() {
        assert!(!format!("{:?}", Vpn::new(0)).is_empty());
        assert!(!format!("{:?}", Ppn::new(0)).is_empty());
        assert!(!format!("{:?}", Pid::new(0)).is_empty());
        assert!(!format!("{:?}", LineAddr::new(0)).is_empty());
        assert!(!format!("{:?}", SwapSlot::new(0)).is_empty());
    }
}
