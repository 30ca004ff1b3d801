//! Memory-access record types shared across the stack.

use core::fmt;

use crate::{Nanos, Pid, Vpn};

/// Whether an access reads or writes memory.
///
/// The HPD module only accounts for READs (§III-B of the paper): a write
/// miss first appears as a read on the memory bus, and RDMA DMA-writes of
/// fetched pages would otherwise pollute the trace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A load (or the fill part of a store miss).
    Read,
    /// A store writeback.
    Write,
}

impl AccessKind {
    /// True for [`AccessKind::Read`].
    pub const fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }
}

/// A virtual page touch issued by an application thread.
///
/// This is the unit the workload generators emit: "process `pid` touches
/// `lines` cachelines of virtual page `vpn`, spending `think_ns` of
/// compute before the touch".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PageAccess {
    /// The accessing process.
    pub pid: Pid,
    /// The virtual page touched.
    pub vpn: Vpn,
    /// Read or write.
    pub kind: AccessKind,
    /// How many distinct cachelines of the page this touch covers (1..=64).
    pub lines: u8,
    /// Compute time spent before this touch (models the application's
    /// arithmetic between memory operations).
    pub think_ns: u32,
}

impl PageAccess {
    /// A full-page sequential read touch with no think time.
    pub fn read(pid: Pid, vpn: Vpn) -> Self {
        PageAccess {
            pid,
            vpn,
            kind: AccessKind::Read,
            lines: crate::LINES_PER_PAGE as u8,
            think_ns: 0,
        }
    }

    /// A full-page sequential write touch with no think time.
    pub fn write(pid: Pid, vpn: Vpn) -> Self {
        PageAccess {
            kind: AccessKind::Write,
            ..PageAccess::read(pid, vpn)
        }
    }

    /// Returns this touch with the given number of lines covered.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is 0 or greater than 64.
    pub fn with_lines(mut self, lines: u8) -> Self {
        assert!(lines >= 1 && lines as usize <= crate::LINES_PER_PAGE);
        self.lines = lines;
        self
    }

    /// Returns this touch with the given think time.
    pub fn with_think(mut self, think_ns: u32) -> Self {
        self.think_ns = think_ns;
        self
    }
}

/// Flags carried alongside a hot page, forwarded verbatim from the RPT
/// entry to software (§III-C: the hardware does not consume them).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Debug)]
pub struct PageFlags {
    /// The page is mapped by more than one process.
    pub shared: bool,
    /// The page belongs to a huge-page mapping (2 MB or 1 GB).
    pub huge: bool,
}

/// A hot page event: the output of the hardware pipeline (HPD → RPT) and
/// the input to HoPP's prefetch training framework.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HotPage {
    /// Owning process, resolved by the reverse page table.
    pub pid: Pid,
    /// Virtual page number, resolved by the reverse page table.
    pub vpn: Vpn,
    /// Shared/huge flags from the RPT entry.
    pub flags: PageFlags,
    /// When the page crossed the hotness threshold.
    pub at: Nanos,
}

impl fmt::Display for HotPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hot[{} {} @{}]", self.pid, self.vpn, self.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_access_builders() {
        let a = PageAccess::read(Pid::new(1), Vpn::new(7))
            .with_lines(3)
            .with_think(50);
        assert_eq!(a.lines, 3);
        assert_eq!(a.think_ns, 50);
        assert!(a.kind.is_read());
        let w = PageAccess::write(Pid::new(1), Vpn::new(7));
        assert!(!w.kind.is_read());
        assert_eq!(w.lines as usize, crate::LINES_PER_PAGE);
    }

    #[test]
    #[should_panic]
    fn with_lines_rejects_zero() {
        let _ = PageAccess::read(Pid::new(1), Vpn::new(7)).with_lines(0);
    }

    #[test]
    fn hot_page_display() {
        let h = HotPage {
            pid: Pid::new(3),
            vpn: Vpn::new(0x10),
            flags: PageFlags::default(),
            at: Nanos::from_nanos(12),
        };
        assert_eq!(format!("{h}"), "hot[pid3 v0x10 @12ns]");
    }
}
