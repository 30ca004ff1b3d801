//! Error type shared by the simulation crates.

use core::fmt;

use crate::{NodeId, Pid, Ppn, Vpn};

/// Errors surfaced by the HoPP simulation stack.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum Error {
    /// The machine has no free physical frame and reclaim found no victim.
    OutOfFrames,
    /// A translation was requested for a page the process never mapped.
    UnmappedPage {
        /// The faulting process.
        pid: Pid,
        /// The unmapped virtual page.
        vpn: Vpn,
    },
    /// A frame was expected to be owned but the frame table disagrees.
    FrameNotOwned {
        /// The frame in question.
        ppn: Ppn,
    },
    /// A process id was reused or never registered.
    UnknownProcess {
        /// The offending id.
        pid: Pid,
    },
    /// A configuration value is outside its documented domain.
    InvalidConfig {
        /// The parameter name.
        what: &'static str,
        /// Human-readable constraint violated.
        constraint: &'static str,
    },
    /// The remote memory node ran out of capacity.
    RemoteMemoryExhausted {
        /// The node's capacity in pages.
        capacity_pages: usize,
    },
    /// A swapped-out page's primary node and every replica are down:
    /// the data is gone and the run cannot honestly continue.
    PageUnreachable {
        /// The owning process.
        pid: Pid,
        /// The unreachable page.
        vpn: Vpn,
        /// The page's primary node.
        primary: NodeId,
        /// The replication factor the page was stored with.
        replication: usize,
    },
    /// No live memory node in the pool has room for a new placement.
    PoolExhausted {
        /// Pool size in nodes.
        nodes: usize,
    },
    /// An access names a page beyond the VPN field of the hardware's
    /// reverse-map entry, so no frame of it could be resolved to its
    /// owner.
    VpnOutOfRange {
        /// The accessing process.
        pid: Pid,
        /// The page.
        vpn: Vpn,
        /// Width of the VPN field in bits.
        bits: u32,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::OutOfFrames => write!(f, "no free physical frames and nothing to reclaim"),
            Error::UnmappedPage { pid, vpn } => {
                write!(f, "access to unmapped page {vpn} by {pid}")
            }
            Error::FrameNotOwned { ppn } => write!(f, "frame {ppn} is not owned"),
            Error::UnknownProcess { pid } => write!(f, "unknown process {pid}"),
            Error::InvalidConfig { what, constraint } => {
                write!(f, "invalid configuration: {what} must satisfy {constraint}")
            }
            Error::RemoteMemoryExhausted { capacity_pages } => {
                write!(f, "remote memory node full ({capacity_pages} pages)")
            }
            Error::PageUnreachable {
                pid,
                vpn,
                primary,
                replication,
            } => {
                write!(
                    f,
                    "page {pid}:{vpn} unreachable: primary {primary} and all {replication} \
                     replica(s) are down; raise --replication"
                )
            }
            Error::PoolExhausted { nodes } => {
                write!(
                    f,
                    "memory pool exhausted: no live node with room among {nodes} node(s); \
                     raise --mem-nodes or node capacity"
                )
            }
            Error::VpnOutOfRange { pid, vpn, bits } => {
                write!(f, "page {vpn} of {pid} is beyond the {bits}-bit vpn range")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the workspace.
pub type Result<T> = core::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_without_period() {
        let msgs = [
            Error::OutOfFrames.to_string(),
            Error::UnmappedPage {
                pid: Pid::new(1),
                vpn: Vpn::new(2),
            }
            .to_string(),
            Error::FrameNotOwned { ppn: Ppn::new(3) }.to_string(),
            Error::UnknownProcess { pid: Pid::new(4) }.to_string(),
            Error::InvalidConfig {
                what: "n",
                constraint: "1..=64",
            }
            .to_string(),
            Error::VpnOutOfRange {
                pid: Pid::new(1),
                vpn: Vpn::new(1 << 40),
                bits: 40,
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(!m.ends_with('.'));
            assert!(m.chars().next().unwrap().is_lowercase() || m.starts_with("no "));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
