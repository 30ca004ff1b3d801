#![warn(missing_docs)]
//! Memory-access trace substrate: LLC model, HMTT emulation and
//! synthetic access-pattern generators.
//!
//! The HoPP paper captures full off-chip memory traces with HMTT, a
//! DIMM-snooping hardware tracer, and feeds the LLC-miss stream to the
//! hot page detection logic. Neither the tracer nor the testbed exists
//! here, so this crate provides the equivalent software substrate:
//!
//! * [`llc::LastLevelCache`] — a set-associative, physically-indexed
//!   cache model. Application cacheline accesses that hit in it never
//!   reach the memory controller, exactly like the real machine; the
//!   misses form the off-chip trace.
//! * [`hmtt`] — the HMTT trace-record format (8-bit sequence number,
//!   8-bit timestamp, R/W bit, 29-bit physical address) with an encoder
//!   and a wrap-reconstructing decoder, plus the reserved-DRAM ring
//!   buffer the prototype stores records in. Recorded traces are stored
//!   in `hopp-scn`'s `.hst` format, not as raw records.
//! * [`patterns`] — generators for the three stream shapes the paper
//!   identifies (§II-B): simple streams, ladder streams and ripple
//!   streams, plus interference pages and a stream interleaver. The
//!   workload models in `hopp-workloads` are composed from these.
//!
//! # Example
//!
//! ```
//! use hopp_trace::patterns::{SimpleStream, AccessStream};
//! use hopp_types::{Pid, Vpn};
//!
//! let mut s = SimpleStream::new(Pid::new(1), Vpn::new(0), 2, 5);
//! let pages: Vec<u64> = std::iter::from_fn(|| s.next_access())
//!     .map(|a| a.vpn.raw())
//!     .collect();
//! assert_eq!(pages, vec![0, 2, 4, 6, 8]);
//! ```

pub mod hmtt;
pub mod llc;
pub mod patterns;

pub use hmtt::{HmttDecoder, HmttRecord, TraceRing};
pub use llc::{LastLevelCache, LlcConfig, LlcStats};
pub use patterns::{
    AccessStream, Chain, Interleaver, LadderStream, NoiseStream, RippleStream, SimpleStream,
};
