#![warn(missing_docs)]
//! hopp-scn: the workload scenario engine.
//!
//! Two ways to get past the fifteen-workload catalogue, both producing
//! the same [`AccessStream`] interface the generators use, so every
//! downstream consumer (the simulator, `experiments sweep`, the
//! quality scoreboard) treats them as just another workload:
//!
//! * **Trace record/replay** ([`hst`]): a versioned, delta-encoded
//!   on-disk trace format (`.hst`) with a streaming writer and replayer.
//!   Any run can be captured with `hoppsim --record-trace` and replayed
//!   bit-identically with `--replay-trace` — the HMTT idea (PID/VPN
//!   annotated traces that close the semantic gap) applied at page
//!   granularity.
//!
//! * **Scenario DSL** ([`dsl`]): a small declarative TOML config
//!   describing *phases*, weighted *workload mixes*, working-set
//!   *drift* and DOLMA-style object-granularity *regions*, compiled
//!   into one deterministic interleaved stream built from
//!   `hopp_trace::patterns` primitives and the workload catalogue.
//!   Dozens of scenarios are a `scenarios/` directory, not new crates.
//!
//! Everything here is deterministic: identical inputs (file bytes,
//! seeds) produce identical streams, so scenario cells are cacheable
//! and replayable like any other workload. All failures travel as
//! typed [`ScnError`] values — this crate is sim-critical and must not
//! panic on bad input.

pub mod dsl;
pub mod hst;

use std::fmt;

use hopp_trace::AccessStream;
use hopp_types::Pid;
use hopp_workloads::WorkloadKind;

pub use dsl::{load_dir, Scenario, ScenarioSpec};
pub use hst::{HstHeader, HstReader, HstTrace, HstWriter};

/// Errors surfaced by the scenario engine. Every variant carries enough
/// context (path, byte offset or line number) to point at the offending
/// input, so CLI users see `file:line`-grade messages instead of
/// panics.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScnError {
    /// An OS-level read or write failed.
    Io {
        /// The file involved (`<stream>` for in-memory readers).
        path: String,
        /// The OS error text.
        detail: String,
    },
    /// A `.hst` file is malformed.
    Format {
        /// The file involved (`<stream>` for in-memory readers).
        path: String,
        /// Byte offset of the malformed content.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// A scenario file failed to parse.
    Parse {
        /// The scenario file.
        path: String,
        /// 1-based line of the offending input.
        line: usize,
        /// What was wrong.
        detail: String,
    },
    /// A scenario parsed but is semantically invalid.
    Invalid {
        /// The scenario file.
        path: String,
        /// Which constraint was violated.
        detail: String,
    },
}

impl fmt::Display for ScnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScnError::Io { path, detail } => write!(f, "{path}: {detail}"),
            ScnError::Format {
                path,
                offset,
                detail,
            } => write!(f, "{path}: invalid .hst at byte {offset}: {detail}"),
            ScnError::Parse { path, line, detail } => {
                write!(f, "{path}:{line}: {detail}")
            }
            ScnError::Invalid { path, detail } => {
                write!(f, "{path}: invalid scenario: {detail}")
            }
        }
    }
}

impl std::error::Error for ScnError {}

/// Convenience alias used across this crate.
pub type ScnResult<T> = core::result::Result<T, ScnError>;

/// FNV-1a over `bytes` — the same stable hash the hopp-lab cell cache
/// uses, re-implemented here so `hopp-scn` stays dependency-light. Used
/// for the `.hst` header fingerprint and record checksum, and for
/// scenario-file content hashes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One entry on the sweep/experiment `workload` axis: either a
/// catalogue workload or a compiled scenario. Everything the grid
/// machinery needs — a display name, a footprint choice, a stream
/// builder, a cache-key tag — is answered uniformly here.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSource {
    /// One of the paper's fifteen application models.
    Catalogue(WorkloadKind),
    /// A scenario compiled from a DSL file.
    Scenario(Scenario),
}

impl WorkloadSource {
    /// Display name (catalogue name or scenario name).
    pub fn name(&self) -> &str {
        match self {
            WorkloadSource::Catalogue(k) => k.name(),
            WorkloadSource::Scenario(s) => &s.name,
        }
    }

    /// True for catalogue workloads that model JVM/Spark applications
    /// (scenarios choose their own footprint instead).
    pub fn is_jvm(&self) -> bool {
        match self {
            WorkloadSource::Catalogue(k) => k.is_jvm(),
            WorkloadSource::Scenario(_) => false,
        }
    }

    /// The footprint this source runs at, given the sweep's defaults
    /// for ordinary and JVM workloads. A scenario with a pinned
    /// `footprint` in its `[scenario]` table overrides both.
    pub fn footprint(&self, default: u64, spark_default: u64) -> u64 {
        match self {
            WorkloadSource::Catalogue(k) => {
                if k.is_jvm() {
                    spark_default
                } else {
                    default
                }
            }
            WorkloadSource::Scenario(s) => s.spec.footprint.unwrap_or(default),
        }
    }

    /// Builds the deterministic access stream, mirroring
    /// [`WorkloadKind::build`] semantics.
    pub fn build(&self, pid: Pid, footprint_pages: u64, seed: u64) -> Box<dyn AccessStream> {
        match self {
            WorkloadSource::Catalogue(k) => k.build(pid, footprint_pages, seed),
            WorkloadSource::Scenario(s) => s.spec.build(&s.name, pid, footprint_pages, seed),
        }
    }

    /// The tag the sweep cell cache keys on. Catalogue entries keep the
    /// bare name (so existing warm caches stay valid); scenarios append
    /// their file-content hash, so *editing* a scenario TOML invalidates
    /// every cached cell built from it.
    pub fn cache_tag(&self) -> String {
        match self {
            WorkloadSource::Catalogue(k) => k.name().to_string(),
            WorkloadSource::Scenario(s) => {
                format!("{}|content={:016x}", s.name, s.content_hash)
            }
        }
    }
}

/// Resolves a catalogue workload from a user-facing name: exact (the
/// Table IV name), slugged (`kmeans-omp`), or a unique lowercase prefix
/// (`quick` → Quicksort).
pub fn catalogue_by_name(input: &str) -> Option<WorkloadKind> {
    let want = normalize(input);
    if let Some(k) = WorkloadKind::ALL
        .iter()
        .find(|k| normalize(k.name()) == want)
    {
        return Some(*k);
    }
    let mut prefix_matches = WorkloadKind::ALL
        .iter()
        .filter(|k| normalize(k.name()).starts_with(&want));
    match (prefix_matches.next(), prefix_matches.next()) {
        (Some(k), None) => Some(*k),
        _ => None,
    }
}

/// Lowercases and maps every non-alphanumeric run to a single `-`.
fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn catalogue_lookup_accepts_names_slugs_and_prefixes() {
        assert_eq!(catalogue_by_name("Kmeans-OMP"), Some(WorkloadKind::Kmeans));
        assert_eq!(catalogue_by_name("kmeans-omp"), Some(WorkloadKind::Kmeans));
        assert_eq!(catalogue_by_name("quick"), Some(WorkloadKind::Quicksort));
        assert_eq!(catalogue_by_name("npb-mg"), Some(WorkloadKind::NpbMg));
        assert_eq!(catalogue_by_name("no-such-workload"), None);
    }

    #[test]
    fn catalogue_source_uses_jvm_footprint() {
        let k = WorkloadSource::Catalogue(WorkloadKind::Kmeans);
        assert_eq!(k.footprint(1024, 2048), 1024);
        assert!(!k.is_jvm());
        assert_eq!(k.cache_tag(), "Kmeans-OMP");
    }

    #[test]
    fn error_display_carries_location() {
        let e = ScnError::Parse {
            path: "scenarios/x.toml".into(),
            line: 7,
            detail: "unknown key `wieght`".into(),
        };
        assert_eq!(e.to_string(), "scenarios/x.toml:7: unknown key `wieght`");
        let f = ScnError::Format {
            path: "t.hst".into(),
            offset: 42,
            detail: "bad tag".into(),
        };
        assert!(f.to_string().contains("byte 42"));
    }
}
