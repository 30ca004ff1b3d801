//! The scenario DSL: declarative TOML describing phases, weighted
//! workload mixes, working-set drift and object-granularity regions,
//! compiled into one deterministic [`AccessStream`].
//!
//! # Schema
//!
//! ```toml
//! [scenario]
//! name = "drifting-mix"     # optional, defaults to the file stem
//! seed = 7                  # optional, mixed with the caller's seed
//! footprint = 4096          # optional, pins the sweep footprint (pages)
//!
//! [[phase]]                 # phases run back to back (program phases)
//! name = "warmup"           # optional
//! length = 20000            # optional cap on accesses in this phase
//! drift = 256               # optional working-set shift, in pages
//! seed = 3                  # optional per-phase seed
//!
//! [[phase.mix]]             # a catalogue workload in the mix…
//! workload = "kmeans-omp"   # Table IV name, slug, or unique prefix
//! weight = 3                # interleaving weight (default 1)
//! footprint = 2048          # optional override (pages, >= 256)
//!
//! [[phase.mix]]             # …or a raw pattern primitive
//! pattern = "simple"        # simple | ladder | ripple | noise
//! start = 0                 # pages, relative to the workload heap base
//! len = 4096
//! stride = 2                # simple only (ladder: tread/rise/rungs;
//! weight = 1                #  ripple: jitter/hop_every; noise: span)
//!
//! [[phase.region]]          # DOLMA-style object-granularity region
//! object = "hash-index"     # label
//! base = 8192               # pages, relative to the heap base
//! pages = 64                # object size
//! repeat = 16               # passes over the object
//! writes = true
//! weight = 2
//! ```
//!
//! All page addresses are relative to `hopp_workloads::HEAP_BASE`, the
//! same base the catalogue generators allocate from, so patterns and
//! regions can deliberately overlap (or avoid) catalogue working sets.
//!
//! # Determinism
//!
//! Compilation derives every internal seed from the caller's seed, the
//! scenario seed, and the phase/member position, so a scenario cell is
//! exactly as reproducible as a catalogue workload: same file + same
//! seed → byte-identical stream. An explicit `seed` on a phase or
//! member pins that component regardless of position.

use std::path::Path;

use hopp_trace::patterns::{
    Chain, Interleaver, LadderStream, NoiseStream, RippleStream, SimpleStream,
};
use hopp_trace::AccessStream;
use hopp_types::rng::SplitMix64;
use hopp_types::{PageAccess, Pid, Vpn};
use hopp_workloads::{WorkloadKind, HEAP_BASE};

use crate::{fnv1a64, ScnError, ScnResult};

/// Upper bound on any page count/address/drift magnitude in a scenario
/// file. Keeps every internal address computation overflow-free while
/// allowing footprints ~16 TB beyond anything the simulator runs.
pub const MAX_PAGES: u64 = 1 << 32;

/// A named, content-hashed scenario: the unit the sweep axis carries.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Display name (from `[scenario] name` or the file stem).
    pub name: String,
    /// The parsed specification.
    pub spec: ScenarioSpec,
    /// FNV-1a over the file bytes; cell-cache keys include it so
    /// editing the file invalidates cached results.
    pub content_hash: u64,
}

impl Scenario {
    /// Parses a scenario from text. `path` labels errors; `fallback`
    /// names the scenario when the file does not.
    ///
    /// # Errors
    ///
    /// Returns [`ScnError::Parse`] / [`ScnError::Invalid`] on bad input.
    pub fn from_text(text: &str, path: &str, fallback: &str) -> ScnResult<Self> {
        let (name, spec) = parse_spec(text, path)?;
        Ok(Scenario {
            name: name.unwrap_or_else(|| fallback.to_string()),
            spec,
            content_hash: fnv1a64(text.as_bytes()),
        })
    }

    /// Loads a scenario file (`.toml`).
    ///
    /// # Errors
    ///
    /// Returns [`ScnError::Io`] on filesystem failures plus everything
    /// [`Scenario::from_text`] returns.
    pub fn from_file(path: &Path) -> ScnResult<Self> {
        let shown = path.display().to_string();
        let text = std::fs::read_to_string(path).map_err(|e| ScnError::Io {
            path: shown.clone(),
            detail: e.to_string(),
        })?;
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().to_string())
            .unwrap_or_else(|| "scenario".to_string());
        Scenario::from_text(&text, &shown, &stem)
    }
}

/// Loads every `*.toml` under `dir`, sorted by file name so the sweep
/// grid order is stable across platforms.
///
/// # Errors
///
/// Returns [`ScnError::Io`] if the directory cannot be read and any
/// per-file parse error.
pub fn load_dir(dir: &Path) -> ScnResult<Vec<Scenario>> {
    let shown = dir.display().to_string();
    let io_err = |e: std::io::Error| ScnError::Io {
        path: shown.clone(),
        detail: e.to_string(),
    };
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(io_err)? {
        let path = entry.map_err(io_err)?.path();
        if path.extension().is_some_and(|e| e == "toml") {
            paths.push(path);
        }
    }
    paths.sort();
    paths.iter().map(|p| Scenario::from_file(p)).collect()
}

/// A parsed scenario specification.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario seed, mixed with the caller's seed at build time.
    pub seed: u64,
    /// Pinned sweep footprint in pages, if any.
    pub footprint: Option<u64>,
    /// The phases, run back to back.
    pub phases: Vec<PhaseSpec>,
}

/// One phase of a scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSpec {
    /// Phase label (defaults to `phase-N`).
    pub name: String,
    /// Pinned phase seed (default: derived from position).
    pub seed: Option<u64>,
    /// Cap on accesses emitted by this phase (default: run to
    /// exhaustion of every member).
    pub length: Option<u64>,
    /// Working-set drift: pages added to every address of this phase.
    pub drift: i64,
    /// The weighted members interleaved within the phase.
    pub members: Vec<MemberSpec>,
}

/// One weighted member of a phase mix.
#[derive(Clone, Debug, PartialEq)]
pub struct MemberSpec {
    /// Interleaving weight (>= 1).
    pub weight: u32,
    /// What the member generates.
    pub kind: MemberKind,
}

/// The stream a [`MemberSpec`] compiles to.
#[derive(Clone, Debug, PartialEq)]
pub enum MemberKind {
    /// A catalogue workload.
    Workload(WorkloadSpec),
    /// A raw pattern primitive.
    Pattern(PatternSpec),
    /// An object-granularity region scan.
    Region(RegionSpec),
}

/// A catalogue workload inside a mix.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Which application model.
    pub kind: WorkloadKind,
    /// Footprint override in pages (>= 256).
    pub footprint: Option<u64>,
    /// Pinned seed.
    pub seed: Option<u64>,
}

/// A `hopp_trace::patterns` primitive inside a mix. Addresses are in
/// pages relative to the workload heap base.
#[derive(Clone, Debug, PartialEq)]
pub enum PatternSpec {
    /// Fixed-stride stream ([`SimpleStream`]).
    Simple {
        /// First page.
        start: u64,
        /// Touches to emit.
        len: u64,
        /// Stride in pages (may be negative).
        stride: i64,
        /// Cachelines per touch (default: full page).
        lines: Option<u8>,
        /// Compute time per touch.
        think_ns: u32,
        /// Emit writes instead of reads.
        writes: bool,
    },
    /// Tread/rise ladder ([`LadderStream`]).
    Ladder {
        /// First page.
        start: u64,
        /// Rungs (repetitions of the stride cycle).
        rungs: u64,
        /// Tread strides.
        tread: Vec<i64>,
        /// Rise stride.
        rise: i64,
        /// Cachelines per touch.
        lines: Option<u8>,
        /// Compute time per touch.
        think_ns: u32,
    },
    /// Jittered near-sequential scan ([`RippleStream`]).
    Ripple {
        /// First page.
        start: u64,
        /// Pages scanned.
        len: u64,
        /// Adjacent-swap probability (0..=1).
        jitter: f64,
        /// Far-hop cadence (0 = never).
        hop_every: u64,
        /// Cachelines per touch.
        lines: Option<u8>,
        /// Compute time per touch.
        think_ns: u32,
        /// Pinned seed.
        seed: Option<u64>,
    },
    /// Uniform interference ([`NoiseStream`]).
    Noise {
        /// Low end of the page range.
        start: u64,
        /// Width of the page range (>= 1).
        span: u64,
        /// Touches to emit.
        len: u64,
        /// Cachelines per touch.
        lines: Option<u8>,
        /// Pinned seed.
        seed: Option<u64>,
    },
}

/// A DOLMA-style object region: `repeat` strided passes over a fixed
/// `pages`-sized object at `base`.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionSpec {
    /// Object label (documentation only).
    pub object: String,
    /// First page of the object, relative to the heap base.
    pub base: u64,
    /// Object size in pages (>= 1).
    pub pages: u64,
    /// Stride of each pass.
    pub stride: i64,
    /// Number of passes (>= 1).
    pub repeat: u64,
    /// Scan with writes.
    pub writes: bool,
    /// Cachelines per touch.
    pub lines: Option<u8>,
    /// Compute time per touch.
    pub think_ns: u32,
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

/// One SplitMix64 draw keyed by two values: the seed-derivation step
/// used for phases and members.
fn mix2(a: u64, b: u64) -> u64 {
    SplitMix64::seed_from_u64(a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

fn page_vpn(at: u64) -> Vpn {
    Vpn::new(HEAP_BASE + at)
}

impl ScenarioSpec {
    /// Compiles the scenario into a deterministic stream named `name`.
    /// Mirrors [`WorkloadKind::build`]: `footprint_pages` is the
    /// default footprint for catalogue members without an override and
    /// `seed` is mixed into every derived seed.
    pub fn build(
        &self,
        name: &str,
        pid: Pid,
        footprint_pages: u64,
        seed: u64,
    ) -> Box<dyn AccessStream> {
        let scn_seed = self.seed ^ seed;
        let mut phases: Vec<Box<dyn AccessStream>> = Vec::with_capacity(self.phases.len());
        for (i, phase) in self.phases.iter().enumerate() {
            let phase_seed = mix2(scn_seed, phase.seed.unwrap_or(i as u64));
            let mut children: Vec<Box<dyn AccessStream>> = Vec::with_capacity(phase.members.len());
            let mut weights: Vec<u32> = Vec::with_capacity(phase.members.len());
            for (j, member) in phase.members.iter().enumerate() {
                let derived = mix2(phase_seed, j as u64 + 1);
                children.push(build_member(&member.kind, pid, footprint_pages, derived));
                weights.push(member.weight);
            }
            let mut stream: Box<dyn AccessStream> = if children.len() == 1 {
                children.remove(0)
            } else {
                Box::new(Interleaver::weighted(children, weights, phase_seed))
            };
            if let Some(cap) = phase.length {
                stream = Box::new(Take::new(stream, cap));
            }
            if phase.drift != 0 {
                stream = Box::new(Drift::new(stream, phase.drift));
            }
            phases.push(stream);
        }
        Box::new(Named::new(Chain::new(phases), name))
    }
}

fn build_member(
    kind: &MemberKind,
    pid: Pid,
    footprint_pages: u64,
    derived_seed: u64,
) -> Box<dyn AccessStream> {
    match kind {
        MemberKind::Workload(w) => {
            let fp = w.footprint.unwrap_or(footprint_pages).max(256);
            w.kind.build(pid, fp, w.seed.unwrap_or(derived_seed))
        }
        MemberKind::Pattern(PatternSpec::Simple {
            start,
            len,
            stride,
            lines,
            think_ns,
            writes,
        }) => {
            let mut s = SimpleStream::new(pid, page_vpn(*start), *stride, *len);
            if let Some(l) = lines {
                s = s.with_lines(*l);
            }
            s = s.with_think(*think_ns);
            if *writes {
                s = s.writes();
            }
            Box::new(s)
        }
        MemberKind::Pattern(PatternSpec::Ladder {
            start,
            rungs,
            tread,
            rise,
            lines,
            think_ns,
        }) => {
            let mut s = LadderStream::new(pid, page_vpn(*start), tread, *rise, *rungs);
            if let Some(l) = lines {
                s = s.with_lines(*l);
            }
            Box::new(s.with_think(*think_ns))
        }
        MemberKind::Pattern(PatternSpec::Ripple {
            start,
            len,
            jitter,
            hop_every,
            lines,
            think_ns,
            seed,
        }) => {
            let mut s = RippleStream::new(
                pid,
                page_vpn(*start),
                *len,
                *jitter,
                *hop_every,
                seed.unwrap_or(derived_seed),
            );
            if let Some(l) = lines {
                s = s.with_lines(*l);
            }
            Box::new(s.with_think(*think_ns))
        }
        MemberKind::Pattern(PatternSpec::Noise {
            start,
            span,
            len,
            lines,
            seed,
        }) => {
            let mut s = NoiseStream::new(
                pid,
                page_vpn(*start),
                page_vpn(start.saturating_add(*span)),
                *len,
                seed.unwrap_or(derived_seed),
            );
            if let Some(l) = lines {
                s = s.with_lines(*l);
            }
            Box::new(s)
        }
        MemberKind::Region(r) => {
            let mut passes: Vec<Box<dyn AccessStream>> = Vec::with_capacity(r.repeat as usize);
            for _ in 0..r.repeat {
                let mut s = SimpleStream::new(pid, page_vpn(r.base), r.stride, r.pages);
                if let Some(l) = r.lines {
                    s = s.with_lines(l);
                }
                s = s.with_think(r.think_ns);
                if r.writes {
                    s = s.writes();
                }
                passes.push(Box::new(s));
            }
            Box::new(Chain::new(passes))
        }
    }
}

/// Caps a stream at `remaining` accesses (phase `length`).
pub struct Take {
    inner: Box<dyn AccessStream>,
    remaining: u64,
}

impl Take {
    /// Wraps `inner`, emitting at most `cap` accesses.
    pub fn new(inner: Box<dyn AccessStream>, cap: u64) -> Self {
        Take {
            inner,
            remaining: cap,
        }
    }
}

impl AccessStream for Take {
    fn next_access(&mut self) -> Option<PageAccess> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.inner.next_access()
    }

    fn name(&self) -> &str {
        "take"
    }
}

/// Shifts every access of a stream by `delta` pages (working-set
/// drift), saturating at the address-space bounds.
pub struct Drift {
    inner: Box<dyn AccessStream>,
    delta: i64,
}

impl Drift {
    /// Wraps `inner`, drifting each access by `delta` pages.
    pub fn new(inner: Box<dyn AccessStream>, delta: i64) -> Self {
        Drift { inner, delta }
    }
}

impl AccessStream for Drift {
    fn next_access(&mut self) -> Option<PageAccess> {
        self.inner.next_access().map(|mut a| {
            a.vpn = a.vpn.offset_saturating(self.delta);
            a
        })
    }

    fn name(&self) -> &str {
        "drift"
    }
}

/// Gives a stream a stable display name (the scenario name).
pub struct Named {
    inner: Box<dyn AccessStream>,
    label: String,
}

impl Named {
    /// Wraps `inner` under `label`.
    pub fn new(inner: impl AccessStream + 'static, label: &str) -> Self {
        Named {
            inner: Box::new(inner),
            label: label.to_string(),
        }
    }
}

impl AccessStream for Named {
    fn next_access(&mut self) -> Option<PageAccess> {
        self.inner.next_access()
    }

    fn name(&self) -> &str {
        &self.label
    }
}

// ---------------------------------------------------------------------
// Parsing (hand-rolled TOML subset: tables, arrays-of-tables, scalar
// and integer-array values, # comments)
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Value {
    Int(i64),
    Float(f64),
    Bool(bool),
    Str(String),
    Ints(Vec<i64>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Str(_) => "string",
            Value::Ints(_) => "array",
        }
    }
}

struct Entry {
    key: String,
    val: Value,
    line: usize,
    used: bool,
}

/// One parsed table with typed, consumed-key-tracking accessors.
struct Tbl<'p> {
    label: &'static str,
    line: usize,
    path: &'p str,
    entries: Vec<Entry>,
}

impl<'p> Tbl<'p> {
    fn new(label: &'static str, line: usize, path: &'p str) -> Self {
        Tbl {
            label,
            line,
            path,
            entries: Vec::new(),
        }
    }

    fn err(&self, line: usize, detail: String) -> ScnError {
        ScnError::Parse {
            path: self.path.to_string(),
            line,
            detail,
        }
    }

    fn insert(&mut self, key: String, val: Value, line: usize) -> ScnResult<()> {
        if self.entries.iter().any(|e| e.key == key) {
            return Err(self.err(line, format!("duplicate key `{key}` in {}", self.label)));
        }
        self.entries.push(Entry {
            key,
            val,
            line,
            used: false,
        });
        Ok(())
    }

    fn take(&mut self, key: &str) -> Option<(Value, usize)> {
        let e = self.entries.iter_mut().find(|e| e.key == key)?;
        e.used = true;
        Some((e.val.clone(), e.line))
    }

    fn type_err(&self, key: &str, want: &str, got: &Value, line: usize) -> ScnError {
        self.err(
            line,
            format!("`{key}` must be a {want}, got {}", got.type_name()),
        )
    }

    fn str(&mut self, key: &str) -> ScnResult<Option<String>> {
        match self.take(key) {
            None => Ok(None),
            Some((Value::Str(s), _)) => Ok(Some(s)),
            Some((v, line)) => Err(self.type_err(key, "string", &v, line)),
        }
    }

    fn bool(&mut self, key: &str) -> ScnResult<Option<bool>> {
        match self.take(key) {
            None => Ok(None),
            Some((Value::Bool(b), _)) => Ok(Some(b)),
            Some((v, line)) => Err(self.type_err(key, "boolean", &v, line)),
        }
    }

    fn i64(&mut self, key: &str) -> ScnResult<Option<i64>> {
        match self.take(key) {
            None => Ok(None),
            Some((Value::Int(i), line)) => {
                if i.unsigned_abs() > MAX_PAGES {
                    return Err(self.err(line, format!("`{key}` exceeds {MAX_PAGES} pages")));
                }
                Ok(Some(i))
            }
            Some((v, line)) => Err(self.type_err(key, "integer", &v, line)),
        }
    }

    fn u64(&mut self, key: &str) -> ScnResult<Option<u64>> {
        match self.take(key) {
            None => Ok(None),
            Some((Value::Int(i), line)) => {
                if i < 0 {
                    return Err(self.err(line, format!("`{key}` must be non-negative, got {i}")));
                }
                let v = i.unsigned_abs();
                if v > MAX_PAGES {
                    return Err(self.err(line, format!("`{key}` exceeds {MAX_PAGES} pages")));
                }
                Ok(Some(v))
            }
            Some((v, line)) => Err(self.type_err(key, "integer", &v, line)),
        }
    }

    /// Unbounded u64 (seeds are not page counts).
    fn seed(&mut self, key: &str) -> ScnResult<Option<u64>> {
        match self.take(key) {
            None => Ok(None),
            Some((Value::Int(i), _)) => Ok(Some(u64::from_ne_bytes(i.to_ne_bytes()))),
            Some((v, line)) => Err(self.type_err(key, "integer", &v, line)),
        }
    }

    fn f64(&mut self, key: &str) -> ScnResult<Option<f64>> {
        match self.take(key) {
            None => Ok(None),
            Some((Value::Float(f), _)) => Ok(Some(f)),
            Some((Value::Int(i), _)) => Ok(Some(i as f64)),
            Some((v, line)) => Err(self.type_err(key, "number", &v, line)),
        }
    }

    fn ints(&mut self, key: &str) -> ScnResult<Option<Vec<i64>>> {
        match self.take(key) {
            None => Ok(None),
            Some((Value::Ints(v), _)) => Ok(Some(v)),
            Some((Value::Int(i), _)) => Ok(Some(vec![i])),
            Some((v, line)) => Err(self.type_err(key, "integer array", &v, line)),
        }
    }

    fn lines_count(&mut self, key: &str) -> ScnResult<Option<u8>> {
        match self.u64(key)? {
            None => Ok(None),
            Some(v) => {
                if (1..=64).contains(&v) {
                    Ok(Some(v as u8))
                } else {
                    Err(self.err(self.line, format!("`{key}` must be in 1..=64, got {v}")))
                }
            }
        }
    }

    fn think(&mut self, key: &str) -> ScnResult<u32> {
        match self.u64(key)? {
            None => Ok(0),
            Some(v) => u32::try_from(v)
                .map_err(|_| self.err(self.line, format!("`{key}` must fit in 32 bits, got {v}"))),
        }
    }

    fn weight(&mut self) -> ScnResult<u32> {
        match self.u64("weight")? {
            None => Ok(1),
            Some(0) => Err(self.err(self.line, "`weight` must be >= 1".to_string())),
            Some(v) => u32::try_from(v)
                .map_err(|_| self.err(self.line, format!("`weight` too large: {v}"))),
        }
    }

    /// Errors on the first key nobody consumed (typo protection).
    fn finish(self) -> ScnResult<()> {
        if let Some(e) = self.entries.iter().find(|e| !e.used) {
            return Err(ScnError::Parse {
                path: self.path.to_string(),
                line: e.line,
                detail: format!("unknown key `{}` in {}", e.key, self.label),
            });
        }
        Ok(())
    }
}

/// Strips an inline `#` comment (respecting strings) and trims.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return line[..i].trim(),
            _ => {}
        }
    }
    line.trim()
}

fn parse_value(raw: &str, path: &str, line: usize) -> ScnResult<Value> {
    let parse_err = |detail: String| ScnError::Parse {
        path: path.to_string(),
        line,
        detail,
    };
    if let Some(rest) = raw.strip_prefix('"') {
        return match rest.strip_suffix('"') {
            Some(inner) if !inner.contains('"') => Ok(Value::Str(inner.to_string())),
            _ => Err(parse_err(format!("malformed string {raw}"))),
        };
    }
    if raw == "true" {
        return Ok(Value::Bool(true));
    }
    if raw == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(body) = raw.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err(parse_err(format!("unterminated array {raw}")));
        };
        let mut out = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part.parse::<i64>() {
                Ok(v) => out.push(v),
                Err(_) => {
                    return Err(parse_err(format!(
                        "array element `{part}` is not an integer"
                    )))
                }
            }
        }
        return Ok(Value::Ints(out));
    }
    if let Ok(v) = raw.parse::<i64>() {
        return Ok(Value::Int(v));
    }
    if let Ok(v) = raw.parse::<f64>() {
        if v.is_finite() {
            return Ok(Value::Float(v));
        }
    }
    Err(parse_err(format!("unparseable value `{raw}`")))
}

/// Raw parse product: the `[scenario]` table plus per-phase tables.
struct PhaseDoc<'p> {
    tbl: Tbl<'p>,
    mixes: Vec<Tbl<'p>>,
    regions: Vec<Tbl<'p>>,
}

fn parse_spec(text: &str, path: &str) -> ScnResult<(Option<String>, ScenarioSpec)> {
    let parse_err = |line: usize, detail: String| ScnError::Parse {
        path: path.to_string(),
        line,
        detail,
    };

    let mut scenario_tbl: Option<Tbl<'_>> = None;
    let mut phases: Vec<PhaseDoc<'_>> = Vec::new();
    // Which table the cursor is inside: the destination of `key = value`.
    enum Cursor {
        Nowhere,
        Scenario,
        Phase,
        Mix,
        Region,
    }
    let mut cursor = Cursor::Nowhere;

    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw_line);
        if line.is_empty() {
            continue;
        }
        match line {
            "[scenario]" => {
                if scenario_tbl.is_some() {
                    return Err(parse_err(lineno, "duplicate [scenario] table".to_string()));
                }
                scenario_tbl = Some(Tbl::new("[scenario]", lineno, path));
                cursor = Cursor::Scenario;
            }
            "[[phase]]" => {
                phases.push(PhaseDoc {
                    tbl: Tbl::new("[[phase]]", lineno, path),
                    mixes: Vec::new(),
                    regions: Vec::new(),
                });
                cursor = Cursor::Phase;
            }
            "[[phase.mix]]" => {
                let Some(phase) = phases.last_mut() else {
                    return Err(parse_err(
                        lineno,
                        "[[phase.mix]] before any [[phase]]".to_string(),
                    ));
                };
                phase.mixes.push(Tbl::new("[[phase.mix]]", lineno, path));
                cursor = Cursor::Mix;
            }
            "[[phase.region]]" => {
                let Some(phase) = phases.last_mut() else {
                    return Err(parse_err(
                        lineno,
                        "[[phase.region]] before any [[phase]]".to_string(),
                    ));
                };
                phase
                    .regions
                    .push(Tbl::new("[[phase.region]]", lineno, path));
                cursor = Cursor::Region;
            }
            _ if line.starts_with('[') => {
                return Err(parse_err(
                    lineno,
                    format!(
                        "unknown table {line} (expected [scenario], [[phase]], \
                         [[phase.mix]] or [[phase.region]])"
                    ),
                ));
            }
            _ => {
                let Some(eq) = line.find('=') else {
                    return Err(parse_err(lineno, format!("expected `key = value`: {line}")));
                };
                let key = line[..eq].trim();
                if key.is_empty()
                    || !key
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                {
                    return Err(parse_err(lineno, format!("invalid key `{key}`")));
                }
                let val = parse_value(line[eq + 1..].trim(), path, lineno)?;
                let dest = match cursor {
                    Cursor::Nowhere => {
                        return Err(parse_err(
                            lineno,
                            format!("`{key}` outside any table; start with [scenario]"),
                        ))
                    }
                    Cursor::Scenario => scenario_tbl.as_mut(),
                    Cursor::Phase => phases.last_mut().map(|p| &mut p.tbl),
                    Cursor::Mix => phases.last_mut().and_then(|p| p.mixes.last_mut()),
                    Cursor::Region => phases.last_mut().and_then(|p| p.regions.last_mut()),
                };
                let Some(dest) = dest else {
                    return Err(parse_err(lineno, "internal cursor error".to_string()));
                };
                dest.insert(key.to_string(), val, lineno)?;
            }
        }
    }

    let invalid = |detail: String| ScnError::Invalid {
        path: path.to_string(),
        detail,
    };

    let (name, seed, footprint) = match scenario_tbl {
        None => (None, 0, None),
        Some(mut t) => {
            let name = t.str("name")?;
            let seed = t.seed("seed")?.unwrap_or(0);
            let footprint = t.u64("footprint")?;
            if let Some(f) = footprint {
                if f < 256 {
                    return Err(invalid(format!(
                        "scenario footprint must be >= 256, got {f}"
                    )));
                }
            }
            t.finish()?;
            (name, seed, footprint)
        }
    };

    if phases.is_empty() {
        return Err(invalid(
            "a scenario needs at least one [[phase]]".to_string(),
        ));
    }

    let mut out_phases = Vec::with_capacity(phases.len());
    for (i, mut doc) in phases.into_iter().enumerate() {
        let phase_line = doc.tbl.line;
        let name = doc.tbl.str("name")?.unwrap_or_else(|| format!("phase-{i}"));
        let seed = doc.tbl.seed("seed")?;
        let length = doc.tbl.u64("length")?;
        let drift = doc.tbl.i64("drift")?.unwrap_or(0);
        doc.tbl.finish()?;

        let mut members = Vec::new();
        for mut t in doc.mixes {
            let weight = t.weight()?;
            let kind = parse_mix_member(&mut t)?;
            t.finish()?;
            members.push(MemberSpec { weight, kind });
        }
        for mut t in doc.regions {
            let weight = t.weight()?;
            let kind = parse_region_member(&mut t)?;
            t.finish()?;
            members.push(MemberSpec { weight, kind });
        }
        if members.is_empty() {
            return Err(ScnError::Parse {
                path: path.to_string(),
                line: phase_line,
                detail: format!("phase `{name}` has no [[phase.mix]] or [[phase.region]]"),
            });
        }
        out_phases.push(PhaseSpec {
            name,
            seed,
            length,
            drift,
            members,
        });
    }

    Ok((
        name,
        ScenarioSpec {
            seed,
            footprint,
            phases: out_phases,
        },
    ))
}

fn parse_mix_member(t: &mut Tbl<'_>) -> ScnResult<MemberKind> {
    let workload = t.str("workload")?;
    let pattern = t.str("pattern")?;
    match (workload, pattern) {
        (Some(_), Some(_)) => Err(t.err(
            t.line,
            "a mix entry is either a `workload` or a `pattern`, not both".to_string(),
        )),
        (None, None) => Err(t.err(
            t.line,
            "a mix entry needs a `workload` or a `pattern`".to_string(),
        )),
        (Some(w), None) => {
            let Some(kind) = WorkloadKind::from_name(&w) else {
                return Err(t.err(
                    t.line,
                    format!("unknown workload `{w}` (try `hoppsim --list`)"),
                ));
            };
            let footprint = t.u64("footprint")?;
            if let Some(f) = footprint {
                if f < 256 {
                    return Err(t.err(t.line, format!("mix footprint must be >= 256, got {f}")));
                }
            }
            let seed = t.seed("seed")?;
            Ok(MemberKind::Workload(WorkloadSpec {
                kind,
                footprint,
                seed,
            }))
        }
        (None, Some(p)) => parse_pattern(t, &p),
    }
}

fn parse_pattern(t: &mut Tbl<'_>, shape: &str) -> ScnResult<MemberKind> {
    let line = t.line;
    let path = t.path.to_string();
    let require = move |key: &str, v: Option<u64>| {
        v.ok_or_else(|| ScnError::Parse {
            path: path.clone(),
            line,
            detail: format!("{shape} pattern needs `{key}`"),
        })
    };
    let start = t.u64("start")?.unwrap_or(0);
    let lines = t.lines_count("lines")?;
    let think_ns = t.think("think")?;
    let spec = match shape {
        "simple" => {
            let len = require("len", t.u64("len")?)?;
            let stride = t.i64("stride")?.unwrap_or(1);
            let writes = t.bool("writes")?.unwrap_or(false);
            PatternSpec::Simple {
                start,
                len,
                stride,
                lines,
                think_ns,
                writes,
            }
        }
        "ladder" => {
            let rungs = require("rungs", t.u64("rungs")?)?;
            let rise = t
                .i64("rise")?
                .ok_or_else(|| t.err(line, "ladder pattern needs `rise`".to_string()))?;
            let tread = t.ints("tread")?.unwrap_or_else(|| vec![1]);
            if tread.is_empty() {
                return Err(t.err(line, "`tread` must not be empty".to_string()));
            }
            if tread.iter().any(|s| s.unsigned_abs() > MAX_PAGES) {
                return Err(t.err(line, format!("`tread` stride exceeds {MAX_PAGES} pages")));
            }
            PatternSpec::Ladder {
                start,
                rungs,
                tread,
                rise,
                lines,
                think_ns,
            }
        }
        "ripple" => {
            let len = require("len", t.u64("len")?)?;
            let jitter = t.f64("jitter")?.unwrap_or(0.2);
            if !(0.0..=1.0).contains(&jitter) {
                return Err(t.err(line, format!("`jitter` must be in 0..=1, got {jitter}")));
            }
            let hop_every = t.u64("hop_every")?.unwrap_or(0);
            let seed = t.seed("seed")?;
            PatternSpec::Ripple {
                start,
                len,
                jitter,
                hop_every,
                lines,
                think_ns,
                seed,
            }
        }
        "noise" => {
            let len = require("len", t.u64("len")?)?;
            let span = require("span", t.u64("span")?)?;
            if span == 0 {
                return Err(t.err(line, "`span` must be >= 1".to_string()));
            }
            let seed = t.seed("seed")?;
            PatternSpec::Noise {
                start,
                span,
                len,
                lines,
                seed,
            }
        }
        other => {
            return Err(t.err(
                line,
                format!("unknown pattern `{other}` (simple | ladder | ripple | noise)"),
            ))
        }
    };
    Ok(MemberKind::Pattern(spec))
}

fn parse_region_member(t: &mut Tbl<'_>) -> ScnResult<MemberKind> {
    let line = t.line;
    let object = t
        .str("object")?
        .ok_or_else(|| t.err(line, "a region needs an `object` label".to_string()))?;
    let base = t.u64("base")?.unwrap_or(0);
    let pages = t
        .u64("pages")?
        .ok_or_else(|| t.err(line, "a region needs `pages`".to_string()))?;
    if pages == 0 {
        return Err(t.err(line, "`pages` must be >= 1".to_string()));
    }
    let stride = t.i64("stride")?.unwrap_or(1);
    let repeat = t.u64("repeat")?.unwrap_or(1);
    if repeat == 0 {
        return Err(t.err(line, "`repeat` must be >= 1".to_string()));
    }
    let writes = t.bool("writes")?.unwrap_or(false);
    let lines = t.lines_count("lines")?;
    let think_ns = t.think("think")?;
    Ok(MemberKind::Region(RegionSpec {
        object,
        base,
        pages,
        stride,
        repeat,
        writes,
        lines,
        think_ns,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
# A kitchen-sink scenario exercising every table kind.
[scenario]
name = "kitchen-sink"
seed = 9
footprint = 1024

[[phase]]
name = "warmup"
length = 500
drift = 0

[[phase.mix]]
workload = "kmeans-omp"
weight = 3
footprint = 512

[[phase.mix]]
pattern = "simple"
start = 0
len = 300
stride = 2
writes = true
lines = 8
think = 10

[[phase]]
name = "steady"
drift = 128

[[phase.mix]]
pattern = "ripple"
start = 100
len = 400
jitter = 0.3
hop_every = 50

[[phase.mix]]
pattern = "noise"
start = 0
span = 2048
len = 100
weight = 2

[[phase.region]]
object = "hash-index"
base = 4096
pages = 32
repeat = 4
writes = true
weight = 2

[[phase]]
name = "drain"

[[phase.mix]]
pattern = "ladder"
start = 0
rungs = 50
tread = [2, 2, 2]
rise = 12
"#;

    fn collect(mut s: Box<dyn AccessStream>) -> Vec<PageAccess> {
        std::iter::from_fn(move || s.next_access()).collect()
    }

    #[test]
    fn kitchen_sink_parses_and_builds_deterministically() {
        let scn = Scenario::from_text(FULL, "test.toml", "fallback").unwrap();
        assert_eq!(scn.name, "kitchen-sink");
        assert_eq!(scn.spec.footprint, Some(1024));
        assert_eq!(scn.spec.phases.len(), 3);
        assert_eq!(scn.spec.phases[0].length, Some(500));
        assert_eq!(scn.spec.phases[1].members.len(), 3);

        let a = collect(scn.spec.build("kitchen-sink", Pid::new(1), 1024, 42));
        let b = collect(scn.spec.build("kitchen-sink", Pid::new(1), 1024, 42));
        assert_eq!(a, b, "same seed must give identical streams");
        let c = collect(scn.spec.build("kitchen-sink", Pid::new(1), 1024, 43));
        assert_ne!(a, c, "different seed must change the stream");
        assert!(!a.is_empty());
    }

    #[test]
    fn mix_workloads_resolve_like_the_cli() {
        let text = "\n[[phase]]\n[[phase.mix]]\nworkload = \"npbmg\"\n\
                    [[phase.mix]]\nworkload = \"kmeans\"\n";
        let scn = Scenario::from_text(text, "t.toml", "mix").unwrap();
        let kinds: Vec<WorkloadKind> = scn.spec.phases[0]
            .members
            .iter()
            .map(|m| match &m.kind {
                MemberKind::Workload(w) => w.kind,
                other => panic!("want a workload member, got {other:?}"),
            })
            .collect();
        assert_eq!(kinds, [WorkloadKind::NpbMg, WorkloadKind::Kmeans]);
        let unknown = "\n[[phase]]\n[[phase.mix]]\nworkload = \"npb\"\n";
        assert!(Scenario::from_text(unknown, "t.toml", "x").is_err());
    }

    #[test]
    fn stream_is_named_after_the_scenario() {
        let scn = Scenario::from_text(FULL, "t.toml", "x").unwrap();
        let s = scn.spec.build("kitchen-sink", Pid::new(1), 1024, 1);
        assert_eq!(s.name(), "kitchen-sink");
    }

    #[test]
    fn phase_length_caps_accesses() {
        let text = "\n[[phase]]\nlength = 10\n[[phase.mix]]\npattern = \"simple\"\nlen = 100\n";
        let scn = Scenario::from_text(text, "t.toml", "capped").unwrap();
        assert_eq!(
            collect(scn.spec.build("capped", Pid::new(1), 1024, 1)).len(),
            10
        );
    }

    #[test]
    fn drift_shifts_the_working_set() {
        let base = "\n[[phase]]\n[[phase.mix]]\npattern = \"simple\"\nstart = 10\nlen = 5\n";
        let drifted =
            "\n[[phase]]\ndrift = 100\n[[phase.mix]]\npattern = \"simple\"\nstart = 10\nlen = 5\n";
        let a = collect(
            Scenario::from_text(base, "t.toml", "a")
                .unwrap()
                .spec
                .build("a", Pid::new(1), 1024, 1),
        );
        let b = collect(
            Scenario::from_text(drifted, "t.toml", "b")
                .unwrap()
                .spec
                .build("b", Pid::new(1), 1024, 1),
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(y.vpn.raw(), x.vpn.raw() + 100);
        }
    }

    #[test]
    fn region_repeats_passes() {
        let text =
            "\n[[phase]]\n[[phase.region]]\nobject = \"o\"\nbase = 0\npages = 4\nrepeat = 3\n";
        let scn = Scenario::from_text(text, "t.toml", "r").unwrap();
        let v = collect(scn.spec.build("r", Pid::new(1), 1024, 1));
        assert_eq!(v.len(), 12);
        assert_eq!(v[0].vpn, v[4].vpn);
        assert_eq!(v[0].vpn, v[8].vpn);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad_key = "\n[scenario]\nwieght = 1\n";
        match Scenario::from_text(bad_key, "s.toml", "x") {
            Err(ScnError::Parse {
                line: 3, detail, ..
            }) => {
                assert!(detail.contains("wieght"), "{detail}");
            }
            other => panic!("want Parse at line 3, got {other:?}"),
        }

        let bad_table = "\n[nope]\n";
        assert!(matches!(
            Scenario::from_text(bad_table, "s.toml", "x"),
            Err(ScnError::Parse { line: 2, .. })
        ));

        let orphan_mix = "[[phase.mix]]\nworkload = \"kmeans\"\n";
        assert!(matches!(
            Scenario::from_text(orphan_mix, "s.toml", "x"),
            Err(ScnError::Parse { line: 1, .. })
        ));

        let no_phase = "[scenario]\nseed = 1\n";
        assert!(matches!(
            Scenario::from_text(no_phase, "s.toml", "x"),
            Err(ScnError::Invalid { .. })
        ));

        let empty_phase = "[[phase]]\nname = \"p\"\n";
        assert!(matches!(
            Scenario::from_text(empty_phase, "s.toml", "x"),
            Err(ScnError::Parse { line: 1, .. })
        ));

        let bad_jitter = "[[phase]]\n[[phase.mix]]\npattern = \"ripple\"\nlen = 10\njitter = 1.5\n";
        assert!(Scenario::from_text(bad_jitter, "s.toml", "x").is_err());

        let bad_workload = "[[phase]]\n[[phase.mix]]\nworkload = \"not-real\"\n";
        assert!(Scenario::from_text(bad_workload, "s.toml", "x").is_err());

        let zero_weight = "[[phase]]\n[[phase.mix]]\npattern = \"simple\"\nlen = 1\nweight = 0\n";
        assert!(Scenario::from_text(zero_weight, "s.toml", "x").is_err());
    }

    #[test]
    fn comments_and_unusual_whitespace_parse() {
        let text =
            "  [scenario]  # trailing\n  seed = 3 # note\n[[phase]]\n[[phase.mix]]\npattern = \"simple\" # shape\nlen = 1\n";
        let scn = Scenario::from_text(text, "t.toml", "ws").unwrap();
        assert_eq!(scn.spec.seed, 3);
    }

    #[test]
    fn content_hash_tracks_file_bytes() {
        let a = Scenario::from_text(FULL, "t.toml", "x").unwrap();
        let b = Scenario::from_text(&format!("{FULL}\n# touched"), "t.toml", "x").unwrap();
        assert_eq!(a.spec, b.spec, "a comment does not change the spec");
        assert_ne!(
            a.content_hash, b.content_hash,
            "…but it must re-key the cache"
        );
    }

    #[test]
    fn load_dir_sorts_by_file_name() {
        let dir = std::env::temp_dir().join(format!("hopp_scn_dir_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let minimal = "[[phase]]\n[[phase.mix]]\npattern = \"simple\"\nlen = 1\n";
        std::fs::write(dir.join("b-second.toml"), minimal).unwrap();
        std::fs::write(dir.join("a-first.toml"), minimal).unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a scenario").unwrap();
        let loaded = load_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            loaded.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            ["a-first", "b-second"]
        );
    }

    #[test]
    fn explicit_member_seed_pins_the_member() {
        let text =
            "[[phase]]\n[[phase.mix]]\npattern = \"noise\"\nlen = 20\nspan = 100\nseed = 5\n";
        let scn = Scenario::from_text(text, "t.toml", "pin").unwrap();
        let a = collect(scn.spec.build("pin", Pid::new(1), 1024, 1));
        let b = collect(scn.spec.build("pin", Pid::new(1), 1024, 2));
        assert_eq!(a, b, "pinned seed ignores the caller seed");
    }
}
