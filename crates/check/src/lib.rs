#![warn(missing_docs)]
//! `hopp-check` — workspace-local static analysis for the HoPP stack.
//!
//! The simulation's value rests on *deterministic*, cycle-approximate
//! replay: identical seeds and fault scripts must produce byte-identical
//! reports. Tests catch regressions after the fact; this crate stops the
//! common ways of breaking that contract from compiling into `main` at
//! all, as machine-checkable rules over the whole workspace:
//!
//! * [`Rule::Determinism`] — no wall-clock time, OS randomness, threads
//!   or default-hasher `HashMap`/`HashSet` in sim-critical crates; and,
//!   workspace-wide, no ad-hoc `thread::spawn`/`thread::scope` anywhere
//!   outside the sanctioned hopp-lab pool (`crates/bench/src/lab.rs`),
//!   whose indexed-slot design keeps output byte-identical at any
//!   thread count. One carve-out: `hopp_prof::span(..)` guards may time
//!   host work even in sim-critical crates, because the guard never
//!   returns the measured value (raw reads like `Instant::now()` or
//!   `hopp_prof::host_now_ns()` stay banned);
//! * [`Rule::DeterminismTaint`] — scope-aware taint tracking: a value
//!   *derived* from a banned host source (through let-bindings,
//!   reassignments and same-file function returns) must not flow into
//!   a sim-state field assignment or out of a function. The identifier
//!   ban above sees `Instant::now()`; this sees `state.ns = t.elapsed()`
//!   two statements later;
//! * [`Rule::OrderingSensitivity`] — iterating an unordered
//!   `HashMap`/`HashSet` must not mutate state or emit output that
//!   outlives the loop, *workspace-wide*: harness crates escape the
//!   blanket `HashMap` ban, but artifact bytes must not depend on hash
//!   order. `BTreeMap` and index-ordered tables iterate
//!   deterministically and are never flagged;
//! * [`Rule::PanicPolicy`] — no `unwrap`/`expect`/`panic!` in non-test
//!   hot-path code; failures travel as [`hopp_types::Error`]-style typed
//!   errors instead;
//! * [`Rule::UnitHygiene`] — no raw `as` casts into or out of the ID
//!   newtypes (`Vpn`, `Ppn`, …) outside `crates/types`; use the explicit
//!   conversion methods;
//! * [`Rule::UnsafeAudit`] — every `unsafe` carries an adjacent
//!   `// SAFETY:` comment (same line or up to three lines above);
//! * [`Rule::ConfigDrift`] — every `SimConfig` field is documented in
//!   `docs/config.md` and reachable from a `hoppsim` CLI flag, every
//!   CLI flag with a match arm is listed in `usage()`, and every
//!   workspace crate is classified sim-critical or harness in
//!   [`rules`](SIM_CRITICAL_CRATES)' lists (a new crate cannot silently
//!   skip analysis).
//!
//! Individual findings can be waived in place with
//! `// hopp-check: allow(<rule>): <reason>`; each waiver suppresses
//! exactly one finding (the first on its target line) and must carry a
//! reason. Unused waivers are themselves findings, so the waiver budget
//! only ever shrinks. Run via `cargo xtask check`; `--sarif <path>`
//! exports SARIF 2.1.0 ([`sarif`]), `--waivers` prints the per-rule
//! waiver/budget table, and the committed `check-baseline.json`
//! ([`baseline`]) ratchets the finding count monotonically downward.
//!
//! The checker has no external dependencies by design (the build
//! environment is offline): instead of `syn` it uses a small
//! comment/string/test-aware lexer plus a brace/scope-tracking token
//! pass ([`lexer`]), which is exact for the token-level invariants
//! enforced here and a sound best-effort for the dataflow analyses.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod baseline;
mod dataflow;
pub mod lexer;
mod rules;
pub mod sarif;

pub use hopp_types::json;
pub use rules::{HARNESS_CRATES, SIM_CRITICAL_CRATES};

/// The rules `hopp-check` enforces.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Rule {
    /// Wall-clock, randomness, threads, unordered hashing in sim code.
    Determinism,
    /// Host state laundered through bindings into sim state/returns.
    DeterminismTaint,
    /// Hash-order iteration driving state mutation or output.
    OrderingSensitivity,
    /// `unwrap()`/`expect()`/`panic!` in non-test hot-path code.
    PanicPolicy,
    /// Raw `as` casts into/out of ID newtypes outside `crates/types`.
    UnitHygiene,
    /// `unsafe` without an adjacent `// SAFETY:` justification.
    UnsafeAudit,
    /// `SimConfig` fields without a CLI flag or documentation row,
    /// and workspace crates missing a sim-critical/harness class.
    ConfigDrift,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: [Rule; 7] = [
        Rule::Determinism,
        Rule::DeterminismTaint,
        Rule::OrderingSensitivity,
        Rule::PanicPolicy,
        Rule::UnitHygiene,
        Rule::UnsafeAudit,
        Rule::ConfigDrift,
    ];

    /// The rule's waiver name (`allow(<name>)`), also the SARIF ruleId.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::OrderingSensitivity => "ordering-sensitivity",
            Rule::PanicPolicy => "panic-policy",
            Rule::UnitHygiene => "unit-hygiene",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::ConfigDrift => "config-drift",
        }
    }

    /// Stable short rule ID (`HC01`…), never reused or renumbered —
    /// baselines and SARIF dashboards key on it.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Determinism => "HC01",
            Rule::DeterminismTaint => "HC02",
            Rule::OrderingSensitivity => "HC03",
            Rule::PanicPolicy => "HC04",
            Rule::UnitHygiene => "HC05",
            Rule::UnsafeAudit => "HC06",
            Rule::ConfigDrift => "HC07",
        }
    }

    /// One-line description (SARIF rule metadata).
    pub fn describe(self) -> &'static str {
        match self {
            Rule::Determinism => {
                "No wall-clock time, OS randomness, threads or default-hasher collections \
                 in sim-critical crates; no ad-hoc threads anywhere outside the hopp-lab pool."
            }
            Rule::DeterminismTaint => {
                "Values derived from host time/randomness must not flow through bindings \
                 into sim state fields or function returns (scope-aware taint tracking)."
            }
            Rule::OrderingSensitivity => {
                "Iterating an unordered HashMap/HashSet must not mutate state or emit \
                 output that outlives the loop; hash order varies per process."
            }
            Rule::PanicPolicy => {
                "No unwrap/expect/panic!/unreachable!/todo! in non-test sim-critical code; \
                 failures travel as typed errors."
            }
            Rule::UnitHygiene => {
                "No raw `as` casts into or out of the ID newtypes outside crates/types; \
                 use the explicit conversion methods."
            }
            Rule::UnsafeAudit => {
                "Every `unsafe` carries an adjacent `// SAFETY:` comment stating the \
                 invariant that makes it sound."
            }
            Rule::ConfigDrift => {
                "SimConfig fields, docs/config.md rows, hoppsim flags and the sim-critical \
                 crate classification must not drift apart."
            }
        }
    }

    fn parse(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What was found and what to use instead.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One waiver comment, as seen by the checker (for the `--waivers`
/// table and stale-waiver reporting).
#[derive(Clone, Debug)]
pub struct WaiverRecord {
    /// Workspace-relative file the waiver sits in.
    pub file: String,
    /// 1-based line of the waiver comment.
    pub line: usize,
    /// The waived rule.
    pub rule: Rule,
    /// The reason text after `allow(<rule>):` (may be empty).
    pub reason: String,
    /// True when the waiver suppressed a finding this run.
    pub used: bool,
}

/// Outcome of a whole-workspace check.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Unwaived findings, sorted by file then line.
    pub findings: Vec<Finding>,
    /// Waivers that suppressed a finding, per rule.
    pub waived: BTreeMap<&'static str, usize>,
    /// Every waiver comment seen, in file order (used and stale).
    pub waivers: Vec<WaiverRecord>,
    /// Source files analysed.
    pub files_checked: usize,
}

impl CheckReport {
    /// Total waivers spent across all rules (the waiver budget).
    pub fn waiver_budget(&self) -> usize {
        self.waived.values().sum()
    }

    /// True when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable summary (findings then budget).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut o = String::new();
        for f in &self.findings {
            let _ = writeln!(o, "{f}");
        }
        let _ = writeln!(
            o,
            "hopp-check: {} file(s), {} finding(s), {} waiver(s) spent",
            self.files_checked,
            self.findings.len(),
            self.waiver_budget()
        );
        for rule in Rule::ALL {
            let waived = self.waived.get(rule.name()).copied().unwrap_or(0);
            let found = self.findings.iter().filter(|f| f.rule == rule).count();
            let _ = writeln!(
                o,
                "  {:<20} {found} finding(s), {waived} waived",
                rule.name()
            );
        }
        o
    }

    /// Renders the per-rule waiver/budget table (`--waivers`): every
    /// waiver comment in the workspace with its location, reason and
    /// whether it suppressed a finding this run.
    pub fn render_waivers(&self) -> String {
        use std::fmt::Write as _;
        let mut o = String::new();
        let _ = writeln!(
            o,
            "hopp-check waivers: {} comment(s), {} spent",
            self.waivers.len(),
            self.waiver_budget()
        );
        for rule in Rule::ALL {
            let of_rule: Vec<&WaiverRecord> =
                self.waivers.iter().filter(|w| w.rule == rule).collect();
            let spent = self.waived.get(rule.name()).copied().unwrap_or(0);
            let _ = writeln!(
                o,
                "  {:<20} {} waiver(s), {spent} spent",
                rule.name(),
                of_rule.len()
            );
            for w in of_rule {
                let status = if w.used { "used " } else { "STALE" };
                let reason = if w.reason.is_empty() {
                    "<no reason>"
                } else {
                    &w.reason
                };
                let _ = writeln!(o, "    {status} {}:{}  {reason}", w.file, w.line);
            }
        }
        o
    }
}

/// A parsed waiver comment.
#[derive(Clone, Debug)]
struct Waiver {
    rule: Rule,
    /// Line the waiver applies to (its own line, or the next code line
    /// for standalone comment lines).
    target_line: usize,
    /// Line the waiver text sits on (for unused-waiver findings).
    at_line: usize,
    used: bool,
    /// The reason text after `allow(<rule>):` (empty = reason-less).
    reason: String,
}

impl Waiver {
    fn has_reason(&self) -> bool {
        !self.reason.is_empty()
    }
}

/// What the scanner knows about one file.
struct FileContext<'a> {
    /// Workspace-relative path with `/` separators.
    rel: String,
    /// Crate name (`hw`, `kernel`, …) or `"hopp"` for the root package.
    krate: &'a str,
    lexed: lexer::LexedFile,
    waivers: Vec<Waiver>,
}

/// Runs every rule over the workspace rooted at `root`.
///
/// # Errors
///
/// Returns an IO error message when the workspace layout cannot be read.
pub fn run(root: &Path) -> Result<CheckReport, String> {
    let mut report = CheckReport::default();
    let mut findings = Vec::new();
    let mut files = collect_workspace_files(root)?;
    files.sort();
    for (krate, path) in &files {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = relative_to(root, path);
        let mut ctx = FileContext {
            rel,
            krate,
            lexed: lexer::lex(&src),
            waivers: Vec::new(),
        };
        collect_waivers(&mut ctx);
        rules::check_file(&mut ctx, &mut findings);
        settle_waivers(&ctx, &mut findings, &mut report);
        report.files_checked += 1;
    }
    rules::check_config_drift(root, &mut findings);
    rules::check_crate_classification(root, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report.findings = findings;
    Ok(report)
}

/// Collects `(crate-name, path)` for every `.rs` file the rules cover:
/// each workspace crate's `src/` and `benches/`, plus the root
/// package's `src/` and `examples/`. Integration-test trees are
/// excluded wholesale (they are test code by definition).
fn collect_workspace_files(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if !path.is_dir() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        for sub in ["src", "benches"] {
            walk_rs(&path.join(sub), &mut |p| out.push((name.clone(), p)));
        }
    }
    for sub in ["src", "examples"] {
        walk_rs(&root.join(sub), &mut |p| out.push(("hopp".to_string(), p)));
    }
    Ok(out)
}

fn walk_rs(dir: &Path, f: &mut impl FnMut(PathBuf)) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk_rs(&path, f);
        } else if path.extension().is_some_and(|e| e == "rs") {
            f(path);
        }
    }
}

fn relative_to(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Parses `hopp-check: allow(<rule>): <reason>` waivers out of comments.
fn collect_waivers(ctx: &mut FileContext<'_>) {
    const TAG: &str = "hopp-check: allow(";
    for (idx, line) in ctx.lexed.lines.iter().enumerate() {
        let Some(pos) = line.comment.find(TAG) else {
            continue;
        };
        let rest = &line.comment[pos + TAG.len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let Some(rule) = Rule::parse(&rest[..close]) else {
            continue;
        };
        let after = rest[close + 1..].trim_start_matches(':').trim();
        // A standalone comment line waives the next line; a trailing
        // comment waives its own line.
        let target_line = if line.code.trim().is_empty() {
            idx + 2
        } else {
            idx + 1
        };
        ctx.waivers.push(Waiver {
            rule,
            target_line,
            at_line: idx + 1,
            used: false,
            reason: after.to_string(),
        });
    }
}

/// Applies waivers to findings in `ctx`'s file: each waiver suppresses
/// the first matching finding on its target line. Unused or reason-less
/// waivers become findings themselves.
fn settle_waivers(ctx: &FileContext<'_>, findings: &mut Vec<Finding>, report: &mut CheckReport) {
    let waived = &mut report.waived;
    let mut waivers: Vec<Waiver> = ctx.waivers.clone();
    findings.retain(|f| {
        if f.file != ctx.rel {
            return true;
        }
        for w in waivers.iter_mut() {
            if !w.used && w.has_reason() && w.rule == f.rule && w.target_line == f.line {
                w.used = true;
                *waived.entry(f.rule.name()).or_insert(0) += 1;
                return false;
            }
        }
        true
    });
    for w in &waivers {
        if !w.has_reason() {
            findings.push(Finding {
                rule: w.rule,
                file: ctx.rel.clone(),
                line: w.at_line,
                message: format!(
                    "waiver for `{}` has no reason; write `hopp-check: allow({}): <why>`",
                    w.rule, w.rule
                ),
            });
        } else if !w.used {
            findings.push(Finding {
                rule: w.rule,
                file: ctx.rel.clone(),
                line: w.at_line,
                message: format!(
                    "unused waiver: no `{}` finding on line {}; delete it",
                    w.rule, w.target_line
                ),
            });
        }
        report.waivers.push(WaiverRecord {
            file: ctx.rel.clone(),
            line: w.at_line,
            rule: w.rule,
            reason: w.reason.clone(),
            used: w.used,
        });
    }
}
