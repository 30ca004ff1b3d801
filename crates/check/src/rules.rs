//! The four rule implementations.

use std::path::Path;

use crate::lexer::Line;
use crate::{FileContext, Finding, Rule};

/// Crates whose code runs inside the simulated clock domain. Everything
/// here must be deterministic and panic-free; harness crates (`trace`
/// file IO, `obs` exporters, `workloads` generators, `bench`, the
/// checker itself) are exempt from those two rules but not from unit
/// hygiene.
pub const SIM_CRITICAL_CRATES: [&str; 9] = [
    "hw",
    "kernel",
    "mem",
    "net",
    "fabric",
    "core",
    "sim",
    "baselines",
    "scenario",
];

/// Crates that are host-side tooling by design: measurement harnesses,
/// exporters, generators and the checker itself. Exempt from the
/// sim-critical determinism/panic rules (but not from unit hygiene,
/// ordering-sensitivity or the unsafe audit).
///
/// Together with [`SIM_CRITICAL_CRATES`] this must cover every
/// directory under `crates/`: `check_crate_classification` fails the
/// check when a workspace member is in neither list, so a new crate
/// cannot silently skip analysis.
pub const HARNESS_CRATES: [&str; 8] = [
    "bench",
    "check",
    "obs",
    "prof",
    "trace",
    "types",
    "workloads",
    "xtask",
];

/// ID newtypes whose raw values must not be `as`-cast outside
/// `crates/types` (the one place allowed to define conversions).
const ID_NEWTYPES: [&str; 6] = ["Vpn", "Ppn", "Pid", "NodeId", "LineAddr", "SwapSlot"];

/// Identifiers banned in sim-critical code: wall-clock time, OS
/// randomness and threading have no place inside the simulated clock
/// domain, and default-hasher collections iterate in a random order.
///
/// Carve-out: `hopp_prof::span(..)` scope guards are the one sanctioned
/// host-timing probe in sim-critical code. The guard records host time
/// into thread-local profiler state but never returns the measured
/// value, so host time cannot leak into simulated state; the raw reads
/// (`Instant`, `hopp_prof::host_now_ns`) stay banned.
const DETERMINISM_BANS: [(&str, &str); 8] = [
    (
        "Instant",
        "wall-clock time in sim code; simulated time is `Nanos` carried by the event loop",
    ),
    (
        "SystemTime",
        "wall-clock time in sim code; simulated time is `Nanos` carried by the event loop",
    ),
    (
        "thread::spawn",
        "threads in sim code break deterministic replay; the simulator is single-threaded by design",
    ),
    (
        "thread::scope",
        "threads in sim code break deterministic replay; the simulator is single-threaded by design",
    ),
    (
        "host_now_ns",
        "raw host-clock read in sim code; use a `hopp_prof::span(..)` guard, which times \
         host work without ever handing the measured value back to the caller",
    ),
    (
        "rand::",
        "OS randomness in sim code; use the seeded `hopp_types::rng` SplitMix64",
    ),
    (
        "HashMap",
        "default-hasher map iterates in random order; use `BTreeMap`, or a `Vec` indexed \
         by page or frame number for dense keys",
    ),
    (
        "HashSet",
        "default-hasher set iterates in random order; use `BTreeSet`",
    ),
];

/// Thread primitives banned *everywhere* in the workspace except the
/// one sanctioned home: the hopp-lab pool in `crates/bench/src/lab.rs`.
/// Harness crates are exempt from the sim-critical determinism rule,
/// but ad-hoc threading there still produces artifacts whose byte
/// stability nobody audited — so parallel work must route through the
/// pool, which guarantees grid-order aggregation at any thread count.
const THREAD_BANS: [(&str, &str); 2] = [
    (
        "thread::spawn",
        "ad-hoc threads outside the sanctioned pool; route parallel work through \
         `hopp_bench::lab::run_indexed` (crates/bench/src/lab.rs), which preserves \
         deterministic output order",
    ),
    (
        "thread::scope",
        "ad-hoc threads outside the sanctioned pool; route parallel work through \
         `hopp_bench::lab::run_indexed` (crates/bench/src/lab.rs), which preserves \
         deterministic output order",
    ),
];

/// Panicking forms banned in non-test hot-path code. `assert!` /
/// `debug_assert!` stay allowed: they state contracts, while these
/// forms swallow recoverable failures that should travel as errors.
const PANIC_BANS: [(&str, &str); 5] = [
    (
        ".unwrap()",
        "propagate a typed error (`?`) or handle the `None`/`Err` case",
    ),
    (
        ".expect(",
        "propagate a typed error (`?`) instead of panicking with a message",
    ),
    (
        "panic!(",
        "return a typed `hopp_types::Error` so callers can report context",
    ),
    (
        "unreachable!(",
        "make the invariant a type or return a typed error",
    ),
    ("todo!(", "unimplemented code must not ship in hot paths"),
];

/// Runs the per-file rules over one lexed file.
pub fn check_file(ctx: &mut FileContext<'_>, findings: &mut Vec<Finding>) {
    let sim_critical = SIM_CRITICAL_CRATES.contains(&ctx.krate);
    // The whole `benches/` tree is measurement harness, not sim code.
    let is_bench = ctx.rel.contains("/benches/");
    // The one sanctioned home for threads in the whole workspace.
    let is_lab_pool = ctx.rel == "crates/bench/src/lab.rs";
    for (idx, line) in ctx.lexed.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let lineno = idx + 1;
        if sim_critical && !is_bench {
            check_determinism(ctx, line, lineno, findings);
            check_panic_policy(ctx, line, lineno, findings);
        } else if !is_lab_pool {
            // Harness code escapes the full determinism rule, but not
            // the workspace-wide thread policy: parallelism must route
            // through the hopp-lab pool so output stays byte-stable.
            check_thread_policy(ctx, line, lineno, findings);
        }
        if ctx.krate != "types" && ctx.krate != "check" {
            check_unit_hygiene(ctx, line, lineno, findings);
        }
    }
    // The scope-aware passes: determinism taint-flow (sim-critical
    // only) and ordering-sensitivity (everywhere), then the line-level
    // unsafe audit (everywhere).
    let toks = crate::lexer::tokenize(&ctx.lexed);
    crate::dataflow::check_dataflow(ctx, &toks, sim_critical && !is_bench, findings);
    crate::dataflow::check_unsafe_audit(ctx, findings);
}

fn check_determinism(
    ctx: &FileContext<'_>,
    line: &Line,
    lineno: usize,
    findings: &mut Vec<Finding>,
) {
    for (needle, steer) in DETERMINISM_BANS {
        if contains_ident(&line.code, needle) {
            findings.push(Finding {
                rule: Rule::Determinism,
                file: ctx.rel.clone(),
                line: lineno,
                message: format!("`{needle}`: {steer}"),
            });
        }
    }
}

fn check_thread_policy(
    ctx: &FileContext<'_>,
    line: &Line,
    lineno: usize,
    findings: &mut Vec<Finding>,
) {
    for (needle, steer) in THREAD_BANS {
        if contains_ident(&line.code, needle) {
            findings.push(Finding {
                rule: Rule::Determinism,
                file: ctx.rel.clone(),
                line: lineno,
                message: format!("`{needle}`: {steer}"),
            });
        }
    }
}

fn check_panic_policy(
    ctx: &FileContext<'_>,
    line: &Line,
    lineno: usize,
    findings: &mut Vec<Finding>,
) {
    for (needle, steer) in PANIC_BANS {
        if line.code.contains(needle) {
            findings.push(Finding {
                rule: Rule::PanicPolicy,
                file: ctx.rel.clone(),
                line: lineno,
                message: format!("`{}`: {steer}", needle.trim_end_matches('(')),
            });
        }
    }
}

fn check_unit_hygiene(
    ctx: &FileContext<'_>,
    line: &Line,
    lineno: usize,
    findings: &mut Vec<Finding>,
) {
    // Casting a newtype's raw value: `x.raw() as usize` loses the unit.
    if line.code.contains(".raw() as ") {
        findings.push(Finding {
            rule: Rule::UnitHygiene,
            file: ctx.rel.clone(),
            line: lineno,
            message: "`.raw() as …` cast loses the ID's unit; add/use an explicit \
                      conversion method on the newtype (e.g. `Ppn::index()`)"
                .to_string(),
        });
    }
    // Constructing a newtype from a cast: `NodeId::new(i as u16)` can
    // silently truncate and hides unit conversions from review.
    for ty in ID_NEWTYPES {
        let needle = format!("{ty}::new(");
        let mut start = 0;
        while let Some(pos) = line.code[start..].find(&needle) {
            let open = start + pos + needle.len() - 1;
            let args = argument_span(&line.code, open);
            if args.contains(" as ") {
                findings.push(Finding {
                    rule: Rule::UnitHygiene,
                    file: ctx.rel.clone(),
                    line: lineno,
                    message: format!(
                        "`{ty}::new(… as …)` builds an ID from a raw cast; use an explicit \
                         conversion constructor on `{ty}` (defined in `crates/types`)"
                    ),
                });
                break;
            }
            start = open + 1;
        }
    }
}

/// The text between the paren at `open` and its match (or end of line).
fn argument_span(code: &str, open: usize) -> &str {
    let bytes = code.as_bytes();
    let mut depth = 0i32;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return &code[open + 1..i];
                }
            }
            _ => {}
        }
    }
    &code[open + 1..]
}

/// Word-boundary containment: `HashMap` matches `HashMap::new` but not
/// `MyHashMapLike` or `hash_map`.
fn contains_ident(code: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || {
            let c = code[..at].chars().next_back().unwrap_or(' ');
            !(c.is_alphanumeric() || c == '_')
        };
        let end = at + needle.len();
        let after_ok = end >= code.len() || {
            let c = code[end..].chars().next().unwrap_or(' ');
            !(c.is_alphanumeric() || c == '_')
        };
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Rule 4: every `SimConfig` field must be documented in
/// `docs/config.md` with a CLI flag that actually exists in the
/// `hoppsim` binary's source. The docs table *is* the mapping; drift in
/// any of the three places (struct, docs, CLI) surfaces here.
///
/// Sub-check: when the CLI ships a `fn usage()` help text, every flag
/// with a match arm must be listed in it — an arm with no usage line is
/// invisible to users and drifts out of the docs unnoticed. Gated on
/// `fn usage(` being present so minimal fixtures stay valid.
pub fn check_config_drift(root: &Path, findings: &mut Vec<Finding>) {
    let config_rs = root.join("crates/sim/src/config.rs");
    let hoppsim_rs = root.join("crates/sim/src/bin/hoppsim.rs");
    let docs_md = root.join("docs/config.md");
    let mut missing = |file: &Path, what: &str| {
        findings.push(Finding {
            rule: Rule::ConfigDrift,
            file: crate::relative_to(root, file),
            line: 1,
            message: format!("{what} not found; the config-drift rule needs it"),
        });
    };
    let Ok(config_src) = std::fs::read_to_string(&config_rs) else {
        missing(&config_rs, "SimConfig source");
        return;
    };
    let Ok(hoppsim_src) = std::fs::read_to_string(&hoppsim_rs) else {
        missing(&hoppsim_rs, "hoppsim CLI source");
        return;
    };
    let Ok(docs_src) = std::fs::read_to_string(&docs_md) else {
        missing(&docs_md, "docs/config.md mapping table");
        return;
    };

    let fields = sim_config_fields(&config_src);
    let rows = config_table_rows(&docs_src);
    let docs_rel = crate::relative_to(root, &docs_md);

    for (field, lineno) in &fields {
        match rows.iter().find(|(f, _, _)| f == field) {
            None => findings.push(Finding {
                rule: Rule::ConfigDrift,
                file: crate::relative_to(root, &config_rs),
                line: *lineno,
                message: format!(
                    "`SimConfig::{field}` has no row in docs/config.md; document it and its \
                     CLI flag"
                ),
            }),
            Some((_, flag, row_line)) => {
                if !hoppsim_src.contains(flag.as_str()) {
                    findings.push(Finding {
                        rule: Rule::ConfigDrift,
                        file: docs_rel.clone(),
                        line: *row_line,
                        message: format!(
                            "`SimConfig::{field}` is documented with flag `{flag}`, but hoppsim \
                             does not implement that flag"
                        ),
                    });
                }
            }
        }
    }
    for (field, _, row_line) in &rows {
        if !fields.iter().any(|(f, _)| f == field) {
            findings.push(Finding {
                rule: Rule::ConfigDrift,
                file: docs_rel.clone(),
                line: *row_line,
                message: format!(
                    "docs/config.md documents `{field}`, which is not a SimConfig field; \
                     remove the stale row"
                ),
            });
        }
    }

    if hoppsim_src.contains("fn usage(") {
        let listed = usage_region_flags(&hoppsim_src);
        let hoppsim_rel = crate::relative_to(root, &hoppsim_rs);
        for (flag, lineno) in cli_arm_flags(&hoppsim_src) {
            if !listed.iter().any(|l| l == &flag) {
                findings.push(Finding {
                    rule: Rule::ConfigDrift,
                    file: hoppsim_rel.clone(),
                    line: lineno,
                    message: format!(
                        "CLI flag `{flag}` has a match arm but no `usage()` line; list it \
                         so the help text and docs/config.md can track it"
                    ),
                });
            }
        }
    }
}

/// Extracts `(flag, line)` for every CLI match arm (`"--x" => …`, or
/// `"--x" | "-y" => …`): lines whose trimmed form opens with a string
/// literal and that contain `=>`, taking only flags left of the arrow
/// so `value("--x")` calls in the arm body are not double-counted.
fn cli_arm_flags(src: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let t = line.trim_start();
        if !t.starts_with('"') {
            continue;
        }
        let Some(arrow) = t.find("=>") else { continue };
        for flag in flag_tokens(&t[..arrow]) {
            out.push((flag, idx + 1));
        }
    }
    out
}

/// Flags listed in the `usage()` help text: everything between
/// `fn usage(` and the function's closing brace in column 0.
fn usage_region_flags(src: &str) -> Vec<String> {
    let mut flags = Vec::new();
    let mut inside = false;
    for line in src.lines() {
        if line.contains("fn usage(") {
            inside = true;
            continue;
        }
        if inside {
            if line.starts_with('}') {
                break;
            }
            flags.extend(flag_tokens(line));
        }
    }
    flags
}

/// `--[a-z][a-z0-9-]*` tokens in `s` (long flags only; `-h` shorthands
/// are aliases of a long flag and not tracked).
fn flag_tokens(s: &str) -> Vec<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 2 < bytes.len() {
        if bytes[i] == b'-' && bytes[i + 1] == b'-' && bytes[i + 2].is_ascii_lowercase() {
            if i > 0 && bytes[i - 1] == b'-' {
                i += 1;
                continue;
            }
            let mut end = i + 2;
            while end < bytes.len()
                && (bytes[end].is_ascii_lowercase()
                    || bytes[end].is_ascii_digit()
                    || bytes[end] == b'-')
            {
                end += 1;
            }
            out.push(s[i..end].trim_end_matches('-').to_string());
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

/// Extracts `(field, line)` pairs from `pub struct SimConfig { … }`.
fn sim_config_fields(src: &str) -> Vec<(String, usize)> {
    let lexed = crate::lexer::lex(src);
    let mut fields = Vec::new();
    let mut inside = false;
    let mut depth = 0i32;
    for (idx, line) in lexed.lines.iter().enumerate() {
        let code = line.code.trim();
        if code.starts_with("pub struct SimConfig") {
            inside = true;
        }
        if inside {
            if let Some(rest) = code.strip_prefix("pub ") {
                if let Some(colon) = rest.find(':') {
                    let name = rest[..colon].trim();
                    if depth == 1
                        && !name.contains('(')
                        && name.chars().all(|c| c.is_alphanumeric() || c == '_')
                        && !name.is_empty()
                    {
                        fields.push((name.to_string(), idx + 1));
                    }
                }
            }
            for c in line.code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            return fields;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    fields
}

/// Every directory under `crates/` must be classified: either
/// sim-critical (full determinism/panic rules) or harness (exempt from
/// those two). An unclassified crate is a finding — previously the
/// hand-maintained [`SIM_CRITICAL_CRATES`] list could silently go
/// stale when a crate was added, leaving it unanalysed.
///
/// The reverse direction (a list entry whose directory no longer
/// exists) is only checked when the root carries a `Cargo.toml`, so
/// fixture mini-workspaces with a handful of crates stay valid.
pub fn check_crate_classification(root: &Path, findings: &mut Vec<Finding>) {
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return; // absence of crates/ is reported by the file walker
    };
    let mut members: Vec<String> = entries
        .flatten()
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    members.sort();
    for name in &members {
        let classified =
            SIM_CRITICAL_CRATES.contains(&name.as_str()) || HARNESS_CRATES.contains(&name.as_str());
        if !classified {
            findings.push(Finding {
                rule: Rule::ConfigDrift,
                file: format!("crates/{name}"),
                line: 1,
                message: format!(
                    "crate `{name}` is not classified in crates/check/src/rules.rs; add it \
                     to SIM_CRITICAL_CRATES (runs inside the simulated clock domain) or \
                     HARNESS_CRATES (host-side tooling) so the checker knows which rules \
                     apply"
                ),
            });
        }
    }
    if root.join("Cargo.toml").exists() {
        for (list, entry) in SIM_CRITICAL_CRATES
            .iter()
            .map(|c| ("SIM_CRITICAL_CRATES", *c))
            .chain(HARNESS_CRATES.iter().map(|c| ("HARNESS_CRATES", *c)))
        {
            if !members.iter().any(|m| m == entry) {
                findings.push(Finding {
                    rule: Rule::ConfigDrift,
                    file: "crates/check/src/rules.rs".to_string(),
                    line: 1,
                    message: format!(
                        "{list} entry `{entry}` has no crates/{entry}/ directory; remove \
                         the stale entry"
                    ),
                });
            }
        }
    }
}

/// Parses `| field | --flag | … |` rows out of the docs table.
fn config_table_rows(src: &str) -> Vec<(String, String, usize)> {
    let mut rows = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let t = line.trim();
        if !t.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = t.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 2 {
            continue;
        }
        let field = cells[0].trim_matches('`').to_string();
        let flag = cells[1].trim_matches('`').to_string();
        if field.is_empty() || field == "field" || field.starts_with('-') {
            continue; // header or separator row
        }
        rows.push((field, flag, idx + 1));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_matching_respects_word_boundaries() {
        assert!(contains_ident("let m = HashMap::new();", "HashMap"));
        assert!(contains_ident("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_ident("struct MyHashMapLike;", "HashMap"));
        assert!(!contains_ident("let hash_map = 1;", "HashMap"));
        assert!(contains_ident("std::thread::spawn(f)", "thread::spawn"));
    }

    #[test]
    fn argument_span_matches_parens() {
        let code = "NodeId::new(f(x) as u16, y)";
        let open = code.find("new(").unwrap() + 3;
        assert_eq!(argument_span(code, open), "f(x) as u16, y");
    }

    #[test]
    fn sim_config_fields_parse() {
        let src = "\
/// Docs.
pub struct SimConfig {
    /// The LLC.
    pub llc: LlcConfig,
    pub channels: usize,
}
pub struct Other { pub nope: u8 }
";
        let fields = sim_config_fields(src);
        assert_eq!(
            fields.iter().map(|(f, _)| f.as_str()).collect::<Vec<_>>(),
            ["llc", "channels"]
        );
    }

    #[test]
    fn cli_arm_flags_take_only_the_pattern_side() {
        let src = "\
fn main() {
    match flag.as_str() {
        \"--llc-kb\" => drop(value(\"--other\")),
        \"--help\" | \"-h\" => usage(),
        \"bursty\" => {}
        _ => usage(),
    }
}
";
        let got = cli_arm_flags(src);
        assert_eq!(
            got,
            vec![("--llc-kb".to_string(), 3), ("--help".to_string(), 4)]
        );
    }

    #[test]
    fn usage_flags_stop_at_the_closing_brace() {
        let src = "\
fn usage() -> ! {
    eprintln!(\"--a <n>  thing\\n  --b  other (see --c)\");
}

fn main() {
    let _ = \"--not-usage\";
}
";
        assert_eq!(usage_region_flags(src), ["--a", "--b", "--c"]);
    }

    #[test]
    fn flag_tokens_need_exactly_two_dashes() {
        assert_eq!(flag_tokens("--x ---y -z --ok-2"), ["--x", "--ok-2"]);
        assert!(flag_tokens("a - b").is_empty());
    }

    #[test]
    fn config_rows_skip_headers() {
        let rows = config_table_rows("| field | flag |\n|---|---|\n| `llc` | `--llc-kb` |\n");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "llc");
        assert_eq!(rows[0].1, "--llc-kb");
    }
}
