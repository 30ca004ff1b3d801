//! Scope-aware dataflow analyses over the token stream.
//!
//! The v1 checker was line-regex lexing: it could ban the identifier
//! `Instant`, but not see the *value* of `Instant::now()` laundered
//! through a `let` binding into sim state two lines later. The three
//! analyses here walk the [`crate::lexer::tokenize`] stream with an
//! explicit brace-scope stack instead:
//!
//! * **determinism-taint** — values originating from banned host
//!   sources (`Instant`, `SystemTime`, `host_now_ns`, `rand::`,
//!   `thread::current`, `env::var*`) are tracked through let-bindings,
//!   reassignments and same-file function returns; a tainted value
//!   flowing into a field assignment or out of a function is a finding
//!   at the *sink* line, which no identifier ban can see. Sim-critical
//!   crates only (harness code may time itself).
//! * **ordering-sensitivity** — a `for` loop iterating an unordered
//!   `HashMap`/`HashSet` binding whose body mutates state or emits
//!   output that outlives the loop is flagged, workspace-wide: harness
//!   crates escape the blanket `HashMap` ban, but artifact bytes they
//!   write must still not depend on hash-iteration order. `BTreeMap`/
//!   `BTreeSet` and index-ordered tables iterate deterministically and
//!   are never tracked.
//! * **unsafe-audit** — every `unsafe` token must carry a `// SAFETY:`
//!   comment on its own line or within the three lines above it,
//!   workspace-wide (today only `crates/prof/src/alloc.rs` is allowed
//!   `unsafe` at all, via `#![allow(unsafe_code)]`).
//!
//! The analyses are intentionally intra-file and heuristic (this is a
//! lexer-level tool, not a type checker): they segment statements on
//! `;` and braces, so exotic expression-level control flow may escape.
//! What they claim, they claim exactly — every finding names the sink
//! line and the origin of the offending value — and the fixture
//! mini-workspaces in `tests/fixtures/{taintflow,orderflow,unsafeaudit}`
//! pin the behaviour file:line by file:line.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, TokKind};
use crate::{FileContext, Finding, Rule};

/// Where a tainted value originally came from.
#[derive(Clone, Debug)]
struct Origin {
    /// Human name of the banned source (`Instant`, `host_now_ns`, …).
    source: String,
    /// Line the source was read on.
    line: usize,
}

/// One lexical scope: bindings declared inside it die when it closes.
#[derive(Default)]
struct ScopeFrame {
    /// Paren/bracket nesting of the enclosing statement when this
    /// scope opened (restored on close, so `;` inside a closure body
    /// passed as a call argument still terminates statements).
    saved_paren: i32,
    /// Function body scope: the function's name (for return-taint).
    fn_name: Option<String>,
    /// Loop scope currently under ordering watch.
    watch: Option<Watch>,
    /// Variables tainted in this scope, with their origin.
    tainted: BTreeMap<String, Origin>,
    /// Variables re-bound clean in this scope (shadowing outer taint).
    clean: BTreeSet<String>,
    /// Unordered-collection bindings (name -> type name).
    unordered: BTreeMap<String, String>,
    /// Every name `let`-bound in this scope (ordering locality check).
    locals: BTreeSet<String>,
}

/// An ordering-sensitivity watch on a `for` loop body.
struct Watch {
    /// Collection variable being iterated.
    coll: String,
    /// Collection type name (`HashMap` / `HashSet`).
    ty: String,
    /// Line of the `for` header.
    for_line: usize,
    /// A finding was already emitted for this loop.
    reported: bool,
}

/// Host-state sources: single identifiers...
const TAINT_IDENT_SOURCES: [&str; 3] = ["Instant", "SystemTime", "host_now_ns"];
/// ...and `a::b` identifier pairs.
const TAINT_PATH_SOURCES: [(&str, &str); 5] = [
    ("rand", "random"),
    ("thread", "current"),
    ("env", "var"),
    ("env", "vars"),
    ("env", "var_os"),
];

/// Unordered collection types the ordering analysis tracks.
const UNORDERED_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// Methods whose call inside a watched loop counts as a mutation when
/// the receiver outlives the loop.
const MUTATING_METHODS: [&str; 9] = [
    "push",
    "push_str",
    "insert",
    "remove",
    "extend",
    "send",
    "emit",
    "write",
    "write_all",
];

/// Output macros whose emission order is the artifact byte order.
const OUTPUT_MACROS: [&str; 5] = ["write", "writeln", "print", "println", "eprintln"];

/// Runs determinism-taint (sim-critical files only) and
/// ordering-sensitivity (all files) over one tokenized file.
pub fn check_dataflow(
    ctx: &FileContext<'_>,
    toks: &[Tok],
    sim_critical: bool,
    findings: &mut Vec<Finding>,
) {
    // Pass 1 learns which same-file functions return tainted values
    // (so calls defined before their callee still resolve); pass 2
    // re-walks with that knowledge and emits the findings.
    let mut tainted_fns = BTreeSet::new();
    if sim_critical {
        walk(ctx, toks, sim_critical, &mut tainted_fns, None);
    }
    walk(ctx, toks, sim_critical, &mut tainted_fns, Some(findings));
}

/// One walk over the token stream. With `findings` absent this is the
/// learning pass (it only records tainted-returning functions).
fn walk(
    ctx: &FileContext<'_>,
    toks: &[Tok],
    sim_critical: bool,
    tainted_fns: &mut BTreeSet<String>,
    mut findings: Option<&mut Vec<Finding>>,
) {
    let mut scopes: Vec<ScopeFrame> = vec![ScopeFrame::default()];
    let mut stmt: Vec<usize> = Vec::new();
    let mut paren_depth: i32 = 0;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Open if t.text == "{" => {
                let mut frame = open_scope(
                    ctx,
                    toks,
                    &stmt,
                    &mut scopes,
                    sim_critical,
                    tainted_fns,
                    findings.as_deref_mut(),
                );
                frame.saved_paren = paren_depth;
                paren_depth = 0;
                scopes.push(frame);
                stmt.clear();
            }
            TokKind::Close if t.text == "}" => {
                // Tail expression of the closing scope.
                process_stmt(
                    ctx,
                    toks,
                    &stmt,
                    &mut scopes,
                    sim_critical,
                    true,
                    tainted_fns,
                    findings.as_deref_mut(),
                );
                stmt.clear();
                if scopes.len() > 1 {
                    let closed = scopes.pop().expect("guarded by len check");
                    paren_depth = closed.saved_paren;
                }
            }
            TokKind::Open => {
                paren_depth += 1;
                stmt.push(i);
            }
            TokKind::Close => {
                paren_depth -= 1;
                stmt.push(i);
            }
            TokKind::Op if t.text == ";" && paren_depth <= 0 => {
                process_stmt(
                    ctx,
                    toks,
                    &stmt,
                    &mut scopes,
                    sim_critical,
                    false,
                    tainted_fns,
                    findings.as_deref_mut(),
                );
                stmt.clear();
            }
            _ => stmt.push(i),
        }
        i += 1;
    }
}

/// Handles the statement header that opens a `{` scope and builds the
/// new scope frame (`fn` bodies, watched `for` loops, plain blocks).
#[allow(clippy::too_many_arguments)]
fn open_scope(
    ctx: &FileContext<'_>,
    toks: &[Tok],
    stmt: &[usize],
    scopes: &mut [ScopeFrame],
    sim_critical: bool,
    tainted_fns: &mut BTreeSet<String>,
    findings: Option<&mut Vec<Finding>>,
) -> ScopeFrame {
    let mut frame = ScopeFrame::default();
    let kw = |name: &str| stmt.iter().take(4).any(|&k| toks[k].is_ident(name));
    if kw("fn") {
        // `pub fn name(args)` — record the name for return-taint and
        // any unordered-typed parameters for the ordering analysis.
        if let Some(pos) = stmt.iter().position(|&k| toks[k].is_ident("fn")) {
            if let Some(&name_idx) = stmt.get(pos + 1) {
                if toks[name_idx].kind == TokKind::Ident {
                    frame.fn_name = Some(toks[name_idx].text.clone());
                }
            }
        }
        for w in stmt.windows(3) {
            let (a, b, c) = (&toks[w[0]], &toks[w[1]], &toks[w[2]]);
            // `name: ... HashMap<` anywhere in the signature: the
            // middle of the type is noise, the `name :` prefix and the
            // type word are the anchors.
            if a.kind == TokKind::Ident && b.is_op(":") && c.kind == TokKind::Ident {
                // Look ahead a few tokens for an unordered type word.
                let start = w[2];
                let ty = stmt
                    .iter()
                    .filter(|&&k| k >= start && k <= start + 3)
                    .map(|&k| toks[k].text.as_str())
                    .find(|t| UNORDERED_TYPES.contains(t));
                if let Some(ty) = ty {
                    frame.unordered.insert(a.text.clone(), ty.to_string());
                }
            }
        }
        return frame;
    }
    if stmt.first().is_some_and(|&k| toks[k].is_ident("for")) {
        // `for PAT in EXPR` — pattern idents are loop locals; if EXPR
        // iterates a tracked unordered collection, watch the body.
        let in_pos = stmt.iter().position(|&k| toks[k].is_ident("in"));
        if let Some(p) = in_pos {
            for &k in &stmt[1..p] {
                if toks[k].kind == TokKind::Ident {
                    frame.locals.insert(toks[k].text.clone());
                }
            }
            let expr = &stmt[p + 1..];
            for &k in expr {
                let tok = &toks[k];
                if tok.kind != TokKind::Ident {
                    continue;
                }
                if let Some(ty) = lookup_unordered(scopes, &tok.text) {
                    frame.watch = Some(Watch {
                        coll: tok.text.clone(),
                        ty,
                        for_line: toks[stmt[0]].line,
                        reported: false,
                    });
                    break;
                }
            }
        }
        return frame;
    }
    // Any other header (`if`, `match`, struct literal, closure body,
    // bare block): analyse it as a statement fragment so taint in the
    // header (e.g. `if tainted > 0`) is not lost, then open a plain
    // scope.
    process_stmt(
        ctx,
        toks,
        stmt,
        scopes,
        sim_critical,
        false,
        tainted_fns,
        findings,
    );
    frame
}

/// Analyses one statement (tokens between terminators).
#[allow(clippy::too_many_arguments)]
fn process_stmt(
    ctx: &FileContext<'_>,
    toks: &[Tok],
    stmt: &[usize],
    scopes: &mut [ScopeFrame],
    sim_critical: bool,
    is_tail: bool,
    tainted_fns: &mut BTreeSet<String>,
    mut findings: Option<&mut Vec<Finding>>,
) {
    if stmt.is_empty() {
        return;
    }
    let first = &toks[stmt[0]];
    let in_test = line_in_test(ctx, first.line);

    // Ordering-sensitivity: inside a watched loop, any mutation whose
    // target outlives the loop pins the artifact to hash order.
    if !in_test {
        if let Some(mutated_at) = mutation_outliving_watch(toks, stmt, scopes) {
            if let Some(w) = innermost_watch_mut(scopes) {
                if !w.reported {
                    w.reported = true;
                    if let Some(f) = findings.as_deref_mut() {
                        f.push(Finding {
                            rule: Rule::OrderingSensitivity,
                            file: ctx.rel.clone(),
                            line: w.for_line,
                            message: format!(
                                "iterating unordered `{}` `{}` mutates state that outlives the \
                                 loop (line {mutated_at}); hash order varies per process — use \
                                 `BTreeMap`/`BTreeSet` (a page- or frame-indexed `Vec` for \
                                 dense keys), or collect and sort the keys first",
                                w.ty, w.coll
                            ),
                        });
                    }
                }
            }
        }
    }

    // Determinism-taint: sim-critical files only.
    if !sim_critical || in_test {
        // Still track `let` locals + unordered bindings for ordering.
        track_bindings_only(toks, stmt, scopes);
        return;
    }

    let skip = |name: &str| first.is_ident(name);
    if skip("use") || skip("mod") || skip("struct") || skip("enum") || skip("impl") {
        return;
    }

    if first.is_ident("let") {
        let (pattern, expr) = split_let(toks, stmt);
        track_unordered_let(toks, stmt, scopes);
        let names: Vec<String> = pattern
            .iter()
            .filter(|&&k| {
                toks[k].kind == TokKind::Ident && !matches!(toks[k].text.as_str(), "mut" | "ref")
            })
            .map(|&k| toks[k].text.clone())
            .collect();
        let top = scopes.last_mut().expect("scope stack never empty");
        top.locals.extend(names.iter().cloned());
        match expr_taint(toks, expr, scopes, tainted_fns) {
            Some(origin) => {
                let top = scopes.last_mut().expect("scope stack never empty");
                for n in names {
                    top.clean.remove(&n);
                    top.tainted.insert(n, origin.clone());
                }
            }
            None => {
                let top = scopes.last_mut().expect("scope stack never empty");
                for n in names {
                    top.tainted.remove(&n);
                    top.clean.insert(n);
                }
            }
        }
        return;
    }

    if first.is_ident("return") || is_tail {
        let expr: Vec<usize> = if first.is_ident("return") {
            stmt[1..].to_vec()
        } else {
            stmt.to_vec()
        };
        if let Some(origin) = expr_taint(toks, &expr, scopes, tainted_fns) {
            // Only a *function's own* tail/return launders the value
            // out of the file's dataflow; inner-block tails just stay
            // local, so require the innermost fn scope for tails.
            let fn_name = if is_tail && !first.is_ident("return") {
                scopes.last().and_then(|s| s.fn_name.clone())
            } else {
                scopes.iter().rev().find_map(|s| s.fn_name.clone())
            };
            if let Some(name) = fn_name {
                tainted_fns.insert(name.clone());
                if let Some(f) = findings {
                    f.push(Finding {
                        rule: Rule::DeterminismTaint,
                        file: ctx.rel.clone(),
                        line: toks[expr.first().copied().unwrap_or(stmt[0])].line,
                        message: format!(
                            "`{name}` returns a value derived from `{}` (line {}); callers \
                             absorb host state — return simulated `Nanos` carried by the \
                             event loop instead",
                            origin.source, origin.line
                        ),
                    });
                }
            }
        }
        return;
    }

    // Assignment: `PLACE = EXPR` / `PLACE op= EXPR`.
    if let Some(eq) = top_level_assign_op(toks, stmt) {
        let (lhs, rhs) = (&stmt[..eq], &stmt[eq + 1..]);
        if let Some(origin) = expr_taint(toks, rhs, scopes, tainted_fns) {
            let simple_var = lhs.len() == 1 && toks[lhs[0]].kind == TokKind::Ident;
            if simple_var {
                let name = toks[lhs[0]].text.clone();
                let top = scopes.last_mut().expect("scope stack never empty");
                top.clean.remove(&name);
                top.tainted.insert(name, origin);
            } else if let Some(f) = findings {
                let place: String = lhs
                    .iter()
                    .take(6)
                    .map(|&k| toks[k].text.as_str())
                    .collect::<Vec<_>>()
                    .join("");
                f.push(Finding {
                    rule: Rule::DeterminismTaint,
                    file: ctx.rel.clone(),
                    line: toks[stmt[eq]].line,
                    message: format!(
                        "`{place}` absorbs a value derived from `{}` (line {}); host \
                         time/randomness must not flow into sim state — thread simulated \
                         `Nanos` through the event loop instead",
                        origin.source, origin.line
                    ),
                });
            }
        } else if lhs.len() == 1 && toks[lhs[0]].kind == TokKind::Ident && toks[stmt[eq]].is_op("=")
        {
            // Clean plain reassignment scrubs the variable.
            let name = toks[lhs[0]].text.clone();
            let top = scopes.last_mut().expect("scope stack never empty");
            top.tainted.remove(&name);
            top.clean.insert(name);
        }
    }
}

/// Binding bookkeeping for non-taint files (harness crates still need
/// `let` locals and unordered-collection tracking for ordering).
fn track_bindings_only(toks: &[Tok], stmt: &[usize], scopes: &mut [ScopeFrame]) {
    if !toks[stmt[0]].is_ident("let") {
        return;
    }
    let (pattern, _) = split_let(toks, stmt);
    let names: Vec<String> = pattern
        .iter()
        .filter(|&&k| {
            toks[k].kind == TokKind::Ident && !matches!(toks[k].text.as_str(), "mut" | "ref")
        })
        .map(|&k| toks[k].text.clone())
        .collect();
    let top = scopes.last_mut().expect("scope stack never empty");
    top.locals.extend(names);
    track_unordered_let(toks, stmt, scopes);
}

/// Records `let`-bound unordered collections: an explicit
/// `: HashMap<…>` annotation, a `HashMap::new()/with_capacity/default/
/// from` constructor, or a statement-final `.collect::<HashMap<…>>()`.
/// A set immediately reduced further (e.g. `.collect::<HashSet<_>>()
/// .len()`) is not a collection binding and stays untracked.
fn track_unordered_let(toks: &[Tok], stmt: &[usize], scopes: &mut [ScopeFrame]) {
    if !toks[stmt[0]].is_ident("let") {
        return;
    }
    let (pattern, expr) = split_let(toks, stmt);
    let name = match pattern
        .iter()
        .filter(|&&k| {
            toks[k].kind == TokKind::Ident && !matches!(toks[k].text.as_str(), "mut" | "ref")
        })
        .map(|&k| toks[k].text.clone())
        .collect::<Vec<_>>()
        .as_slice()
    {
        [one] => one.clone(),
        _ => return,
    };
    // Annotation: first type word after `:` (skipping `&`/`mut`).
    let mut annotated = None;
    if let Some(p) = stmt.iter().position(|&k| toks[k].is_op(":")) {
        annotated = stmt[p + 1..]
            .iter()
            .take(3)
            .map(|&k| toks[k].text.as_str())
            .find(|t| UNORDERED_TYPES.contains(t))
            .map(str::to_string);
    }
    // Constructor: `HashMap` `::` `new|with_capacity|default|from`.
    let constructed = expr.windows(3).find_map(|w| {
        let (a, b, c) = (&toks[w[0]], &toks[w[1]], &toks[w[2]]);
        (UNORDERED_TYPES.contains(&a.text.as_str())
            && b.is_op("::")
            && matches!(
                c.text.as_str(),
                "new" | "with_capacity" | "default" | "from"
            ))
        .then(|| a.text.clone())
    });
    // Statement-final collect: `.collect::<HashMap<…>>()` with nothing
    // but the closing parens after it.
    let collected = expr
        .windows(2)
        .enumerate()
        .find_map(|(at, w)| {
            let (a, b) = (&toks[w[0]], &toks[w[1]]);
            (a.is_ident("collect") && b.is_op("::")).then_some(at)
        })
        .and_then(|at| {
            let rest = &expr[at..];
            let ty = rest
                .iter()
                .take(6)
                .map(|&k| toks[k].text.as_str())
                .find(|t| UNORDERED_TYPES.contains(t))?;
            let tail_ok = rest.iter().all(|&k| {
                !matches!(toks[k].kind, TokKind::Ident)
                    || UNORDERED_TYPES.contains(&toks[k].text.as_str())
                    || toks[k].is_ident("collect")
                    || toks[k].text == "_"
            });
            tail_ok.then(|| ty.to_string())
        });
    if let Some(ty) = annotated.or(constructed).or(collected) {
        let top = scopes.last_mut().expect("scope stack never empty");
        top.unordered.insert(name, ty);
    }
}

/// Splits a `let` statement into pattern tokens (before `:` or the
/// assignment `=`) and expression tokens (after the `=`).
fn split_let<'s>(toks: &[Tok], stmt: &'s [usize]) -> (&'s [usize], &'s [usize]) {
    let eq = stmt.iter().position(|&k| toks[k].is_op("="));
    let Some(eq) = eq else {
        return (&stmt[1..], &[]);
    };
    let colon = stmt[..eq].iter().position(|&k| toks[k].is_op(":"));
    let pat_end = colon.unwrap_or(eq);
    (&stmt[1..pat_end.max(1)], &stmt[eq + 1..])
}

/// Index (into `stmt`) of the top-level assignment operator, if any.
/// Bracket nesting inside the statement hides inner `=` (closure
/// defaults, struct literal fields are behind `{`-scopes already).
fn top_level_assign_op(toks: &[Tok], stmt: &[usize]) -> Option<usize> {
    const ASSIGN_OPS: [&str; 11] = [
        "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
    ];
    let mut depth = 0i32;
    for (at, &k) in stmt.iter().enumerate() {
        match toks[k].kind {
            TokKind::Open => depth += 1,
            TokKind::Close => depth -= 1,
            TokKind::Op if depth == 0 && ASSIGN_OPS.contains(&toks[k].text.as_str()) => {
                return Some(at);
            }
            _ => {}
        }
    }
    None
}

/// Does this expression carry host taint? Returns the origin if so.
fn expr_taint(
    toks: &[Tok],
    expr: &[usize],
    scopes: &[ScopeFrame],
    tainted_fns: &BTreeSet<String>,
) -> Option<Origin> {
    for (at, &k) in expr.iter().enumerate() {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        if TAINT_IDENT_SOURCES.contains(&t.text.as_str()) {
            return Some(Origin {
                source: t.text.clone(),
                line: t.line,
            });
        }
        for (head, tail) in TAINT_PATH_SOURCES {
            if t.text == head {
                let sep = expr.get(at + 1).map(|&k| &toks[k]);
                let next = expr.get(at + 2).map(|&k| &toks[k]);
                if sep.is_some_and(|s| s.is_op("::")) && next.is_some_and(|n| n.is_ident(tail)) {
                    return Some(Origin {
                        source: format!("{head}::{tail}"),
                        line: t.line,
                    });
                }
            }
        }
        if let Some(origin) = lookup_taint(scopes, &t.text) {
            return Some(Origin {
                source: origin.source.clone(),
                line: origin.line,
            });
        }
        if tainted_fns.contains(&t.text) && expr.get(at + 1).is_some_and(|&k| toks[k].text == "(") {
            return Some(Origin {
                source: format!("{}()", t.text),
                line: t.line,
            });
        }
    }
    None
}

/// Walks the scope stack top-down for a variable's taint, honouring
/// clean shadowing.
fn lookup_taint<'s>(scopes: &'s [ScopeFrame], name: &str) -> Option<&'s Origin> {
    for frame in scopes.iter().rev() {
        if frame.clean.contains(name) {
            return None;
        }
        if let Some(origin) = frame.tainted.get(name) {
            return Some(origin);
        }
    }
    None
}

/// Walks the scope stack for an unordered-collection binding's type.
fn lookup_unordered(scopes: &[ScopeFrame], name: &str) -> Option<String> {
    scopes
        .iter()
        .rev()
        .find_map(|f| f.unordered.get(name).cloned())
}

/// The innermost watched loop, if the walker is inside one.
fn innermost_watch_mut(scopes: &mut [ScopeFrame]) -> Option<&mut Watch> {
    scopes.iter_mut().rev().find_map(|f| f.watch.as_mut())
}

/// Is this statement a mutation whose target was declared *outside*
/// every scope inside the innermost watch? Returns the mutating line.
fn mutation_outliving_watch(toks: &[Tok], stmt: &[usize], scopes: &[ScopeFrame]) -> Option<usize> {
    let watch_at = scopes.iter().rposition(|f| f.watch.is_some())?;
    // Root identifier of the mutated place, if this statement mutates.
    let root: Option<usize> = if toks[stmt[0]].is_ident("let") {
        None
    } else if let Some(eq) = top_level_assign_op(toks, stmt) {
        stmt[..eq]
            .iter()
            .copied()
            .find(|&k| toks[k].kind == TokKind::Ident)
    } else {
        mutating_call_root(toks, stmt)
    };
    let root = root?;
    let name = toks[root].text.as_str();
    if name == "self" {
        return Some(toks[root].line);
    }
    // Declared inside the watch (loop pattern vars or loop-body lets)?
    let local_inside = scopes[watch_at..]
        .iter()
        .any(|f| f.locals.contains(name) || f.watch.as_ref().is_some_and(|w| w.coll == name));
    if local_inside {
        None
    } else {
        Some(toks[root].line)
    }
}

/// Root identifier of a mutating method call (`out.push(x)` -> `out`)
/// or output macro (`writeln!(buf, …)` -> `buf`) in this statement.
fn mutating_call_root(toks: &[Tok], stmt: &[usize]) -> Option<usize> {
    // Output macros: IDENT `!` `(` ARG …
    for w in stmt.windows(3) {
        let (a, b, c) = (&toks[w[0]], &toks[w[1]], &toks[w[2]]);
        if a.kind == TokKind::Ident
            && OUTPUT_MACROS.contains(&a.text.as_str())
            && b.is_op("!")
            && c.text == "("
        {
            // `print!`/`println!`/`eprintln!` write process output with
            // no receiver; the macro itself is the mutation.
            if a.text.starts_with("print") || a.text.starts_with("eprint") {
                return Some(w[0]);
            }
            // `write!(buf, …)`: first argument is the receiver.
            return stmt
                .iter()
                .copied()
                .skip_while(|&k| k != w[2])
                .skip(1)
                .find(|&k| toks[k].kind == TokKind::Ident);
        }
    }
    // Method mutation: … `.` METHOD `(` — walk left to the chain root.
    for w in stmt.windows(3) {
        let (dot, m, open) = (&toks[w[0]], &toks[w[1]], &toks[w[2]]);
        if dot.is_op(".")
            && m.kind == TokKind::Ident
            && MUTATING_METHODS.contains(&m.text.as_str())
            && open.text == "("
        {
            // Walk left from the dot to the start of the postfix chain.
            let dot_pos = stmt.iter().position(|&k| k == w[0])?;
            let mut root = None;
            for &k in stmt[..dot_pos].iter().rev() {
                match toks[k].kind {
                    TokKind::Ident => root = Some(k),
                    TokKind::Op if toks[k].text == "." || toks[k].text == "*" => continue,
                    TokKind::Close => continue,
                    TokKind::Open => continue,
                    _ => break,
                }
            }
            return root;
        }
    }
    None
}

/// Unsafe-audit: every `unsafe` token outside test code must carry a
/// `SAFETY:` comment on its own line or within the three lines above.
pub fn check_unsafe_audit(ctx: &FileContext<'_>, findings: &mut Vec<Finding>) {
    for (idx, line) in ctx.lexed.lines.iter().enumerate() {
        if line.in_test || !contains_kw(&line.code, "unsafe") {
            continue;
        }
        let lo = idx.saturating_sub(3);
        let justified = ctx.lexed.lines[lo..=idx]
            .iter()
            .any(|l| l.comment.contains("SAFETY:"));
        if !justified {
            findings.push(Finding {
                rule: Rule::UnsafeAudit,
                file: ctx.rel.clone(),
                line: idx + 1,
                message: "`unsafe` without an adjacent `// SAFETY:` comment; state the \
                          invariant that makes this sound on the line above"
                    .to_string(),
            });
        }
    }
}

/// Word-boundary keyword containment (local copy; `unsafe_code` in an
/// attribute must not match).
fn contains_kw(code: &str, kw: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(kw) {
        let at = start + pos;
        let before_ok = at == 0 || {
            let c = code[..at].chars().next_back().unwrap_or(' ');
            !(c.is_alphanumeric() || c == '_')
        };
        let end = at + kw.len();
        let after_ok = end >= code.len() || {
            let c = code[end..].chars().next().unwrap_or(' ');
            !(c.is_alphanumeric() || c == '_')
        };
        if before_ok && after_ok {
            return true;
        }
        start = end;
    }
    false
}

/// True when this 1-based line sits in `#[cfg(test)]`/`#[test]` code.
fn line_in_test(ctx: &FileContext<'_>, line: usize) -> bool {
    ctx.lexed
        .lines
        .get(line.saturating_sub(1))
        .is_some_and(|l| l.in_test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn ctx_for(src: &str) -> (FileContext<'static>, Vec<Tok>) {
        let lexed = lexer::lex(src);
        let toks = lexer::tokenize(&lexed);
        (
            FileContext {
                rel: "crates/hw/src/lib.rs".to_string(),
                krate: "hw",
                lexed,
                waivers: Vec::new(),
            },
            toks,
        )
    }

    fn taint_lines(src: &str) -> Vec<usize> {
        let (ctx, toks) = ctx_for(src);
        let mut findings = Vec::new();
        check_dataflow(&ctx, &toks, true, &mut findings);
        findings
            .iter()
            .filter(|f| f.rule == Rule::DeterminismTaint)
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn one_hop_indirection_is_caught_at_the_sink() {
        let src = "\
pub fn poll(state: &mut State) {
    let t = Instant::now();
    let dt = t.elapsed();
    state.ns = dt.as_nanos() as u64;
}
";
        assert_eq!(taint_lines(src), [4], "sink line, not the source line");
    }

    #[test]
    fn clean_shadowing_scrubs_the_taint() {
        let src = "\
pub fn poll(state: &mut State) {
    let t = Instant::now();
    let t = 5u64;
    state.ns = t;
}
";
        assert!(taint_lines(src).is_empty(), "shadowed clean");
    }

    #[test]
    fn scope_exit_kills_inner_bindings() {
        let src = "\
pub fn poll(state: &mut State) {
    {
        let t = Instant::now();
        let _ = t;
    }
    let t = 1u64;
    state.ns = t;
}
";
        assert!(taint_lines(src).is_empty());
    }

    #[test]
    fn tainted_function_returns_propagate_to_callers() {
        let src = "\
fn now_ns() -> u64 {
    let t = Instant::now();
    t.elapsed().as_nanos() as u64
}

pub fn poll(state: &mut State) {
    state.ns = now_ns();
}
";
        assert_eq!(taint_lines(src), [3, 7], "the return and the call sink");
    }

    #[test]
    fn ordering_flags_hash_iteration_that_writes_out() {
        let src = "\
pub fn export(rows: &[(u64, u64)]) -> String {
    let mut index = HashMap::new();
    let mut out = String::new();
    for (k, v) in &index {
        out.push_str(\"row\");
    }
    out
}
";
        let (ctx, toks) = ctx_for(src);
        let mut findings = Vec::new();
        check_dataflow(&ctx, &toks, false, &mut findings);
        let got: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == Rule::OrderingSensitivity)
            .map(|f| f.line)
            .collect();
        assert_eq!(got, [4], "flagged at the for header");
    }

    #[test]
    fn ordering_spares_loop_local_mutations_and_btreemaps() {
        let src = "\
pub fn tally(rows: &[(u64, u64)]) -> u64 {
    let mut index = BTreeMap::new();
    let mut hset = HashMap::new();
    for (k, v) in &index {
        let mut acc = 0u64;
        acc += *v;
    }
    for (k, v) in &hset {
        let mut local = Vec::new();
        local.push(*v);
    }
    0
}
";
        let (ctx, toks) = ctx_for(src);
        let mut findings = Vec::new();
        check_dataflow(&ctx, &toks, false, &mut findings);
        assert!(
            findings.is_empty(),
            "BTreeMap untracked, loop-local churn spared: {findings:?}"
        );
    }

    #[test]
    fn unsafe_needs_an_adjacent_safety_comment() {
        let src = "\
pub fn a(p: *const u8) -> u8 {
    // SAFETY: caller guarantees validity.
    unsafe { *p }
}
pub fn b(p: *const u8) -> u8 {
    unsafe { *p }
}
";
        let (ctx, _) = ctx_for(src);
        let mut findings = Vec::new();
        check_unsafe_audit(&ctx, &mut findings);
        let got: Vec<_> = findings.iter().map(|f| f.line).collect();
        assert_eq!(got, [6]);
        assert!(!contains_kw("#![allow(unsafe_code)]", "unsafe"));
    }
}
