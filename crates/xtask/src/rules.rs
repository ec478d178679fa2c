//! The fluxlint rule set.
//!
//! Nine rules, each scanning the masked code view of a file (comments and
//! literal contents already blanked) line by line, with scope context
//! from [`crate::scope`] and region context from [`crate::region`]:
//!
//! * `no-panic` — `.unwrap()`, `.expect(..)`, `panic!`, `unreachable!`,
//!   `todo!`, `unimplemented!` are banned in library code under
//!   `crates/*/src` (the `bench` harness is exempt; test code is exempt).
//! * `determinism` — `thread_rng`, `from_entropy`, `SystemTime::now`,
//!   `Instant::now` are banned in simulation crates: every experiment must
//!   be reproducible from an explicit seed, and wall-clock reads make
//!   runs timing-dependent (`bench` is exempt — it times things).
//! * `float-eq` — `==` / `!=` where either operand shows float evidence
//!   (a float literal, an `f32`/`f64` token, or a float constant such as
//!   `NAN`/`EPSILON`); exact float comparison is almost always a latent
//!   tolerance bug. Test code is exempt.
//! * `no-println` — `println!` / `eprintln!` (and `print!` / `eprint!`)
//!   are banned in library crates:
//!   structured output goes through `fluxprint-telemetry` or a returned
//!   value, never straight to stdout (the `bench` harness and `xtask`
//!   itself are exempt — they own the terminal; test code is exempt).
//! * `thread-confinement` — `thread::spawn` / `thread::scope` /
//!   `JoinHandle` / `.spawn(..)` outside `crates/fluxpar`: all
//!   parallelism flows through the deterministic pool, so bit-identity
//!   cannot depend on ad-hoc thread topology (the sanctioned
//!   `engine::grid` drain path carries reviewed waivers).
//! * `nondet-order` — `HashMap` / `HashSet` in library crates (iteration
//!   order varies between runs and processes; use `BTreeMap`/`BTreeSet`
//!   or sort explicitly), plus `thread::current()` identity and
//!   `available_parallelism` outside fluxpar (scheduling- and
//!   host-dependent values must never feed results).
//! * `relaxed-atomics` — `Ordering::Relaxed` and `static mut` outside
//!   fluxpar: unsynchronized cross-thread state is invisible to the
//!   replay oracles until it flakes.
//! * `hot-path-alloc` — `Vec::new` / `vec!` / `.to_vec()` /
//!   `.collect()` / `.clone()` inside a declared
//!   `// fluxlint: region(hot-path)` span: per-evaluation allocation
//!   belongs in reusable scratch state. Armed only inside regions.
//! * `lint-hygiene` — every workspace crate manifest must opt into the
//!   shared `[workspace.lints]` table via `[lints] workspace = true`
//!   (checked in [`check_manifest`]); defective waivers and region
//!   markers also report under this rule.

use crate::region;
use crate::scope::{item_paths, test_line_flags};

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Panicking constructs in library code.
    NoPanic,
    /// Nondeterministic randomness or wall-clock reads in simulation code.
    Determinism,
    /// Exact `==`/`!=` comparison of floating-point expressions.
    FloatEq,
    /// Direct stdout/stderr printing in library code.
    NoPrintln,
    /// Thread primitives outside the deterministic fluxpar pool.
    ThreadConfinement,
    /// Iteration-order or scheduling-dependent values in library code.
    NondetOrder,
    /// Unsynchronized atomics or mutable statics outside fluxpar.
    RelaxedAtomics,
    /// Allocation inside a declared `hot-path` region.
    HotPathAlloc,
    /// Crate manifest does not inherit the shared workspace lint table.
    LintHygiene,
}

impl Rule {
    /// The rule's name as used in reports and waiver comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoPanic => "no-panic",
            Rule::Determinism => "determinism",
            Rule::FloatEq => "float-eq",
            Rule::NoPrintln => "no-println",
            Rule::ThreadConfinement => "thread-confinement",
            Rule::NondetOrder => "nondet-order",
            Rule::RelaxedAtomics => "relaxed-atomics",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::LintHygiene => "lint-hygiene",
        }
    }

    /// Parses a rule name as written in a waiver comment.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// All rules, for reports and tests.
    pub const ALL: [Rule; 9] = [
        Rule::NoPanic,
        Rule::Determinism,
        Rule::FloatEq,
        Rule::NoPrintln,
        Rule::ThreadConfinement,
        Rule::NondetOrder,
        Rule::RelaxedAtomics,
        Rule::HotPathAlloc,
        Rule::LintHygiene,
    ];
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-oriented description of the violation.
    pub message: String,
    /// The offending source line, trimmed.
    pub source: String,
    /// `::`-joined path of the innermost enclosing named item
    /// (`Type::method`, `module::fn`), `None` at module top level or for
    /// manifest findings.
    pub function: Option<String>,
}

/// Where a file sits in the workspace, which decides rule applicability.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative display path (also used in findings).
    pub path: String,
    /// `Some(name)` for `crates/<name>/src/**`, `None` for the root
    /// package's `src/**`.
    pub crate_name: Option<String>,
}

impl FileContext {
    /// Derives the context from a workspace-relative path, or `None` for
    /// paths the source rules do not cover (tests, benches, vendor, …).
    pub fn from_relative_path(rel: &str) -> Option<FileContext> {
        let parts: Vec<&str> = rel.split('/').collect();
        match parts.as_slice() {
            ["crates", name, "src", ..] => Some(FileContext {
                path: rel.to_string(),
                crate_name: Some((*name).to_string()),
            }),
            ["src", ..] => Some(FileContext {
                path: rel.to_string(),
                crate_name: None,
            }),
            _ => None,
        }
    }

    fn no_panic_applies(&self) -> bool {
        // The ban covers library code under crates/*/src; the bench
        // harness prototypes experiments and may fail fast, and the root
        // package is CLI glue whose errors surface to the terminal anyway.
        matches!(self.crate_name.as_deref(), Some(name) if name != "bench")
    }

    fn determinism_applies(&self) -> bool {
        // Everything under crates/*/src participates in simulations
        // except the bench harness, which legitimately times runs.
        matches!(self.crate_name.as_deref(), Some(name) if name != "bench")
    }

    fn no_println_applies(&self) -> bool {
        // Library crates must route output through telemetry or return
        // values. The bench harness and xtask own the terminal, and the
        // root package is CLI glue.
        matches!(self.crate_name.as_deref(), Some(name) if name != "bench" && name != "xtask")
    }

    fn thread_confinement_applies(&self) -> bool {
        // fluxpar *is* the sanctioned thread layer; bench and xtask are
        // terminal-owning harnesses outside the determinism contract.
        // Everything else — including the root CLI glue — must route
        // parallelism through the pool.
        !matches!(
            self.crate_name.as_deref(),
            Some("fluxpar") | Some("bench") | Some("xtask")
        )
    }

    fn nondet_order_applies(&self) -> bool {
        // Hash-order hazards apply to every library crate, fluxpar
        // included — its result merging must be slot-ordered too.
        !matches!(self.crate_name.as_deref(), Some("bench") | Some("xtask"))
    }

    fn thread_identity_applies(&self) -> bool {
        // The scheduling-dependent half of nondet-order: fluxpar is the
        // one place allowed to read `available_parallelism` and name
        // worker threads.
        self.nondet_order_applies() && self.crate_name.as_deref() != Some("fluxpar")
    }

    fn relaxed_atomics_applies(&self) -> bool {
        !matches!(
            self.crate_name.as_deref(),
            Some("fluxpar") | Some("bench") | Some("xtask")
        )
    }
}

/// Scans one Rust source file and returns its raw (pre-waiver) findings.
pub fn scan_source(ctx: &FileContext, src: &str) -> Vec<Finding> {
    let masked = crate::lexer::mask_source(src);
    let in_test = test_line_flags(&masked.code);
    let functions = item_paths(&masked.code);
    let (regions, region_errors) = region::collect_regions(&masked.comments);
    let line_count = masked.code.lines().count();
    let in_hot = region::region_line_flags("hot-path", &regions, line_count);
    let original_lines: Vec<&str> = src.lines().collect();
    let mut findings = Vec::new();

    for (idx, line) in masked.code.lines().enumerate() {
        let test_line = in_test.get(idx).copied().unwrap_or(false);
        let mut push = |rule: Rule, message: String| {
            findings.push(Finding {
                file: ctx.path.clone(),
                line: idx + 1,
                rule,
                message,
                source: original_lines.get(idx).unwrap_or(&"").trim().to_string(),
                function: functions.get(idx).cloned().flatten(),
            });
        };

        if ctx.no_panic_applies() && !test_line {
            for m in no_panic_matches(line) {
                push(Rule::NoPanic, m);
            }
        }
        if ctx.determinism_applies() && !test_line {
            for m in determinism_matches(line) {
                push(Rule::Determinism, m);
            }
        }
        if !test_line {
            for m in float_eq_matches(line) {
                push(Rule::FloatEq, m);
            }
        }
        if ctx.no_println_applies() && !test_line {
            for m in no_println_matches(line) {
                push(Rule::NoPrintln, m);
            }
        }
        if ctx.thread_confinement_applies() && !test_line {
            for m in thread_confinement_matches(line) {
                push(Rule::ThreadConfinement, m);
            }
        }
        if ctx.nondet_order_applies() && !test_line {
            for m in nondet_order_matches(line, ctx.thread_identity_applies()) {
                push(Rule::NondetOrder, m);
            }
        }
        if ctx.relaxed_atomics_applies() && !test_line {
            for m in relaxed_atomics_matches(line) {
                push(Rule::RelaxedAtomics, m);
            }
        }
        if in_hot.get(idx).copied().unwrap_or(false) && !test_line {
            for m in hot_path_alloc_matches(line) {
                push(Rule::HotPathAlloc, m);
            }
        }
    }

    for e in region_errors {
        findings.push(Finding {
            file: ctx.path.clone(),
            line: e.line,
            rule: Rule::LintHygiene,
            message: format!("defective fluxlint region marker ({})", e.message),
            source: original_lines
                .get(e.line.saturating_sub(1))
                .unwrap_or(&"")
                .trim()
                .to_string(),
            function: functions.get(e.line.saturating_sub(1)).cloned().flatten(),
        });
    }
    findings
}

/// Checks one crate manifest for the `lint-hygiene` rule. `src` is the
/// manifest text, `path` its workspace-relative path.
pub fn check_manifest(path: &str, src: &str) -> Vec<Finding> {
    let mut in_lints = false;
    let mut opted_in = false;
    for raw in src.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
            continue;
        }
        if in_lints && line.replace(' ', "") == "workspace=true" {
            opted_in = true;
        }
    }
    if opted_in {
        Vec::new()
    } else {
        vec![Finding {
            file: path.to_string(),
            line: 1,
            rule: Rule::LintHygiene,
            message: "crate does not inherit the shared lint table; add `[lints] workspace = true`"
                .to_string(),
            source: String::new(),
            function: None,
        }]
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Positions where `needle` occurs in `line` as a whole identifier.
fn ident_positions(line: &str, needle: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = line.get(from..).and_then(|s| s.find(needle)) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = at + needle.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + needle.len().max(1);
    }
    out
}

/// First non-space byte at or after `from`, with its position.
fn next_non_space(bytes: &[u8], mut from: usize) -> Option<(usize, u8)> {
    while from < bytes.len() {
        if bytes[from] != b' ' && bytes[from] != b'\t' {
            return Some((from, bytes[from]));
        }
        from += 1;
    }
    None
}

/// Last non-space byte strictly before `at`, with its position.
fn prev_non_space(bytes: &[u8], at: usize) -> Option<(usize, u8)> {
    let mut i = at;
    while i > 0 {
        i -= 1;
        if bytes[i] != b' ' && bytes[i] != b'\t' {
            return Some((i, bytes[i]));
        }
    }
    None
}

fn no_panic_matches(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    for method in ["unwrap", "expect"] {
        for at in ident_positions(line, method) {
            let preceded_by_dot = matches!(prev_non_space(bytes, at), Some((_, b'.')));
            let followed_by_call =
                matches!(next_non_space(bytes, at + method.len()), Some((_, b'(')));
            if preceded_by_dot && followed_by_call {
                out.push(format!("`.{method}(..)` panics on the error path"));
            }
        }
    }
    for mac in ["panic", "unreachable", "todo", "unimplemented"] {
        for at in ident_positions(line, mac) {
            if matches!(next_non_space(bytes, at + mac.len()), Some((_, b'!'))) {
                out.push(format!("`{mac}!` in library code"));
            }
        }
    }
    out
}

fn no_println_matches(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    for mac in ["println", "eprintln", "print", "eprint"] {
        for at in ident_positions(line, mac) {
            if matches!(next_non_space(bytes, at + mac.len()), Some((_, b'!'))) {
                out.push(format!(
                    "`{mac}!` in library code; report through telemetry or a returned value"
                ));
            }
        }
    }
    out
}

/// Positions where a `::`-joined path occurs in `line` with identifier
/// boundaries on both ends.
fn path_positions(line: &str, path: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = line.get(from..).and_then(|s| s.find(path)) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = at + path.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + path.len();
    }
    out
}

fn determinism_matches(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    for ident in ["thread_rng", "from_entropy"] {
        for _ in ident_positions(line, ident) {
            out.push(format!("`{ident}` breaks seeded reproducibility"));
        }
    }
    for path in ["SystemTime::now", "Instant::now"] {
        for _ in path_positions(line, path) {
            out.push(format!("`{path}` makes simulation timing-dependent"));
        }
    }
    out
}

fn thread_confinement_matches(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    for path in ["thread::spawn", "thread::scope"] {
        for _ in path_positions(line, path) {
            out.push(format!(
                "`{path}` outside fluxpar; route parallelism through the deterministic pool"
            ));
        }
    }
    for _ in ident_positions(line, "JoinHandle") {
        out.push("`JoinHandle` held outside fluxpar; join order belongs to the pool".to_string());
    }
    for at in ident_positions(line, "spawn") {
        let preceded_by_dot = matches!(prev_non_space(bytes, at), Some((_, b'.')));
        let followed_by_call = matches!(next_non_space(bytes, at + "spawn".len()), Some((_, b'(')));
        if preceded_by_dot && followed_by_call {
            out.push(
                "`.spawn(..)` outside fluxpar; route parallelism through the deterministic pool"
                    .to_string(),
            );
        }
    }
    out
}

fn nondet_order_matches(line: &str, thread_identity: bool) -> Vec<String> {
    let mut out = Vec::new();
    for ident in ["HashMap", "HashSet"] {
        for _ in ident_positions(line, ident) {
            out.push(format!(
                "`{ident}` iteration order varies between runs; use a BTree collection or sort \
                 explicitly"
            ));
        }
    }
    if thread_identity {
        for _ in path_positions(line, "thread::current") {
            out.push(
                "`thread::current()` identity is scheduling-dependent; results must not see it"
                    .to_string(),
            );
        }
        for _ in ident_positions(line, "available_parallelism") {
            out.push(
                "`available_parallelism` varies by host; thread count comes from fluxpar \
                 configuration"
                    .to_string(),
            );
        }
    }
    out
}

fn relaxed_atomics_matches(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    for _ in path_positions(line, "Ordering::Relaxed") {
        out.push(
            "`Ordering::Relaxed` gives no cross-thread ordering; replay cannot observe it — \
             use `SeqCst` or go through fluxpar"
                .to_string(),
        );
    }
    for at in ident_positions(line, "static") {
        let next_is_mut = matches!(
            next_non_space(bytes, at + "static".len()),
            Some((pos, b'm')) if ident_positions(&line[pos..], "mut").first() == Some(&0)
        );
        if next_is_mut {
            out.push("`static mut` is unsynchronized shared state".to_string());
        }
    }
    out
}

fn hot_path_alloc_matches(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    for _ in path_positions(line, "Vec::new") {
        out.push(
            "`Vec::new` inside a hot-path region; hoist the buffer into scratch state".to_string(),
        );
    }
    for at in ident_positions(line, "vec") {
        if matches!(next_non_space(bytes, at + "vec".len()), Some((_, b'!'))) {
            out.push("`vec!` allocates inside a hot-path region".to_string());
        }
    }
    for method in ["to_vec", "collect", "clone"] {
        for at in ident_positions(line, method) {
            let preceded_by_dot = matches!(prev_non_space(bytes, at), Some((_, b'.')));
            // `.collect()` and turbofished `.collect::<Vec<_>>()`.
            let next = next_non_space(bytes, at + method.len());
            let followed_by_call = matches!(next, Some((_, b'(')) | Some((_, b':')));
            if preceded_by_dot && followed_by_call {
                out.push(format!(
                    "`.{method}(..)` allocates inside a hot-path region; reuse scratch buffers"
                ));
            }
        }
    }
    out
}

/// Float evidence in an operand window: a float literal (`1.0`), an
/// `f32`/`f64` token, or a well-known float constant.
fn has_float_evidence(window: &str) -> bool {
    let bytes = window.as_bytes();
    for i in 1..bytes.len().saturating_sub(1) {
        if bytes[i] == b'.' && bytes[i - 1].is_ascii_digit() && bytes[i + 1].is_ascii_digit() {
            return true;
        }
    }
    for ident in ["f32", "f64", "NAN", "INFINITY", "NEG_INFINITY", "EPSILON"] {
        if !ident_positions(window, ident).is_empty() {
            return true;
        }
    }
    false
}

const OPERAND_BOUNDARIES: [&str; 5] = ["&&", "||", ";", "{", "}"];

/// Keeps only the text after the last expression boundary.
fn clip_left(window: &str) -> &str {
    let mut start = 0;
    for b in OPERAND_BOUNDARIES {
        if let Some(at) = window.rfind(b) {
            start = start.max(at + b.len());
        }
    }
    window.get(start..).unwrap_or("")
}

/// Keeps only the text before the first expression boundary.
fn clip_right(window: &str) -> &str {
    let mut end = window.len();
    for b in OPERAND_BOUNDARIES {
        if let Some(at) = window.find(b) {
            end = end.min(at);
        }
    }
    window.get(..end).unwrap_or("")
}

fn float_eq_matches(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let (op, is_cmp) = match (bytes[i], bytes[i + 1]) {
            (b'=', b'=') => {
                let prev_op = i > 0 && b"=!<>+-*/%&|^".contains(&bytes[i - 1]);
                let next_eq = i + 2 < bytes.len() && bytes[i + 2] == b'=';
                ("==", !prev_op && !next_eq)
            }
            (b'!', b'=') => {
                let next_eq = i + 2 < bytes.len() && bytes[i + 2] == b'=';
                ("!=", !next_eq)
            }
            _ => ("", false),
        };
        if is_cmp {
            // Operand windows stop at expression boundaries so a float
            // elsewhere in a `&&`-joined condition cannot implicate an
            // integer comparison.
            let left_start = i.saturating_sub(64);
            let left = clip_left(line.get(left_start..i).unwrap_or(""));
            let right_end = (i + 2 + 64).min(line.len());
            let right = clip_right(line.get(i + 2..right_end).unwrap_or(""));
            if has_float_evidence(left) || has_float_evidence(right) {
                out.push(format!(
                    "`{op}` on a float-typed expression; compare with a tolerance"
                ));
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(path: &str) -> FileContext {
        FileContext::from_relative_path(path).expect("covered path")
    }

    #[test]
    fn context_classifies_paths() {
        assert_eq!(
            ctx("crates/core/src/attack.rs").crate_name.as_deref(),
            Some("core")
        );
        assert_eq!(ctx("src/lib.rs").crate_name, None);
        assert!(FileContext::from_relative_path("crates/core/tests/x.rs").is_none());
        assert!(FileContext::from_relative_path("vendor/rand/src/lib.rs").is_none());
    }

    #[test]
    fn no_panic_flags_methods_and_macros() {
        let f = scan_source(&ctx("crates/core/src/a.rs"), "fn f() { x.unwrap(); }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::NoPanic);
        let f = scan_source(&ctx("crates/core/src/a.rs"), "fn f() { panic!(\"x\"); }\n");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn no_panic_skips_lookalikes() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_default(); expect(z); }\n";
        assert!(scan_source(&ctx("crates/core/src/a.rs"), src).is_empty());
    }

    #[test]
    fn bench_is_exempt_from_no_panic_and_determinism() {
        let src = "fn f() { x.unwrap(); let t = Instant::now(); }\n";
        assert!(scan_source(&ctx("crates/bench/src/a.rs"), src).is_empty());
    }

    #[test]
    fn determinism_flags_wall_clock_and_entropy() {
        let src = "fn f() { let r = thread_rng(); let t = Instant::now(); }\n";
        let f = scan_source(&ctx("crates/smc/src/a.rs"), src);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == Rule::Determinism));
    }

    #[test]
    fn float_eq_needs_float_evidence() {
        let f = scan_source(&ctx("crates/core/src/a.rs"), "fn f() { if x == 1.0 {} }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::FloatEq);
        // Integer comparison and pattern arrows are fine.
        let src = "fn f() { if n == 1 {} let c = |a| a >= 2; }\n";
        assert!(scan_source(&ctx("crates/core/src/a.rs"), src).is_empty());
    }

    #[test]
    fn float_elsewhere_in_condition_does_not_implicate_integer_compare() {
        let src = "fn f() { if bias > 0.0 && len == 2 {} }\n";
        assert!(scan_source(&ctx("crates/core/src/a.rs"), src).is_empty());
        let src = "fn f() { if len == 2 && bias == 0.5 {} }\n";
        assert_eq!(scan_source(&ctx("crates/core/src/a.rs"), src).len(), 1);
    }

    #[test]
    fn no_println_flags_print_macros_in_library_code() {
        let src = "fn f() { println!(\"x\"); eprintln!(\"y\"); print!(\"z\"); }\n";
        let f = scan_source(&ctx("crates/smc/src/a.rs"), src);
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|x| x.rule == Rule::NoPrintln));
    }

    #[test]
    fn no_println_exempts_bench_xtask_root_and_tests() {
        let src = "fn f() { println!(\"x\"); }\n";
        assert!(scan_source(&ctx("crates/bench/src/a.rs"), src).is_empty());
        assert!(scan_source(&ctx("crates/xtask/src/a.rs"), src).is_empty());
        assert!(scan_source(&ctx("src/main.rs"), src).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { println!(\"x\"); }\n}\n";
        assert!(scan_source(&ctx("crates/smc/src/a.rs"), in_test).is_empty());
    }

    #[test]
    fn no_println_skips_lookalikes() {
        // Identifier lookalikes and non-macro uses must not trip the rule.
        let src = "fn reprintln() {} fn f() { let println = 1; log_println(println); }\n";
        assert!(scan_source(&ctx("crates/smc/src/a.rs"), src).is_empty());
    }

    #[test]
    fn findings_carry_the_enclosing_item_path() {
        let src = "impl Grid {\n    fn drain(&self) {\n        x.unwrap();\n    }\n}\n";
        let f = scan_source(&ctx("crates/engine/src/a.rs"), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].function.as_deref(), Some("Grid::drain"));
    }

    #[test]
    fn thread_confinement_flags_primitives_outside_fluxpar() {
        let src = "fn f() {\n    std::thread::scope(|s| {\n        s.spawn(|| {});\n    });\n    let h: JoinHandle<()> = thread::spawn(work);\n}\n";
        let f = scan_source(&ctx("crates/engine/src/a.rs"), src);
        let rules: Vec<_> = f.iter().map(|x| (x.line, x.rule)).collect();
        assert_eq!(
            rules,
            vec![
                (2, Rule::ThreadConfinement), // thread::scope
                (3, Rule::ThreadConfinement), // .spawn(
                (5, Rule::ThreadConfinement), // JoinHandle
                (5, Rule::ThreadConfinement), // thread::spawn
            ],
            "{f:#?}"
        );
    }

    #[test]
    fn thread_confinement_exempts_fluxpar_and_lookalikes() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        assert!(scan_source(&ctx("crates/fluxpar/src/a.rs"), src).is_empty());
        let src = "fn f() { respawn(); let spawn = 1; spawner.go(); }\n";
        assert!(scan_source(&ctx("crates/engine/src/a.rs"), src).is_empty());
    }

    #[test]
    fn nondet_order_flags_hash_collections_and_thread_identity() {
        let src = "use std::collections::HashMap;\nfn f() {\n    let n = std::thread::available_parallelism();\n    let id = thread::current().id();\n}\n";
        let f = scan_source(&ctx("crates/telemetry/src/a.rs"), src);
        let rules: Vec<_> = f.iter().map(|x| (x.line, x.rule)).collect();
        assert_eq!(
            rules,
            vec![
                (1, Rule::NondetOrder),
                (3, Rule::NondetOrder),
                (4, Rule::NondetOrder),
            ],
            "{f:#?}"
        );
    }

    #[test]
    fn nondet_order_in_fluxpar_skips_thread_identity_but_not_hash_maps() {
        let src = "fn f() { let n = available_parallelism(); }\n";
        assert!(scan_source(&ctx("crates/fluxpar/src/a.rs"), src).is_empty());
        let src = "fn f(m: HashMap<u32, u32>) {}\n";
        assert_eq!(scan_source(&ctx("crates/fluxpar/src/a.rs"), src).len(), 1);
        // BTree collections are the sanctioned alternative.
        let src = "fn f(m: BTreeMap<u32, u32>, s: BTreeSet<u32>) {}\n";
        assert!(scan_source(&ctx("crates/telemetry/src/a.rs"), src).is_empty());
    }

    #[test]
    fn relaxed_atomics_flags_relaxed_ordering_and_static_mut() {
        let src =
            "static mut COUNTER: u32 = 0;\nfn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n";
        let f = scan_source(&ctx("crates/core/src/a.rs"), src);
        let rules: Vec<_> = f.iter().map(|x| (x.line, x.rule)).collect();
        assert_eq!(
            rules,
            vec![(1, Rule::RelaxedAtomics), (2, Rule::RelaxedAtomics)],
            "{f:#?}"
        );
        // SeqCst and immutable statics are fine.
        let src = "static N: u32 = 0;\nfn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }\n";
        assert!(scan_source(&ctx("crates/core/src/a.rs"), src).is_empty());
    }

    #[test]
    fn hot_path_alloc_is_armed_only_inside_regions() {
        let outside = "fn f() { let v: Vec<u32> = xs.iter().collect(); }\n";
        assert!(scan_source(&ctx("crates/solver/src/a.rs"), outside).is_empty());
        let inside = "// fluxlint: region(hot-path)\nfn f() {\n    let v = Vec::new();\n    let w = vec![0; 8];\n    let c = xs.to_vec();\n    let d = ys.clone();\n}\n// fluxlint: endregion\n";
        let f = scan_source(&ctx("crates/solver/src/a.rs"), inside);
        let rules: Vec<_> = f.iter().map(|x| (x.line, x.rule)).collect();
        assert_eq!(
            rules,
            vec![
                (3, Rule::HotPathAlloc),
                (4, Rule::HotPathAlloc),
                (5, Rule::HotPathAlloc),
                (6, Rule::HotPathAlloc),
            ],
            "{f:#?}"
        );
        assert!(f.iter().all(|x| x.function.as_deref() == Some("f")));
    }

    #[test]
    fn defective_region_markers_surface_as_lint_hygiene() {
        let src = "// fluxlint: region(hot-path)\nfn f() {}\n";
        let f = scan_source(&ctx("crates/solver/src/a.rs"), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::LintHygiene);
        assert!(f[0].message.contains("never closed"));
    }

    #[test]
    fn manifest_check_requires_workspace_lints() {
        let ok = "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n";
        assert!(check_manifest("crates/x/Cargo.toml", ok).is_empty());
        let missing = "[package]\nname = \"x\"\n";
        let f = check_manifest("crates/x/Cargo.toml", missing);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::LintHygiene);
    }
}
