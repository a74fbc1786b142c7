//! `holmes-lint`: a repo-specific determinism lint.
//!
//! Byte-identical replay is a load-bearing guarantee of this codebase
//! (every determinism test in the workspace depends on it), and a handful
//! of Rust idioms silently break it: iterating a `HashMap`/`HashSet`
//! (RandomState order differs per process), reading the wall clock inside
//! simulation logic, comparing floats with `==`, truncating byte/time
//! quantities with `as`. Clippy has no notion of *which* paths are
//! event-ordered, so this scanner encodes the repo's own rules.
//!
//! Deliberately line/token based with zero external parser dependencies
//! (the build environment is offline — same constraint that produced the
//! vendored shims). The preprocessor strips comments and string contents
//! while preserving byte offsets, and skips `#[cfg(test)]` blocks, so the
//! token rules see only non-test code.
//!
//! The sweep is tree-wide: every rule scans every non-vendored `.rs`
//! file, and a per-crate [`SeverityConfig`] decides what each hit means —
//! [`Severity::Deny`] fails the lint, [`Severity::Warn`] is reported but
//! non-fatal, [`Severity::Allow`] is dropped (integration tests, and the
//! bench crate's wall-clock reads, which are its purpose). Deny findings
//! can be suppressed through an audited allowlist (`lint.allow` at the
//! workspace root) in which every entry must carry a justification
//! comment; stale or unjustified entries fail the lint just like findings
//! do.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The lint rules, each enforcing one determinism/robustness invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `HashMap`/`HashSet` iteration in event-ordered code
    /// (netsim/engine): RandomState iteration order differs per process,
    /// so anything it feeds — error lists, flow launch order, fault
    /// sweeps — diverges between replays.
    HashIter,
    /// No `std::time::Instant`/`SystemTime` in simulation logic: simulated
    /// time comes from the event queue, never the host clock.
    WallClock,
    /// No `unwrap()`/undocumented `expect()` in the executor/simulator hot
    /// paths: a panic mid-iteration loses the event log; invariants must
    /// be spelled out in the `expect` message (≥ 20 characters).
    HotPathPanic,
    /// No bare float `==`/`!=`: accumulated rates/times differ in the last
    /// ulp between evaluation orders; compare against tolerances.
    FloatEq,
    /// No lossy `as` casts on byte/time quantities (`*bytes*`, `*_ns`,
    /// `*seconds*`, …) into narrower integer or `f32` types.
    LossyCast,
}

impl Rule {
    /// Stable kebab-case name, used in reports and the allowlist file.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashIter => "hash-iter",
            Rule::WallClock => "wall-clock",
            Rule::HotPathPanic => "hot-path-panic",
            Rule::FloatEq => "float-eq",
            Rule::LossyCast => "lossy-cast",
        }
    }

    /// Parse a rule from its [`Rule::name`].
    pub fn from_name(name: &str) -> Option<Rule> {
        [
            Rule::HashIter,
            Rule::WallClock,
            Rule::HotPathPanic,
            Rule::FloatEq,
            Rule::LossyCast,
        ]
        .into_iter()
        .find(|r| r.name() == name)
    }
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 5] = [
        Rule::HashIter,
        Rule::WallClock,
        Rule::HotPathPanic,
        Rule::FloatEq,
        Rule::LossyCast,
    ];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a rule hit means in a given crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The hit fails the lint (subject to the audited allowlist).
    Deny,
    /// The hit is reported but does not fail the lint.
    Warn,
    /// The hit is dropped: the rule does not apply to this crate.
    Allow,
}

/// Per-crate severity assignment for every rule.
///
/// Keys are crate directory names (`netsim`, `engine`, …), plus two
/// synthetic ones: `workspace` for the root `src/` tree and `tests` for
/// integration-test / bench directories anywhere in the workspace.
/// Unlisted (crate, rule) pairs default to [`Severity::Warn`], so a new
/// crate is visible in lint output from its first commit without
/// blocking the tree.
#[derive(Debug, Clone)]
pub struct SeverityConfig {
    overrides: Vec<(String, Rule, Severity)>,
}

impl SeverityConfig {
    /// A config with no overrides: everything warns.
    pub fn warn_all() -> Self {
        SeverityConfig {
            overrides: Vec::new(),
        }
    }

    /// Set the severity of `rule` for `crate_key`; the last call wins.
    pub fn set(mut self, crate_key: &str, rule: Rule, severity: Severity) -> Self {
        self.overrides.push((crate_key.to_string(), rule, severity));
        self
    }

    /// The severity of `rule` for the file at workspace-relative `rel`.
    pub fn severity(&self, rel: &str, rule: Rule) -> Severity {
        let key = crate_key(rel);
        self.overrides
            .iter()
            .rev()
            .find(|(k, r, _)| k == key && *r == rule)
            .map(|&(_, _, s)| s)
            .unwrap_or(Severity::Warn)
    }
}

impl Default for SeverityConfig {
    /// The repo's policy. Deny everywhere determinism is load-bearing:
    ///
    /// * `netsim`/`engine`/`obs` — the event-ordered core; every rule
    ///   denies (this is the old per-file hot-path list promoted to the
    ///   whole crate).
    /// * `parallel` — planner/synthesis feed the replay; every rule
    ///   denies. Hash iteration was promoted from warn when the
    ///   straggler-aware partition landed: `skew`/`straggler` pricing and
    ///   `delta` re-pricing order plans and costs that snapshots pin byte
    ///   for byte, so iteration order is load-bearing crate-wide (plans
    ///   are built from `BTree` state; hash sets appear only behind
    ///   membership tests).
    /// * `core`/`topology`/`model`/`workspace` — wall-clock and float
    ///   equality deny (they leak into reported metrics), plus lossy
    ///   casts for `topology`, whose quantities parameterize the fabric.
    /// * `bench` — wall-clock timing is its purpose: allowed; the rest
    ///   warns.
    /// * `tests` — integration tests assert on exact values and unwrap
    ///   freely by design: all rules allowed.
    fn default() -> Self {
        use Rule::*;
        use Severity::*;
        let mut config = SeverityConfig::warn_all();
        for key in ["netsim", "engine", "obs"] {
            for rule in Rule::ALL {
                config = config.set(key, rule, Deny);
            }
        }
        for rule in Rule::ALL {
            config = config.set("parallel", rule, Deny);
        }
        for key in ["core", "model", "workspace"] {
            config = config.set(key, WallClock, Deny).set(key, FloatEq, Deny);
        }
        config = config
            .set("topology", WallClock, Deny)
            .set("topology", FloatEq, Deny)
            .set("topology", LossyCast, Deny)
            .set("bench", WallClock, Allow);
        for rule in Rule::ALL {
            config = config.set("tests", rule, Allow);
        }
        config
    }
}

/// The severity key for a workspace-relative path: integration-test and
/// bench directories map to `tests`, `crates/<name>/…` to `<name>`, and
/// everything else (the root `src/` tree) to `workspace`.
fn crate_key(rel: &str) -> &str {
    if rel.starts_with("tests/") || rel.contains("/tests/") || rel.contains("/benches/") {
        return "tests";
    }
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some(end) = rest.find('/') {
            return &rest[..end];
        }
    }
    "workspace"
}

/// One rule violation at one source line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.excerpt
        )
    }
}

/// The result of linting a workspace.
#[derive(Debug, Clone, Default)]
pub struct LintOutcome {
    /// Deny-severity violations not covered by the allowlist, sorted by
    /// (file, line).
    pub findings: Vec<Finding>,
    /// Warn-severity hits: reported, never fatal.
    pub warnings: Vec<Finding>,
    /// Allow-severity hits dropped by the config.
    pub allowed: usize,
    /// Allowlist hygiene problems: entries without a justification
    /// comment, with an unknown rule name, or matching no finding
    /// (stale).
    pub allowlist_problems: Vec<String>,
    /// Findings suppressed by justified allowlist entries.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintOutcome {
    /// True when the tree is clean: no findings and a healthy allowlist.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.allowlist_problems.is_empty()
    }
}

/// Directories never scanned: vendored shims (external idiom, not ours)
/// and build output. Everything else — including the bench and analysis
/// crates — is swept tree-wide, with the [`SeverityConfig`] deciding per
/// crate whether a hit denies, warns, or is allowed.
const EXCLUDED: &[&str] = &["vendor", "target"];

/// Narrow target types for the lossy-cast rule.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Identifier fragments marking byte/time quantities.
const QUANTITY_MARKS: &[&str] = &[
    "bytes",
    "nanos",
    "_ns",
    "secs",
    "seconds",
    "latency",
    "bandwidth",
];

/// Lint every `.rs` file under `root` (the workspace root) with the
/// default [`SeverityConfig`] and apply the `lint.allow` allowlist if
/// present.
pub fn lint_workspace(root: &Path) -> io::Result<LintOutcome> {
    lint_workspace_with(root, &SeverityConfig::default())
}

/// [`lint_workspace`] under an explicit severity config.
pub fn lint_workspace_with(root: &Path, config: &SeverityConfig) -> io::Result<LintOutcome> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut outcome = LintOutcome::default();
    let mut all = Vec::new();
    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        let rel = rel.to_string_lossy().replace('\\', "/");
        outcome.files_scanned += 1;
        lint_file(&rel, &source, &mut all);
    }
    all.sort();

    let mut deny = Vec::new();
    for f in all {
        match config.severity(&f.file, f.rule) {
            Severity::Deny => deny.push(f),
            Severity::Warn => outcome.warnings.push(f),
            Severity::Allow => outcome.allowed += 1,
        }
    }

    let allow_path = root.join("lint.allow");
    let allowlist = if allow_path.exists() {
        parse_allowlist(&fs::read_to_string(&allow_path)?)
    } else {
        Vec::new()
    };
    apply_allowlist(deny, allowlist, &mut outcome);
    Ok(outcome)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if EXCLUDED
            .iter()
            .any(|x| rel == *x || rel.starts_with(&format!("{x}/")))
            || rel.starts_with('.')
        {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

/// Run every rule over one file; severity filtering happens later.
fn lint_file(rel: &str, source: &str, out: &mut Vec<Finding>) {
    let raw: Vec<&str> = source.lines().collect();
    let code = strip_comments_and_strings(source);
    let code: Vec<&str> = code.lines().collect();
    let in_test = mark_test_blocks(&code);

    // Pass 1: which identifiers in this file are declared as unordered
    // maps/sets (fields, lets, params)?
    let mut hash_names: BTreeSet<String> = BTreeSet::new();
    for (i, line) in code.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        collect_hash_decls(line, &mut hash_names);
    }

    // Pass 2: token rules.
    for (i, line) in code.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let mut hit = |rule: Rule| {
            out.push(Finding {
                file: rel.to_string(),
                line: i + 1,
                rule,
                excerpt: raw[i].trim().to_string(),
            });
        };
        if line_iterates_hash(line, &hash_names) {
            hit(Rule::HashIter);
        }
        if line_reads_wall_clock(line) {
            hit(Rule::WallClock);
        }
        if find_word(line, 0, "unwrap").is_some_and(|p| follows_dot_call(line, p, "unwrap")) {
            hit(Rule::HotPathPanic);
        }
        if let Some(p) = line.find(".expect(") {
            // `self.expect(…)` is a custom method on the receiver (e.g.
            // the obs JSON parser's token matcher), not `Option::expect`.
            let receiver_is_self = trailing_ident(line[..p].trim_end()) == "self";
            if !receiver_is_self && expect_message(&raw, i, p).is_none_or(|m| m.len() < 20) {
                hit(Rule::HotPathPanic);
            }
        }
        if line_has_float_eq(line) {
            hit(Rule::FloatEq);
        }
        if line_has_lossy_cast(line) {
            hit(Rule::LossyCast);
        }
    }
}

// ---------------------------------------------------------------------------
// Preprocessing
// ---------------------------------------------------------------------------

/// Blank comment bodies and string/char contents with spaces, preserving
/// every byte offset and newline, so line numbers and column positions in
/// the code view match the raw source.
fn strip_comments_and_strings(source: &str) -> String {
    let b: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            // Line comment: blank to end of line (keep the newline).
            while i < b.len() && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 1;
            out.push(' ');
            out.push(' ');
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
        } else if c == 'r' && (next == Some('"') || next == Some('#')) && is_raw_string(&b, i) {
            let (consumed, text) = blank_raw_string(&b, i);
            out.push_str(&text);
            i += consumed;
        } else if c == '"' {
            out.push('"');
            i += 1;
            while i < b.len() && b[i] != '"' {
                if b[i] == '\\' && i + 1 < b.len() {
                    out.push(' ');
                    out.push(blank(b[i + 1]));
                    i += 2;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            if i < b.len() {
                out.push('"');
                i += 1;
            }
        } else if c == '\'' && is_char_literal(&b, i) {
            // Blank the char body; keep both quotes.
            out.push('\'');
            i += 1;
            while i < b.len() && b[i] != '\'' {
                if b[i] == '\\' && i + 1 < b.len() {
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            if i < b.len() {
                out.push('\'');
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// `'` starts a char literal (as opposed to a lifetime) when it closes
/// within a couple of characters or escapes.
fn is_char_literal(b: &[char], i: usize) -> bool {
    match b.get(i + 1) {
        Some('\\') => true,
        Some(_) => b.get(i + 2) == Some(&'\''),
        None => false,
    }
}

fn is_raw_string(b: &[char], i: usize) -> bool {
    // r"..." or r#"..."# (any hash count).
    let mut j = i + 1;
    while b.get(j) == Some(&'#') {
        j += 1;
    }
    b.get(j) == Some(&'"')
}

fn blank_raw_string(b: &[char], i: usize) -> (usize, String) {
    let mut hashes = 0;
    let mut j = i + 1;
    while b.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    // b[j] == '"'
    let mut out: String = b[i..=j].iter().collect();
    j += 1;
    let closes = |b: &[char], j: usize| {
        b.get(j) == Some(&'"') && (0..hashes).all(|h| b.get(j + 1 + h) == Some(&'#'))
    };
    while j < b.len() && !closes(b, j) {
        out.push(if b[j] == '\n' { '\n' } else { ' ' });
        j += 1;
    }
    if j < b.len() {
        for k in 0..=hashes {
            out.push(b[j + k]);
        }
        j += hashes + 1;
    }
    (j - i, out)
}

/// Mark lines inside `#[cfg(test)]`-gated blocks (the attribute's item and
/// its braces) so the token rules skip test code.
fn mark_test_blocks(code: &[&str]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if code[i].contains("#[cfg(test)]") {
            let start = i;
            // Find the opening brace of the gated item, then balance.
            let mut depth = 0i32;
            let mut opened = false;
            let mut j = i;
            'outer: while j < code.len() {
                for ch in code[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        ';' if !opened => {
                            // `#[cfg(test)] use ...;` — single item, no block.
                            break 'outer;
                        }
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            let end = j.min(code.len() - 1);
            for flag in in_test.iter_mut().take(end + 1).skip(start) {
                *flag = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

// ---------------------------------------------------------------------------
// Rule: hash-iter
// ---------------------------------------------------------------------------

/// Record identifiers bound to `HashMap`/`HashSet` values on this line:
/// `let [mut] name: HashMap<..>`, `name: HashMap<..>` (fields/params),
/// `let [mut] name = HashMap::new()`, including wrappers like
/// `Vec<HashSet<..>>`.
fn collect_hash_decls(line: &str, names: &mut BTreeSet<String>) {
    for ty in ["HashMap", "HashSet"] {
        let mut from = 0;
        while let Some(pos) = find_word(line, from, ty) {
            from = pos + ty.len();
            let mut prefix = strip_type_context(line[..pos].trim_end());
            // Unwrap container generics: `Vec<`, `Option<`, `&mut Box<`, …
            while let Some(p) = prefix.strip_suffix('<') {
                prefix =
                    strip_type_context(p.trim_end().trim_end_matches(is_ident_char).trim_end());
            }
            let Some(p) = prefix
                .strip_suffix(':')
                .or_else(|| prefix.strip_suffix('='))
            else {
                continue;
            };
            // `::` path segment (e.g. `collections::HashMap`) — not a decl.
            if p.ends_with(':') {
                continue;
            }
            let name = trailing_ident(p.trim_end());
            if !name.is_empty() && name.chars().next().is_some_and(|c| c.is_lowercase()) {
                names.insert(name.to_string());
            }
        }
    }
}

/// Strip module paths (`std::collections::`) and reference/mutability
/// decoration (`&`, `&mut`) from the end of a type's textual context, so
/// the declaration patterns below see the `name:`/`name =` that precedes
/// the type.
fn strip_type_context(mut s: &str) -> &str {
    loop {
        let t = s.trim_end();
        if let Some(p) = t.strip_suffix("::") {
            s = p.trim_end_matches(is_ident_char);
        } else if let Some(p) = t.strip_suffix('&') {
            s = p;
        } else if let Some(p) = t.strip_suffix("mut") {
            // Only the keyword, not an identifier ending in "mut".
            if p.is_empty() || p.ends_with(|c: char| !is_ident_char(c)) {
                s = p;
            } else {
                return t;
            }
        } else {
            return t;
        }
    }
}

/// Does this line iterate any of the tracked unordered collections?
fn line_iterates_hash(line: &str, names: &BTreeSet<String>) -> bool {
    const ITER_METHODS: &[&str] = &[
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_iter()",
        ".into_keys()",
        ".into_values()",
        ".drain(",
        ".drain()",
        ".retain(",
    ];
    for name in names {
        let mut from = 0;
        while let Some(pos) = find_word(line, from, name) {
            from = pos + name.len();
            let rest = &line[pos + name.len()..];
            if ITER_METHODS.iter().any(|m| rest.starts_with(m)) {
                return true;
            }
        }
        // `for x in [&[mut]] name` / `in name.something` — iteration via
        // the IntoIterator impl, with or without an adapter chain.
        if let Some(for_pos) = find_word(line, 0, "for") {
            if let Some(in_rel) = find_word(&line[for_pos..], 0, "in") {
                let after_in = &line[for_pos + in_rel + 2..];
                if find_word(after_in, 0, name).is_some() {
                    return true;
                }
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule: wall-clock
// ---------------------------------------------------------------------------

fn line_reads_wall_clock(line: &str) -> bool {
    [
        "std::time::Instant",
        "std::time::SystemTime",
        "Instant::now",
        "SystemTime::now",
        "time::Instant",
        "time::SystemTime",
    ]
    .iter()
    .any(|p| line.contains(p))
}

// ---------------------------------------------------------------------------
// Rule: hot-path-panic
// ---------------------------------------------------------------------------

fn follows_dot_call(line: &str, pos: usize, method: &str) -> bool {
    line[..pos].trim_end().ends_with('.')
        && line[pos + method.len()..].trim_start().starts_with("()")
}

/// Extract the `expect` message beginning at `line_idx`/`col` in the raw
/// source, looking ahead a couple of lines for rustfmt-wrapped calls.
fn expect_message(raw: &[&str], line_idx: usize, col: usize) -> Option<String> {
    let tail = &raw[line_idx][col..];
    for candidate in std::iter::once(tail).chain(raw[line_idx + 1..].iter().take(2).copied()) {
        if let Some(q) = candidate.find('"') {
            let rest = &candidate[q + 1..];
            let end = rest.find('"').unwrap_or(rest.len());
            return Some(rest[..end].to_string());
        }
        // A line with a closing paren before any quote means there was no
        // message at all.
        if candidate.contains(')') {
            return None;
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Rule: float-eq
// ---------------------------------------------------------------------------

fn line_has_float_eq(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let two = &line[i..i + 2];
        let is_eq = two == "==" && (i == 0 || !matches!(bytes[i - 1], b'<' | b'>' | b'!' | b'='));
        let is_ne = two == "!=";
        if (is_eq || is_ne)
            && bytes.get(i + 2) != Some(&b'=')
            && (is_float_token(left_operand(&line[..i]))
                || is_float_token(right_operand(&line[i + 2..])))
        {
            return true;
        }
        i += 1;
    }
    false
}

fn left_operand(s: &str) -> &str {
    let s = s.trim_end();
    let start = s
        .rfind(|c: char| c.is_whitespace() || "(,;[{&|".contains(c))
        .map(|p| p + 1)
        .unwrap_or(0);
    s[start..].trim_matches(')')
}

fn right_operand(s: &str) -> &str {
    let s = s.trim_start();
    let end = s
        .find(|c: char| c.is_whitespace() || "),;]}&|".contains(c))
        .unwrap_or(s.len());
    s[..end].trim_matches('(')
}

/// A float literal: optional sign, leading digit, containing a decimal
/// point or a `f32`/`f64` suffix.
fn is_float_token(tok: &str) -> bool {
    let tok = tok.trim_start_matches('-');
    if !tok.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return false;
    }
    let has_point = tok.contains('.');
    let has_suffix = tok.ends_with("f32") || tok.ends_with("f64");
    (has_point || has_suffix)
        && tok
            .chars()
            .all(|c| c.is_ascii_digit() || "._eEf+-".contains(c))
}

// ---------------------------------------------------------------------------
// Rule: lossy-cast
// ---------------------------------------------------------------------------

fn line_has_lossy_cast(line: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = line[from..].find(" as ") {
        let pos = from + rel;
        from = pos + 4;
        let target = right_operand(&line[pos + 4..]);
        let target = target.trim_end_matches(|c: char| !c.is_alphanumeric());
        if !NARROW_TYPES.contains(&target) {
            continue;
        }
        // Source expression: trailing identifier/field chain before ` as `.
        let src = &line[..pos].trim_end();
        let start = src
            .rfind(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.'))
            .map(|p| p + 1)
            .unwrap_or(0);
        let source = src[start..].to_ascii_lowercase();
        if QUANTITY_MARKS.iter().any(|m| source.contains(m)) || source.ends_with("_s") {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Shared token helpers
// ---------------------------------------------------------------------------

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Find `word` at `from` or later, requiring non-identifier characters on
/// both sides.
fn find_word(line: &str, from: usize, word: &str) -> Option<usize> {
    let mut at = from;
    while let Some(rel) = line[at..].find(word) {
        let pos = at + rel;
        let before_ok = pos == 0 || !is_ident_char(line[..pos].chars().next_back().unwrap_or(' '));
        let after_ok = line[pos + word.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return Some(pos);
        }
        at = pos + word.len();
    }
    None
}

fn trailing_ident(s: &str) -> &str {
    let start = s
        .rfind(|c: char| !is_ident_char(c))
        .map(|p| p + 1)
        .unwrap_or(0);
    &s[start..]
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

struct AllowEntry {
    rule: Option<Rule>,
    rule_text: String,
    file: String,
    fragment: String,
    justified: bool,
    line: usize,
    used: bool,
}

/// Parse `lint.allow`: `#`-comment lines are justifications; an entry line
/// is `rule-name  path  fragment-of-the-offending-line` and must directly
/// follow at least one justification comment.
fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    let mut entries = Vec::new();
    let mut justified = false;
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            justified = false;
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix('#') {
            if !comment.trim().is_empty() {
                justified = true;
            }
            continue;
        }
        let mut parts = trimmed.splitn(3, char::is_whitespace);
        let rule_text = parts.next().unwrap_or_default().to_string();
        let file = parts.next().unwrap_or_default().to_string();
        let fragment = parts.next().unwrap_or_default().trim().to_string();
        entries.push(AllowEntry {
            rule: Rule::from_name(&rule_text),
            rule_text,
            file,
            fragment,
            justified,
            line: i + 1,
            used: false,
        });
        justified = false;
    }
    entries
}

fn apply_allowlist(findings: Vec<Finding>, mut entries: Vec<AllowEntry>, out: &mut LintOutcome) {
    for f in findings {
        let suppressed = entries.iter_mut().any(|e| {
            let hit = e.rule == Some(f.rule)
                && e.file == f.file
                && !e.fragment.is_empty()
                && f.excerpt.contains(&e.fragment);
            if hit {
                e.used = true;
            }
            hit
        });
        if suppressed {
            out.suppressed += 1;
        } else {
            out.findings.push(f);
        }
    }
    for e in &entries {
        if e.rule.is_none() {
            out.allowlist_problems.push(format!(
                "lint.allow:{}: unknown rule `{}`",
                e.line, e.rule_text
            ));
        }
        if !e.justified {
            out.allowlist_problems.push(format!(
                "lint.allow:{}: entry has no preceding justification comment",
                e.line
            ));
        }
        if e.rule.is_some() && !e.used {
            out.allowlist_problems.push(format!(
                "lint.allow:{}: stale entry — matches no current finding",
                e.line
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_source(rel: &str, source: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        lint_file(rel, source, &mut out);
        out
    }

    const SIM: &str = "crates/netsim/src/sim.rs";

    #[test]
    fn hash_iteration_is_flagged_everywhere_severity_decides() {
        let src = "fn f() {\n    let mut m: HashMap<u32, u32> = HashMap::new();\n    for (k, v) in &m { use_it(k, v); }\n}\n";
        // The sweep is tree-wide: the hit fires in any crate…
        let f = lint_source(SIM, src);
        assert!(f.iter().any(|f| f.rule == Rule::HashIter), "{f:?}");
        let f = lint_source("crates/model/src/lib.rs", src);
        assert!(f.iter().any(|f| f.rule == Rule::HashIter), "{f:?}");
        // …and the per-crate config grades it: deny on the event-ordered
        // core, warn off it, allow in integration tests.
        let config = SeverityConfig::default();
        assert_eq!(config.severity(SIM, Rule::HashIter), Severity::Deny);
        assert_eq!(
            config.severity("crates/model/src/lib.rs", Rule::HashIter),
            Severity::Warn
        );
        assert_eq!(
            config.severity("crates/netsim/tests/properties.rs", Rule::HashIter),
            Severity::Allow
        );
    }

    #[test]
    fn severity_config_keys_crates_tests_and_workspace() {
        let config = SeverityConfig::default();
        // The old per-file hot-path list is promoted to whole crates.
        assert_eq!(
            config.severity("crates/netsim/src/algo.rs", Rule::HotPathPanic),
            Severity::Deny
        );
        assert_eq!(
            config.severity("crates/engine/src/builder.rs", Rule::HotPathPanic),
            Severity::Deny
        );
        // Bench reads the wall clock on purpose; the root src tree denies
        // float equality; unknown crates warn by default.
        assert_eq!(
            config.severity("crates/bench/src/timing.rs", Rule::WallClock),
            Severity::Allow
        );
        assert_eq!(config.severity("src/lib.rs", Rule::FloatEq), Severity::Deny);
        assert_eq!(
            config.severity("crates/new_crate/src/lib.rs", Rule::FloatEq),
            Severity::Warn
        );
        // Overrides compose, last call wins.
        let custom = SeverityConfig::warn_all()
            .set("netsim", Rule::FloatEq, Severity::Allow)
            .set("netsim", Rule::FloatEq, Severity::Deny);
        assert_eq!(custom.severity(SIM, Rule::FloatEq), Severity::Deny);
        assert_eq!(custom.severity(SIM, Rule::WallClock), Severity::Warn);
    }

    #[test]
    fn custom_hasher_maps_are_still_tracked() {
        // A third type parameter (a deterministic hasher) does not make
        // iteration order meaningful: fields, lets and `HashMap::default()`
        // bindings are tracked as before, and probing stays clean.
        let src = "struct S {\n    inflight: HashMap<u64, (FlowId, Rank), WordHash>,\n}\nfn f(s: &S) {\n    let mut m: std::collections::HashMap<u32, u32, WordHash> = HashMap::default();\n    m.insert(1, 2);\n    let v = m.get(&1);\n    for (k, v) in &m { use_it(k, v); }\n    let ids: Vec<_> = s.inflight.iter().collect();\n}\n";
        let lines: Vec<usize> = lint_source(SIM, src)
            .iter()
            .filter(|f| f.rule == Rule::HashIter)
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![8, 9]);
    }

    #[test]
    fn hash_indexing_is_not_iteration() {
        let src = "fn f() {\n    let mut m: HashMap<u32, u32> = HashMap::new();\n    m.insert(1, 2);\n    let v = m[&1] + m.get(&2).copied().unwrap_or(0);\n    let has = m.contains_key(&3);\n}\n";
        assert!(lint_source(SIM, src).is_empty());
    }

    #[test]
    fn btree_iteration_is_fine() {
        let src = "fn f() {\n    let m: BTreeMap<u32, u32> = BTreeMap::new();\n    for (k, v) in &m { use_it(k, v); }\n    for x in m.keys() {}\n}\n";
        assert!(lint_source(SIM, src).is_empty());
    }

    #[test]
    fn wall_clock_flagged() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let f = lint_source("crates/engine/src/executor.rs", src);
        assert!(f.iter().any(|f| f.rule == Rule::WallClock));
    }

    #[test]
    fn hot_path_unwrap_and_short_expect_flagged() {
        let src = "fn f(x: Option<u32>) {\n    let a = x.unwrap();\n    let b = x.expect(\"oops\");\n    let c = x.expect(\"slab invariant: live slot for every active flow\");\n}\n";
        let f = lint_source(SIM, src);
        let panics: Vec<_> = f.iter().filter(|f| f.rule == Rule::HotPathPanic).collect();
        assert_eq!(panics.len(), 2, "{panics:?}");
        assert_eq!(panics[0].line, 2);
        assert_eq!(panics[1].line, 3);
    }

    #[test]
    fn float_eq_flagged_but_tuple_field_access_is_not() {
        let src = "fn f(a: f64, b: MyTuple) {\n    if a == 0.0 { }\n    if 1.5 != a { }\n    if b.0 == b.1 { }\n    if a <= 0.5 { }\n}\n";
        let f = lint_source(SIM, src);
        let eqs: Vec<_> = f.iter().filter(|f| f.rule == Rule::FloatEq).collect();
        assert_eq!(eqs.len(), 2, "{eqs:?}");
        assert_eq!(eqs[0].line, 2);
        assert_eq!(eqs[1].line, 3);
    }

    #[test]
    fn lossy_quantity_cast_flagged_widening_is_not() {
        let src = "fn f(total_bytes: u64, n: u64) {\n    let a = total_bytes as u32;\n    let b = total_bytes as f64;\n    let c = n as u32;\n    let d = latency_ns as f32;\n}\n";
        let f = lint_source(SIM, src);
        let casts: Vec<_> = f.iter().filter(|f| f.rule == Rule::LossyCast).collect();
        assert_eq!(casts.len(), 2, "{casts:?}");
        assert_eq!(casts[0].line, 2);
        assert_eq!(casts[1].line, 5);
    }

    #[test]
    fn test_blocks_and_comments_are_skipped() {
        let src = "fn f() {}\n// let t = std::time::Instant::now();\n/* x.unwrap() */\n#[cfg(test)]\nmod tests {\n    fn g(x: Option<u32>) { x.unwrap(); }\n}\n";
        assert!(lint_source(SIM, src).is_empty());
    }

    #[test]
    fn strings_do_not_trip_rules() {
        let src = "fn f() { let s = \"for k in map.iter() == 0.0\"; }\n";
        assert!(lint_source(SIM, src).is_empty());
    }

    #[test]
    fn allowlist_suppresses_with_justification_only() {
        let findings = vec![Finding {
            file: "crates/netsim/src/sim.rs".into(),
            line: 10,
            rule: Rule::FloatEq,
            excerpt: "if rate == 0.0 {".into(),
        }];
        // Justified entry suppresses.
        let mut out = LintOutcome::default();
        let entries = parse_allowlist(
            "# audited: exact sentinel comparison\nfloat-eq crates/netsim/src/sim.rs rate == 0.0\n",
        );
        apply_allowlist(findings.clone(), entries, &mut out);
        assert!(out.is_clean(), "{out:?}");
        assert_eq!(out.suppressed, 1);
        // Unjustified entry: suppresses but reports the hygiene problem.
        let mut out = LintOutcome::default();
        let entries = parse_allowlist("float-eq crates/netsim/src/sim.rs rate == 0.0\n");
        apply_allowlist(findings.clone(), entries, &mut out);
        assert!(!out.is_clean());
        // Stale entry: flagged.
        let mut out = LintOutcome::default();
        let entries =
            parse_allowlist("# reason\nfloat-eq crates/netsim/src/sim.rs nothing like this\n");
        apply_allowlist(findings, entries, &mut out);
        assert!(out.allowlist_problems.iter().any(|p| p.contains("stale")));
    }
}
