//! `tripoll-lint` — repository-specific static checks that `rustc` and
//! `clippy` do not enforce, with zero dependencies beyond std:
//!
//! 1. **unsafe-needs-safety** — every `unsafe` token in code must carry
//!    a justification: a `// SAFETY:` comment on the same line or in
//!    the contiguous comment block above (attributes in between are
//!    skipped), or a `# Safety` doc section for `unsafe fn`
//!    declarations.
//! 2. **ordering-allowlist** — every `Ordering::*` call site must be
//!    accounted for in `lint/orderings.toml`, which names the protocol
//!    each file's orderings belong to (see `docs/CONCURRENCY.md`). The
//!    per-file, per-variant counts must match exactly, so adding,
//!    removing, or re-ordering an atomic site forces a deliberate
//!    allowlist (and protocol documentation) update.
//! 3. **missing-docs-heuristic** — top-level `pub` items in crates
//!    still at `#![warn(missing_docs)]` (where the compiler will not
//!    fail the build) must have a doc comment.
//! 4. **env-free-survey-stack** — no `std::env::var` (or `var_os` /
//!    `vars`) in the library sources of the survey stack and the
//!    crates around it
//!    (`crates/{ygm,graph,core,sync,gen,analysis,baselines}/src`):
//!    every setting of a survey or a generator is an explicit argument,
//!    never an environment knob.
//!
//! The scanner is token-level, not a parser: it splits each line into
//! code and comment text, neutralizing string/char literals and
//! handling nested block comments and raw strings, which is exactly
//! enough precision for the four checks above.
//!
//! Usage: `cargo run -p tripoll-lint -- --workspace` from the
//! repository root. Exits nonzero if any finding is reported.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut orderings_path = PathBuf::from("lint/orderings.toml");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--orderings" => {
                orderings_path =
                    PathBuf::from(it.next().expect("--orderings requires a path argument"));
            }
            "--help" | "-h" => {
                eprintln!("usage: tripoll-lint --workspace | tripoll-lint FILE...");
                return;
            }
            other => files.push(PathBuf::from(other)),
        }
    }
    if workspace {
        collect_rs_files(Path::new("crates"), &mut files);
        files.sort();
    }
    if files.is_empty() {
        eprintln!("tripoll-lint: no input files (try --workspace from the repo root)");
        std::process::exit(2);
    }

    let allowlist = match std::fs::read_to_string(&orderings_path) {
        Ok(s) => match parse_allowlist(&s) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("tripoll-lint: {}: {e}", orderings_path.display());
                std::process::exit(2);
            }
        },
        Err(e) => {
            eprintln!(
                "tripoll-lint: cannot read {}: {e}",
                orderings_path.display()
            );
            std::process::exit(2);
        }
    };

    let mut findings: Vec<Finding> = Vec::new();
    let mut seen_ordering_files: Vec<String> = Vec::new();
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("tripoll-lint: cannot read {}: {e}", path.display());
                std::process::exit(2);
            }
        };
        let rel = path.to_string_lossy().replace('\\', "/");
        let lines = scan(&text);
        check_unsafe(&rel, &lines, &mut findings);
        let counts = ordering_counts(&lines);
        if !counts.is_empty() {
            seen_ordering_files.push(rel.clone());
        }
        check_orderings(&rel, &counts, &allowlist, &mut findings);
        check_env_free(&rel, &lines, &mut findings);
        if workspace && warn_only_crate_root(path).is_some() {
            check_missing_docs(&rel, &lines, &mut findings);
        }
    }
    // Allowlist entries whose file vanished (or no longer has atomics)
    // are stale and must be pruned.
    for entry in &allowlist {
        if !seen_ordering_files.iter().any(|f| f == &entry.path) {
            findings.push(Finding {
                file: entry.path.clone(),
                line: 0,
                rule: "ordering-allowlist",
                msg: "allowlisted file has no Ordering call sites (stale entry?)".into(),
            });
        }
    }

    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("tripoll-lint: {} files clean", files.len());
    } else {
        println!("tripoll-lint: {} finding(s)", findings.len());
        std::process::exit(1);
    }
}

/// One reported violation.
struct Finding {
    file: String,
    line: usize,
    rule: &'static str,
    msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// The missing-docs heuristic applies only to crates that declare
/// `#![warn(missing_docs)]` — `deny` crates are compiler-enforced, and
/// crates with no attribute (the offline shims mirroring external
/// APIs) are exempt by policy. Returns the crate's src root if the
/// file belongs to such a crate.
fn warn_only_crate_root(path: &Path) -> Option<PathBuf> {
    let mut dir = path.parent()?;
    loop {
        let lib = dir.join("lib.rs");
        if lib.exists() {
            let text = std::fs::read_to_string(&lib).ok()?;
            if text.contains("#![warn(missing_docs)]") {
                return Some(dir.to_path_buf());
            }
            return None;
        }
        dir = dir.parent()?;
        if dir.as_os_str().is_empty() {
            return None;
        }
    }
}

// ---------------------------------------------------------------------
// Token-level line scanner
// ---------------------------------------------------------------------

/// One source line split into its code and comment halves, with
/// string/char literal contents blanked out of the code half.
#[derive(Debug, Default, Clone)]
struct Line {
    code: String,
    comment: String,
}

impl Line {
    fn is_comment_only(&self) -> bool {
        self.code.trim().is_empty() && !self.comment.trim().is_empty()
    }
    fn is_attr_only(&self) -> bool {
        let t = self.code.trim();
        t.starts_with("#[") || t.starts_with("#![")
    }
}

/// Splits `text` into [`Line`]s. String and char literal *contents*
/// are replaced by spaces in the code half (the delimiters remain), so
/// keyword and `Ordering::` searches cannot match inside literals;
/// comment text (line, doc, and nested block comments) lands in the
/// comment half.
fn scan(text: &str) -> Vec<Line> {
    #[derive(PartialEq)]
    enum St {
        Code,
        Block(usize),
        Str,
        RawStr(usize),
    }
    let mut st = St::Code;
    let mut lines = Vec::new();
    for raw in text.lines() {
        let b = raw.as_bytes();
        let mut line = Line::default();
        let mut i = 0;
        while i < b.len() {
            match st {
                St::Block(depth) => {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        st = St::Block(depth + 1);
                        line.comment.push_str("/*");
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        st = if depth == 1 {
                            St::Code
                        } else {
                            St::Block(depth - 1)
                        };
                        line.comment.push_str("*/");
                        i += 2;
                    } else {
                        line.comment.push(b[i] as char);
                        i += 1;
                    }
                }
                St::Str => {
                    if b[i] == b'\\' {
                        line.code.push(' ');
                        i += 2; // skip the escaped char (may run past EOL; fine)
                    } else if b[i] == b'"' {
                        line.code.push('"');
                        st = St::Code;
                        i += 1;
                    } else {
                        line.code.push(' ');
                        i += 1;
                    }
                }
                St::RawStr(hashes) => {
                    let closes = b[i] == b'"'
                        && i + hashes < b.len()
                        && b[i + 1..i + 1 + hashes].iter().all(|&c| c == b'#');
                    if closes {
                        line.code.push('"');
                        for _ in 0..hashes {
                            line.code.push('#');
                        }
                        i += 1 + hashes;
                        st = St::Code;
                    } else {
                        line.code.push(' ');
                        i += 1;
                    }
                }
                St::Code => {
                    let c = b[i];
                    if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
                        line.comment.push_str(&raw[i..]);
                        i = b.len();
                    } else if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        st = St::Block(1);
                        line.comment.push_str("/*");
                        i += 2;
                    } else if c == b'"' {
                        // Raw-string prefix? Look back over `b?r#*`.
                        let mut j = i;
                        let mut hashes = 0;
                        while j > 0 && b[j - 1] == b'#' {
                            j -= 1;
                            hashes += 1;
                        }
                        if j > 0 && b[j - 1] == b'r' {
                            st = St::RawStr(hashes);
                        } else {
                            st = St::Str;
                        }
                        line.code.push('"');
                        i += 1;
                    } else if c == b'\'' {
                        // Char literal vs lifetime: a quote starts a
                        // char literal iff it closes within a couple of
                        // tokens (`'x'`, `'\n'`, `'\u{1F600}'`).
                        if i + 1 < b.len() && b[i + 1] == b'\\' {
                            // Escaped char literal: consume to closing quote.
                            line.code.push('\'');
                            i += 1;
                            while i < b.len() && b[i] != b'\'' {
                                line.code.push(' ');
                                i += if b[i] == b'\\' { 2 } else { 1 };
                            }
                            if i < b.len() {
                                line.code.push('\'');
                                i += 1;
                            }
                        } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                            line.code.push_str("' '");
                            i += 3;
                        } else {
                            line.code.push('\''); // lifetime
                            i += 1;
                        }
                    } else {
                        line.code.push(c as char);
                        i += 1;
                    }
                }
            }
        }
        // A `//` comment never continues; an ordinary string literal
        // does not continue across lines in this codebase's style, but
        // raw-string and block-comment states legitimately span lines,
        // so those carry over.
        if st == St::Str {
            st = St::Code;
        }
        lines.push(line);
    }
    lines
}

/// Whether `code` contains `word` with identifier boundaries on both
/// sides.
fn has_word(code: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + word.len();
        let after_ok = after >= code.len()
            || !code[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

// ---------------------------------------------------------------------
// Check 1: unsafe-needs-safety
// ---------------------------------------------------------------------

fn check_unsafe(file: &str, lines: &[Line], findings: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        if !has_word(&line.code, "unsafe") {
            continue;
        }
        // `unsafe` in a type position (`unsafe fn(*const (), usize)`
        // as a function-pointer type) carries no obligation of its
        // own; the site that *produces* such a pointer does. Heuristic:
        // `unsafe fn(` with no function name.
        let t = line.code.trim();
        if t.contains("unsafe fn(") && !t.contains("unsafe fn ") {
            continue;
        }
        if line.comment.contains("SAFETY:") {
            continue;
        }
        // Walk upward over attributes to the contiguous comment block.
        let mut k = idx;
        let mut justified = false;
        while k > 0 {
            k -= 1;
            let prev = &lines[k];
            if prev.is_attr_only() {
                continue;
            }
            if prev.is_comment_only() {
                if prev.comment.contains("SAFETY:") || prev.comment.contains("# Safety") {
                    justified = true;
                    break;
                }
                continue;
            }
            break; // blank line or code: the block (if any) ended
        }
        if !justified {
            findings.push(Finding {
                file: file.into(),
                line: idx + 1,
                rule: "unsafe-needs-safety",
                msg: "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc section)".into(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Check 2: ordering-allowlist
// ---------------------------------------------------------------------

const VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Per-variant `Ordering::*` occurrence counts in code (not comments,
/// not string literals).
fn ordering_counts(lines: &[Line]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for line in lines {
        for v in VARIANTS {
            let needle = format!("Ordering::{v}");
            let mut start = 0;
            while let Some(pos) = line.code[start..].find(&needle) {
                *counts.entry(v).or_insert(0) += 1;
                start += pos + needle.len();
            }
        }
    }
    counts
}

/// One `[[file]]` entry of `lint/orderings.toml`.
#[derive(Debug, Default, Clone)]
struct AllowEntry {
    path: String,
    protocol: String,
    orderings: BTreeMap<String, usize>,
}

/// Hand-rolled parser for the restricted TOML subset the allowlist
/// uses: `[[file]]` array-of-tables with `key = "string"` and
/// `orderings = { Variant = N, ... }` lines.
fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[file]]" {
            entries.push(AllowEntry::default());
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`", n + 1))?;
        let entry = entries
            .last_mut()
            .ok_or_else(|| format!("line {}: key before first [[file]]", n + 1))?;
        let key = key.trim();
        let value = value.trim();
        match key {
            "path" | "protocol" => {
                let s = value
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("line {}: {key} must be a quoted string", n + 1))?;
                if key == "path" {
                    entry.path = s.to_string();
                } else {
                    entry.protocol = s.to_string();
                }
            }
            "orderings" => {
                let inner = value
                    .strip_prefix('{')
                    .and_then(|v| v.strip_suffix('}'))
                    .ok_or_else(|| format!("line {}: orderings must be an inline table", n + 1))?;
                for pair in inner.split(',') {
                    let pair = pair.trim();
                    if pair.is_empty() {
                        continue;
                    }
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("line {}: bad orderings pair `{pair}`", n + 1))?;
                    let k = k.trim().to_string();
                    if !VARIANTS.contains(&k.as_str()) {
                        return Err(format!("line {}: unknown Ordering variant `{k}`", n + 1));
                    }
                    let v: usize = v
                        .trim()
                        .parse()
                        .map_err(|_| format!("line {}: bad count in `{pair}`", n + 1))?;
                    entry.orderings.insert(k, v);
                }
            }
            other => return Err(format!("line {}: unknown key `{other}`", n + 1)),
        }
    }
    for e in &entries {
        if e.path.is_empty() || e.protocol.is_empty() {
            return Err(format!(
                "entry `{}` must set both path and protocol",
                e.path
            ));
        }
    }
    Ok(entries)
}

fn check_orderings(
    file: &str,
    counts: &BTreeMap<&'static str, usize>,
    allowlist: &[AllowEntry],
    findings: &mut Vec<Finding>,
) {
    if counts.is_empty() {
        return;
    }
    let fmt_map = |m: &BTreeMap<String, usize>| {
        m.iter()
            .map(|(k, v)| format!("{k} = {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let got: BTreeMap<String, usize> = counts.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    match allowlist.iter().find(|e| e.path == file) {
        None => {
            findings.push(Finding {
                file: file.into(),
                line: 0,
                rule: "ordering-allowlist",
                msg: format!(
                    "atomic Ordering call sites not in lint/orderings.toml ({{{}}}); add a [[file]] entry naming the protocol",
                    fmt_map(&got)
                ),
            });
        }
        Some(e) if got != e.orderings => {
            findings.push(Finding {
                file: file.into(),
                line: 0,
                rule: "ordering-allowlist",
                msg: format!(
                    "Ordering counts changed: allowlist has {{{}}}, file has {{{}}} — update lint/orderings.toml (protocol: {})",
                    fmt_map(&e.orderings),
                    fmt_map(&got),
                    e.protocol
                ),
            });
        }
        Some(_) => {}
    }
}

// ---------------------------------------------------------------------
// Check 3: missing-docs-heuristic
// ---------------------------------------------------------------------

const PUB_ITEMS: [&str; 10] = [
    "pub fn ",
    "pub struct ",
    "pub enum ",
    "pub trait ",
    "pub const ",
    "pub static ",
    "pub type ",
    "pub mod ",
    "pub unsafe fn ",
    "pub use ",
];

fn check_missing_docs(file: &str, lines: &[Line], findings: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        // Top-level items only: nested items live in impls/fns whose
        // reachability a token scanner cannot judge.
        if !line.code.starts_with("pub ") {
            continue;
        }
        let Some(item) = PUB_ITEMS.iter().find(|p| line.code.starts_with(**p)) else {
            continue;
        };
        if *item == "pub use " {
            continue; // re-exports take the source item's docs
        }
        // `pub mod name;` declarations: the module *file* carries the
        // docs as `//!` inner comments, which rustdoc attributes to the
        // module — only inline `pub mod name { ... }` needs docs here.
        if *item == "pub mod " && line.code.trim_end().ends_with(';') {
            continue;
        }
        let mut k = idx;
        let mut documented = false;
        while k > 0 {
            k -= 1;
            let prev = &lines[k];
            if prev.is_attr_only() {
                continue;
            }
            if prev.is_comment_only() {
                documented = prev.comment.trim_start().starts_with("///");
                break;
            }
            break;
        }
        if !documented {
            findings.push(Finding {
                file: file.into(),
                line: idx + 1,
                rule: "missing-docs-heuristic",
                msg: format!(
                    "undocumented public item in a warn-only crate: `{}`",
                    line.code.trim().trim_end_matches('{').trim()
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Check 4: env-free-survey-stack
// ---------------------------------------------------------------------

/// Library source trees that may not read the process environment.
const ENV_FREE_SRC: [&str; 7] = [
    "crates/ygm/src/",
    "crates/graph/src/",
    "crates/core/src/",
    "crates/sync/src/",
    "crates/gen/src/",
    "crates/analysis/src/",
    "crates/baselines/src/",
];

fn check_env_free(file: &str, lines: &[Line], findings: &mut Vec<Finding>) {
    let path = file.trim_start_matches("./");
    if !ENV_FREE_SRC.iter().any(|dir| path.starts_with(dir)) {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if line.code.contains("env::var") {
            findings.push(Finding {
                file: file.into(),
                line: idx + 1,
                rule: "env-free-survey-stack",
                msg: "environment read in a library crate: take the setting as an argument".into(),
            });
        }
    }
}

// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_for(src: &str) -> Vec<String> {
        let lines = scan(src);
        let mut f = Vec::new();
        check_unsafe("test.rs", &lines, &mut f);
        f.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn unsafe_without_safety_is_flagged() {
        let f = findings_for("fn main() {\n    unsafe { work() };\n}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("test.rs:2"), "{f:?}");
    }

    #[test]
    fn same_line_safety_is_accepted() {
        let f = findings_for("unsafe { work() }; // SAFETY: trivially fine\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn safety_block_above_attributes_is_accepted() {
        let src = "// SAFETY: the probe guarantees the feature.\n#[cfg(x)]\n#[target_feature(enable = \"avx2\")]\nunsafe fn go() {}\n";
        assert!(findings_for(src).is_empty());
    }

    #[test]
    fn doc_safety_section_is_accepted() {
        let src =
            "/// Does a thing.\n///\n/// # Safety\n/// Caller must uphold X.\nunsafe fn go() {}\n";
        assert!(findings_for(src).is_empty());
    }

    #[test]
    fn deleting_the_safety_comment_fails_the_lint() {
        // The negative path the CI gate depends on: same code, comment
        // stripped, must produce a finding.
        let with = "// SAFETY: exclusive access.\nunsafe { *p = 1 };\n";
        let without = "unsafe { *p = 1 };\n";
        assert!(findings_for(with).is_empty());
        assert_eq!(findings_for(without).len(), 1);
    }

    #[test]
    fn unsafe_in_strings_and_comments_is_ignored() {
        let f = findings_for("// this mentions unsafe code\nlet s = \"unsafe { }\";\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_fn_pointer_type_is_exempt() {
        let f = findings_for("struct B { call: unsafe fn(*const (), usize) }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn ordering_counts_skip_comments_and_strings() {
        let lines = scan(
            "// Ordering::SeqCst in prose\nlet s = \"Ordering::AcqRel\";\nx.load(Ordering::Acquire);\ny.store(1, Ordering::Release);\n",
        );
        let c = ordering_counts(&lines);
        assert_eq!(c.get("Acquire"), Some(&1));
        assert_eq!(c.get("Release"), Some(&1));
        assert_eq!(c.get("SeqCst"), None);
        assert_eq!(c.get("AcqRel"), None);
    }

    #[test]
    fn allowlist_parses_and_matches() {
        let toml = "# comment\n[[file]]\npath = \"a.rs\"\nprotocol = \"demo\"\norderings = { Acquire = 1, Release = 2 }\n";
        let allow = parse_allowlist(toml).unwrap();
        assert_eq!(allow.len(), 1);
        assert_eq!(allow[0].path, "a.rs");
        assert_eq!(allow[0].orderings["Release"], 2);
    }

    #[test]
    fn unlisted_ordering_site_is_flagged() {
        let allow = parse_allowlist(
            "[[file]]\npath = \"a.rs\"\nprotocol = \"demo\"\norderings = { Acquire = 1 }\n",
        )
        .unwrap();
        // File not in the allowlist at all.
        let mut f = Vec::new();
        let counts = ordering_counts(&scan("x.load(Ordering::Acquire);\n"));
        check_orderings("b.rs", &counts, &allow, &mut f);
        assert_eq!(f.len(), 1);
        // Listed file whose counts drifted (an extra Relaxed snuck in).
        let mut f = Vec::new();
        let counts = ordering_counts(&scan(
            "x.load(Ordering::Acquire);\ny.store(0, Ordering::Relaxed);\n",
        ));
        check_orderings("a.rs", &counts, &allow, &mut f);
        assert_eq!(f.len(), 1);
        // Exact match passes.
        let mut f = Vec::new();
        let counts = ordering_counts(&scan("x.load(Ordering::Acquire);\n"));
        check_orderings("a.rs", &counts, &allow, &mut f);
        assert!(f.is_empty());
    }

    #[test]
    fn missing_docs_heuristic_flags_undocumented_top_level_items() {
        let mut f = Vec::new();
        check_missing_docs(
            "t.rs",
            &scan("/// Documented.\npub fn a() {}\npub fn b() {}\npub use c::d;\n"),
            &mut f,
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].to_string().contains("pub fn b"));
    }

    fn env_findings(file: &str, src: &str) -> usize {
        let mut f = Vec::new();
        check_env_free(file, &scan(src), &mut f);
        f.len()
    }

    #[test]
    fn env_read_in_the_survey_stack_is_flagged() {
        let read = "let n = std::env::var(\"KNOB\").ok();\n";
        for file in [
            "crates/core/src/engine.rs",
            "./crates/ygm/src/comm.rs",
            "crates/graph/src/dodgr.rs",
            "crates/sync/src/lib.rs",
            "crates/gen/src/datasets.rs",
            "crates/analysis/src/table.rs",
            "crates/baselines/src/pearce.rs",
        ] {
            assert_eq!(env_findings(file, read), 1, "{file}");
        }
        assert_eq!(
            env_findings(
                "crates/core/src/a.rs",
                "use std::env;\nlet v = env::var_os(\"K\");\n"
            ),
            1
        );
        // Out of scope: the model checker's seed knobs, tests, examples
        // and the benchmark package.
        for file in [
            "crates/modelcheck/src/lib.rs",
            "crates/core/tests/model.rs",
            "examples/quickstart.rs",
            "benchmark/src/main.rs",
        ] {
            assert_eq!(env_findings(file, read), 0, "{file}");
        }
        // Prose, literals and other `env` items do not count.
        let benign = "// std::env::var is banned here\nlet s = \"env::var\";\nlet d = std::env::temp_dir();\n";
        assert_eq!(env_findings("crates/core/src/a.rs", benign), 0);
    }

    #[test]
    fn scanner_handles_raw_strings_and_nested_block_comments() {
        let lines = scan(
            "let r = r#\"unsafe Ordering::SeqCst\"#;\n/* outer /* unsafe */ still comment */ let x = 1;\n",
        );
        assert!(!has_word(&lines[0].code, "unsafe"));
        assert!(ordering_counts(&lines).is_empty());
        assert!(lines[1].code.contains("let x = 1;"));
        assert!(lines[1].comment.contains("still comment"));
    }
}
