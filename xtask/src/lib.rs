//! Repo-specific lint pass (`cargo xtask lint`).
//!
//! The workspace's soundness story concentrates its risk in a few files: the
//! `unsafe` type-erasure in `bsp::pool`, the message table's `set_len` after
//! delivery in `bsp::engine`, and the wire-sizing code in `dist`. This pass
//! enforces the *policies* around that concentration — things `rustc` and
//! `clippy` have no opinion on:
//!
//! | rule | requirement |
//! |------|-------------|
//! | `unsafe-needs-safety-comment` | every `unsafe` usage sits under a `// SAFETY:` comment or a `/// # Safety` doc section |
//! | `unsafe-outside-allowlist` | the `unsafe` keyword appears only in `bsp::pool`, `bsp::engine` (delivery's `set_len`; compute borrows vertex state through `split_at_mut`), `compat/*`, and the one test binary that installs a counting `#[global_allocator]` (`crates/tag/tests/alloc_budget.rs`) |
//! | `no-thread-spawn` | threads are spawned only by `bsp::pool` (through the `bsp::sync` shim) and the `compat` shims; `crates/server` spawns none |
//! | `no-wall-clock-in-accounting` | byte/message accounting files never read `Instant` (determinism: counts must not depend on time) |
//! | `allow-needs-justification` | every `#[allow(...)]` outside `compat/*` carries a comment explaining why |
//!
//! Scanning is line-oriented over a *lexed* view of each file: string
//! literals and comments are stripped before rules run, so `unsafe_row_bytes`
//! (an identifier), `"thread::spawn"` (a string), and prose like "no `unsafe`
//! here" (a comment) never trip a rule. Comments are kept in a parallel
//! per-line buffer so rules can look *for* them (SAFETY covers, allow
//! justifications).

use std::fmt;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Rule configuration
// ---------------------------------------------------------------------------

/// Files allowed to use the `unsafe` keyword, exactly. `engine.rs` is there
/// for delivery's one `set_len` only; the test binary for its `unsafe impl
/// GlobalAlloc` (a counting allocator cannot be written without one); no
/// product code outside `bsp` may join this list.
const UNSAFE_ALLOW_FILES: &[&str] =
    &["crates/bsp/src/pool.rs", "crates/bsp/src/engine.rs", "crates/tag/tests/alloc_budget.rs"];

/// Path prefixes allowed to use the `unsafe` keyword (`compat` shims mirror
/// external crates' APIs).
const UNSAFE_ALLOW_PREFIXES: &[&str] = &["crates/compat/"];

/// Files allowed to name `thread::spawn` / `thread::Builder`: the pool (the
/// one sanctioned thread owner), its std/loom indirection, and the
/// model-check suites (which spawn *scheduler-controlled* loom threads).
const SPAWN_ALLOW_FILES: &[&str] = &[
    "crates/bsp/src/pool.rs",
    "crates/bsp/src/sync.rs",
    "crates/bsp/tests/loom_pool.rs",
    "crates/server/tests/loom_admission.rs",
];

/// Prefixes allowed to spawn: the compat shims (loom's controlled threads are
/// real OS threads) and this tool's own sources (pattern definitions).
const SPAWN_ALLOW_PREFIXES: &[&str] = &["crates/compat/"];

/// Byte/message-accounting files: the paper's communication-cost measure must
/// be a pure function of the data, so wall-clock reads are banned here.
const ACCOUNTING_FILES: &[&str] = &[
    "crates/bsp/src/stats.rs",
    "crates/bsp/src/recovery.rs",
    "crates/dist/src/netstats.rs",
    "crates/dist/src/spark.rs",
    "crates/dist/src/lib.rs",
    "crates/session/src/placement.rs",
];

/// Prefixes exempt from `allow-needs-justification`: compat shims hold
/// API-compatibility `allow`s (`dead_code`, `unused`) by construction.
const ALLOW_JUSTIFY_EXEMPT_PREFIXES: &[&str] = &["crates/compat/"];

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// One rule violation at one source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (see the module table).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

// ---------------------------------------------------------------------------
// Lexed view: code with strings/comments blanked + comments kept aside
// ---------------------------------------------------------------------------

/// Per-line split of a source file into code and comment text.
struct Lexed {
    /// Source lines with comments and string/char-literal *contents* replaced
    /// by spaces — rules match keywords and paths against these.
    code: Vec<String>,
    /// Comment text per line (line, block, and doc comments), used by rules
    /// that look for SAFETY covers and justifications.
    comments: Vec<String>,
}

/// Strip a Rust source into per-line code and comment buffers. Handles line
/// and nested block comments, string/char literals (escapes included), raw
/// strings with any hash count, and the lifetime-vs-char-literal ambiguity.
fn lex(source: &str) -> Lexed {
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        CharLit,
    }
    let mut st = St::Code;
    let mut code = Vec::new();
    let mut comments = Vec::new();
    let mut code_line = String::new();
    let mut comment_line = String::new();
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            if matches!(st, St::LineComment) {
                st = St::Code;
            }
            code.push(std::mem::take(&mut code_line));
            comments.push(std::mem::take(&mut comment_line));
            i += 1;
            continue;
        }
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::LineComment;
                    code_line.push_str("  ");
                    i += 2;
                }
                '/' if next == Some('*') => {
                    st = St::BlockComment(1);
                    code_line.push_str("  ");
                    i += 2;
                }
                '"' => {
                    st = St::Str;
                    code_line.push(' ');
                    i += 1;
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string: r"..." or r#"..."# (any hashes).
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        for _ in i..=j {
                            code_line.push(' ');
                        }
                        i = j + 1;
                    } else {
                        code_line.push(c);
                        i += 1;
                    }
                }
                '\'' => {
                    // Lifetime ('a) or char literal ('x'). A lifetime's
                    // identifier is not followed by a closing quote.
                    let is_lifetime = next.is_some_and(|n| n.is_alphabetic() || n == '_')
                        && chars.get(i + 2) != Some(&'\'');
                    if is_lifetime {
                        code_line.push(c);
                        i += 1;
                    } else {
                        st = St::CharLit;
                        code_line.push(' ');
                        i += 1;
                    }
                }
                _ => {
                    code_line.push(c);
                    i += 1;
                }
            },
            St::LineComment => {
                comment_line.push(c);
                i += 1;
            }
            St::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    st = if depth == 1 { St::Code } else { St::BlockComment(depth - 1) };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    i += 2;
                } else {
                    comment_line.push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    i += 2; // skip the escaped character
                } else if c == '"' {
                    st = St::Code;
                    code_line.push(' ');
                    i += 1;
                } else {
                    code_line.push(' ');
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' && (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
                    st = St::Code;
                    for _ in 0..=hashes {
                        code_line.push(' ');
                    }
                    i += 1 + hashes;
                } else {
                    code_line.push(' ');
                    i += 1;
                }
            }
            St::CharLit => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    st = St::Code;
                    code_line.push(' ');
                    i += 1;
                } else {
                    code_line.push(' ');
                    i += 1;
                }
            }
        }
    }
    code.push(code_line);
    comments.push(comment_line);
    Lexed { code, comments }
}

/// True if `word` occurs in `line` as a standalone token (not as a substring
/// of an identifier like `unsafe_row_bytes`).
fn contains_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before_ok =
            at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        let end = at + word.len();
        let after_ok =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// True if the code line names a thread-spawning facility: a direct
/// `thread::spawn` / `thread::Builder` path or a brace import that pulls one
/// of them in.
fn names_thread_spawn(code: &str) -> bool {
    if code.contains("thread::spawn") || code.contains("thread::Builder") {
        return true;
    }
    if let Some(pos) = code.find("thread::{") {
        let rest = &code[pos..];
        return contains_word(rest, "spawn") || contains_word(rest, "Builder");
    }
    false
}

/// A line that only carries structure: blank (code-wise), or an attribute.
fn is_skippable_decoration(code_line: &str) -> bool {
    let t = code_line.trim();
    t.is_empty() || t.starts_with("#[") || t.starts_with("#![")
}

/// Does the `unsafe` at line `idx` sit under a SAFETY cover? Accepted covers:
/// a `SAFETY` comment on the same line, or — walking upward over blank
/// lines, attributes, doc comments, and *other unsafe lines* (one comment may
/// cover a contiguous run of unsafe statements) — a comment containing
/// `SAFETY` or a doc section `# Safety`.
fn has_safety_cover(lx: &Lexed, idx: usize) -> bool {
    let marker = |s: &str| s.contains("SAFETY") || s.contains("# Safety");
    if marker(&lx.comments[idx]) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        if marker(&lx.comments[i]) {
            return true;
        }
        let covered_by_same_comment =
            is_skippable_decoration(&lx.code[i]) || contains_word(&lx.code[i], "unsafe");
        if !covered_by_same_comment {
            return false;
        }
    }
    false
}

/// Does the `#[allow(...)]` at line `idx` carry a justification? Any comment
/// on the line itself or directly above it (skipping other attributes and
/// blank lines) counts.
fn has_justification(lx: &Lexed, idx: usize) -> bool {
    if !lx.comments[idx].trim().is_empty() {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        if !lx.comments[i].trim().is_empty() {
            return true;
        }
        if !is_skippable_decoration(&lx.code[i]) {
            return false;
        }
    }
    false
}

fn path_allowed(path: &str, files: &[&str], prefixes: &[&str]) -> bool {
    files.contains(&path) || prefixes.iter().any(|p| path.starts_with(p))
}

// ---------------------------------------------------------------------------
// The lint pass
// ---------------------------------------------------------------------------

/// Lint one source file. `path` is workspace-relative with forward slashes;
/// it selects which rules apply.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let lx = lex(source);
    let mut findings = Vec::new();
    let in_xtask = path.starts_with("xtask/");
    for (i, code) in lx.code.iter().enumerate() {
        let line = i + 1;
        if contains_word(code, "unsafe") && !in_xtask {
            if !path_allowed(path, UNSAFE_ALLOW_FILES, UNSAFE_ALLOW_PREFIXES) {
                findings.push(Finding {
                    rule: "unsafe-outside-allowlist",
                    file: path.to_string(),
                    line,
                    message: "`unsafe` is confined to bsp::pool, bsp::engine, compat and the \
                              counting-allocator test; \
                              refactor or extend the allowlist deliberately"
                        .to_string(),
                });
            } else if !has_safety_cover(&lx, i) {
                findings.push(Finding {
                    rule: "unsafe-needs-safety-comment",
                    file: path.to_string(),
                    line,
                    message: "`unsafe` without a `// SAFETY:` comment or `/// # Safety` \
                              doc section above it"
                        .to_string(),
                });
            }
        }
        if names_thread_spawn(code)
            && !in_xtask
            && !path_allowed(path, SPAWN_ALLOW_FILES, SPAWN_ALLOW_PREFIXES)
        {
            findings.push(Finding {
                rule: "no-thread-spawn",
                file: path.to_string(),
                line,
                message: "threads are spawned only by bsp::pool (via bsp::sync) and the \
                          compat shims; use the WorkerPool"
                    .to_string(),
            });
        }
        if ACCOUNTING_FILES.contains(&path) && contains_word(code, "Instant") {
            findings.push(Finding {
                rule: "no-wall-clock-in-accounting",
                file: path.to_string(),
                line,
                message: "byte/message accounting must be deterministic: no `Instant` \
                          reads here (model time explicitly instead)"
                    .to_string(),
            });
        }
        if (code.contains("#[allow(") || code.contains("#![allow("))
            && !path.starts_with(ALLOW_JUSTIFY_EXEMPT_PREFIXES[0])
            && !has_justification(&lx, i)
        {
            findings.push(Finding {
                rule: "allow-needs-justification",
                file: path.to_string(),
                line,
                message: "`#[allow(...)]` without a comment explaining why the lint is \
                          wrong here"
                    .to_string(),
            });
        }
    }
    findings
}

/// Recursively collect `.rs` files under `dir` (skipping `target/`).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lint every Rust source in the workspace rooted at `root`.
pub fn lint_tree(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    collect_rs(&root.join("xtask"), &mut files);
    let mut findings = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let Ok(source) = std::fs::read_to_string(&file) else {
            continue;
        };
        findings.extend(lint_source(&rel, &source));
    }
    findings
}

/// CLI entry point (`cargo xtask <command>`).
pub fn cli_main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let root = Path::new(env!("CARGO_MANIFEST_DIR"))
                .parent()
                .expect("xtask lives one level under the workspace root")
                .to_path_buf();
            let findings = lint_tree(&root);
            if findings.is_empty() {
                println!("xtask lint: clean");
            } else {
                for f in &findings {
                    eprintln!("{f}");
                }
                eprintln!("xtask lint: {} violation(s)", findings.len());
                std::process::exit(1);
            }
        }
        _ => {
            eprintln!("usage: cargo xtask lint");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unsafe_without_cover_is_flagged_in_allowlisted_file() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert_eq!(rules("crates/bsp/src/pool.rs", src), vec!["unsafe-needs-safety-comment"]);
    }

    #[test]
    fn safety_comment_covers_the_unsafe_below_it() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller keeps p valid.\n    unsafe { *p }\n}\n";
        assert!(rules("crates/bsp/src/pool.rs", src).is_empty());
    }

    #[test]
    fn one_safety_comment_covers_a_contiguous_unsafe_run() {
        let src = "fn f(p: *mut u8) {\n    // SAFETY: disjoint indices.\n    let a = unsafe { &mut *p };\n    let b = unsafe { &mut *p.add(1) };\n    *a += *b;\n}\n";
        assert!(rules("crates/bsp/src/engine.rs", src).is_empty());
    }

    #[test]
    fn safety_doc_section_covers_an_unsafe_fn() {
        let src = "/// Reads a byte.\n///\n/// # Safety\n/// `p` must be valid.\n#[inline]\npub unsafe fn read(p: *const u8) -> u8 {\n    // SAFETY: forwarded to the caller.\n    unsafe { *p }\n}\n";
        assert!(rules("crates/bsp/src/engine.rs", src).is_empty());
    }

    #[test]
    fn unsafe_outside_the_allowlist_is_flagged_even_with_a_cover() {
        let src = "// SAFETY: totally fine, promise.\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert_eq!(rules("crates/query/src/lib.rs", src), vec!["unsafe-outside-allowlist"]);
        assert_eq!(rules("crates/dist/src/netstats.rs", src), vec!["unsafe-outside-allowlist"]);
        // The fault layer sits next to the engine but is not of it.
        assert_eq!(rules("crates/bsp/src/recovery.rs", src), vec!["unsafe-outside-allowlist"]);
    }

    #[test]
    fn the_counting_allocator_test_is_the_only_unsafe_outside_bsp_and_compat() {
        let src = "// SAFETY: forwards to the system allocator.\nunsafe impl GlobalAlloc for Counting {}\n";
        assert!(rules("crates/tag/tests/alloc_budget.rs", src).is_empty());
        let bare = "unsafe impl GlobalAlloc for Counting {}\n";
        assert_eq!(
            rules("crates/tag/tests/alloc_budget.rs", bare),
            vec!["unsafe-needs-safety-comment"]
        );
        for path in
            ["crates/tag/tests/maintenance.rs", "crates/tag/src/build.rs", "tests/runtime.rs"]
        {
            assert_eq!(rules(path, src), vec!["unsafe-outside-allowlist"], "{path}");
        }
    }

    #[test]
    fn unsafe_as_identifier_or_prose_is_not_flagged() {
        let src = "fn unsafe_row_bytes() -> usize { 0 }\n// this fn has no unsafe at all\nconst S: &str = \"unsafe\";\n";
        assert!(rules("crates/dist/src/netstats.rs", src).is_empty());
    }

    #[test]
    fn thread_spawn_outside_the_pool_is_flagged() {
        let src = "fn f() {\n    std::thread::spawn(|| {});\n}\n";
        assert_eq!(rules("crates/core/src/exec.rs", src), vec!["no-thread-spawn"]);
        let brace = "use std::thread::{Builder, JoinHandle};\n";
        assert_eq!(rules("crates/core/src/exec.rs", brace), vec!["no-thread-spawn"]);
    }

    #[test]
    fn the_pool_and_its_shim_may_spawn() {
        let src = "fn f() {\n    std::thread::Builder::new();\n}\n";
        assert!(rules("crates/bsp/src/pool.rs", src).is_empty());
        assert!(rules("crates/bsp/src/sync.rs", src).is_empty());
        assert!(rules("crates/compat/loom/src/thread.rs", src).is_empty());
    }

    #[test]
    fn no_file_of_the_server_may_spawn() {
        let src = "fn f() {\n    std::thread::Builder::new();\n}\n";
        for path in [
            "crates/server/src/admission.rs",
            "crates/server/src/cache.rs",
            "crates/server/src/lib.rs",
            "crates/server/tests/arbitration.rs",
        ] {
            assert_eq!(rules(path, src), vec!["no-thread-spawn"], "{path}");
        }
        // Only the model-check suites' scheduler-controlled loom threads.
        assert!(rules("crates/server/tests/loom_admission.rs", src).is_empty());
    }

    #[test]
    fn instant_in_accounting_code_is_flagged() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n    let _ = t;\n}\n";
        assert_eq!(rules("crates/bsp/src/stats.rs", src), vec!["no-wall-clock-in-accounting"]);
        assert_eq!(rules("crates/bsp/src/recovery.rs", src), vec!["no-wall-clock-in-accounting"]);
        assert_eq!(
            rules("crates/session/src/placement.rs", src),
            vec!["no-wall-clock-in-accounting"]
        );
        // The same code is fine in a bench crate.
        assert!(rules("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn allow_without_justification_is_flagged() {
        let src = "#[allow(dead_code)]\nfn f() {}\n";
        assert_eq!(rules("crates/query/src/lib.rs", src), vec!["allow-needs-justification"]);
    }

    #[test]
    fn justified_allow_passes() {
        let src = "// Kept for the v2 wire format readers.\n#[allow(dead_code)]\nfn f() {}\n";
        assert!(rules("crates/query/src/lib.rs", src).is_empty());
        // A doc comment above an intervening attribute also counts.
        let attr =
            "/// Old wrappers must keep working.\n#[test]\n#[allow(deprecated)]\nfn g() {}\n";
        assert!(rules("crates/query/src/lib.rs", attr).is_empty());
    }

    #[test]
    fn lexer_strips_strings_comments_and_lifetimes() {
        let lx = lex("let s = \"unsafe // not code\"; // trailing note\nfn f<'a>(x: &'a u8) {}\nlet r = r#\"thread::spawn\"#;\nlet c = 'x';\n");
        assert!(!contains_word(&lx.code[0], "unsafe"));
        assert!(lx.comments[0].contains("trailing note"));
        assert!(lx.code[1].contains("'a"), "lifetimes stay in code: {}", lx.code[1]);
        assert!(!lx.code[2].contains("thread::spawn"));
        assert!(!lx.code[3].contains('x'));
    }

    #[test]
    fn lexer_handles_nested_block_comments() {
        let lx = lex("/* outer /* inner unsafe */ still comment */ fn f() {}\n");
        assert!(!contains_word(&lx.code[0], "unsafe"));
        assert!(lx.code[0].contains("fn f()"));
    }

    /// The pass runs clean on its own workspace — the committed tree must
    /// never regress. (This is the same invocation `cargo xtask lint` makes.)
    #[test]
    fn workspace_tree_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let findings = lint_tree(root);
        assert!(findings.is_empty(), "workspace lint violations:\n{:#?}", findings);
    }
}
