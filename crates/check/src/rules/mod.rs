//! The lint rules: per-file token rules over the masked channels, and
//! cross-file protocol rules over the workspace model.

mod command;
mod cycle;
mod pool_order;
mod wire;

use crate::mask::MaskedFile;
use crate::model::{AnalyzedFile, WorkspaceModel};
use crate::{Config, Diagnostic, Rule};

/// Runs every applicable per-file rule on one file, appending to `out`.
pub fn check_file(file: &AnalyzedFile, config: &Config, out: &mut Vec<Diagnostic>) {
    let ctx = FileContext {
        file,
        in_src: file.rel_str.contains("/src/"),
        testish: file.testish(),
    };
    safety_comment_rule(&ctx, out);
    determinism_rules(&ctx, config, out);
    no_unwrap_rule(&ctx, config, out);
    missing_docs_rule(&ctx, config, out);
    hot_path_alloc_rule(&ctx, out);
}

/// Runs the cross-file protocol rules over the aggregated model.
pub fn check_workspace(
    files: &[AnalyzedFile],
    workspace: &WorkspaceModel,
    config: &Config,
    out: &mut Vec<Diagnostic>,
) {
    wire::wire_exhaustive_rule(files, workspace, out);
    cycle::channel_cycle_rule(files, workspace, out);
    command::command_path_rule(files, workspace, config, out);
    pool_order::pool_order_rule(files, workspace, out);
}

pub(crate) struct FileContext<'a> {
    pub file: &'a AnalyzedFile,
    pub in_src: bool,
    pub testish: bool,
}

impl FileContext<'_> {
    fn masked(&self) -> &MaskedFile {
        &self.file.masked
    }

    fn crate_name(&self) -> Option<&str> {
        self.file.crate_name()
    }
}

/// True when line `l` (or the line above) carries `check:allow(rule)`.
pub(crate) fn waived(file: &MaskedFile, line: usize, rule: Rule) -> bool {
    let marker = format!("check:allow({})", rule.name());
    let here = file.comment.get(line).is_some_and(|c| c.contains(&marker));
    let above = line > 0 && file.comment[line - 1].contains(&marker);
    here || above
}

/// Appends a diagnostic for `file` at 0-based `line`.
pub(crate) fn push(
    out: &mut Vec<Diagnostic>,
    file: &AnalyzedFile,
    line: usize,
    rule: Rule,
    message: impl Into<String>,
) {
    out.push(Diagnostic {
        path: file.rel.clone(),
        line: line + 1,
        rule,
        message: message.into(),
    });
}

/// Finds `needle` in `haystack` as a whole word (identifier boundaries).
fn contains_word(haystack: &str, needle: &str) -> bool {
    let bytes = haystack.as_bytes();
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let before_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Rule `safety-comment`: every `unsafe` token needs a written
/// justification — a `SAFETY:` comment on the same line or in the
/// comment block immediately above, or a `# Safety` doc section.
fn safety_comment_rule(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    let file = ctx.masked();
    for line in 0..file.len() {
        if !contains_word(&file.code[line], "unsafe") {
            continue;
        }
        // `unsafe_op_in_unsafe_fn`-style attribute mentions are fine.
        if file.code[line].contains("allow(") || file.code[line].contains("deny(") {
            continue;
        }
        if has_safety_justification(file, line) || waived(file, line, Rule::SafetyComment) {
            continue;
        }
        push(
            out,
            ctx.file,
            line,
            Rule::SafetyComment,
            "`unsafe` without a preceding `// SAFETY:` justification",
        );
    }
}

fn has_safety_justification(file: &MaskedFile, line: usize) -> bool {
    let is_safety =
        |l: usize| file.comment[l].contains("SAFETY:") || file.comment[l].contains("# Safety");
    if is_safety(line) {
        return true;
    }
    // Walk the contiguous comment/attribute block directly above.
    let mut l = line;
    while l > 0 {
        l -= 1;
        let code = file.code[l].trim();
        let has_comment = !file.comment[l].trim().is_empty();
        if code.is_empty() && has_comment {
            if is_safety(l) {
                return true;
            }
            continue;
        }
        // Attribute lines sit between docs and the item.
        if code.starts_with("#[") && code.ends_with(']') {
            continue;
        }
        break;
    }
    false
}

/// Rules `wall-clock` and `os-thread`: nothing under `crates/` may read
/// real time or touch the OS scheduler, except the explicit allowlist
/// (the live runtime and the host benchmarks). Test code and
/// `macro_rules!` bodies are skipped: tests run on the host clock by
/// design, and a macro template's expansion context (very often test
/// code) is invisible to a lexical pass.
fn determinism_rules(ctx: &FileContext<'_>, config: &Config, out: &mut Vec<Diagnostic>) {
    if !ctx.file.rel_str.starts_with("crates/") || ctx.testish {
        return;
    }
    if config
        .wall_clock_allowlist
        .iter()
        .any(|prefix| ctx.file.rel_str.starts_with(prefix.as_str()))
    {
        return;
    }
    let deterministic = ctx
        .crate_name()
        .is_some_and(|c| config.deterministic_crates.iter().any(|d| d == c));
    let zone = if deterministic {
        "deterministic crate"
    } else {
        "non-allowlisted crate"
    };
    let file = ctx.masked();
    for line in 0..file.len() {
        if file.in_test[line] || file.in_macro[line] {
            continue;
        }
        let code = &file.code[line];
        for pattern in ["Instant::now", "SystemTime"] {
            if contains_word(code, pattern) && !waived(file, line, Rule::WallClock) {
                push(
                    out,
                    ctx.file,
                    line,
                    Rule::WallClock,
                    format!("wall-clock `{pattern}` in {zone}; use the sim clock"),
                );
            }
        }
        for pattern in ["thread::spawn", "thread::sleep"] {
            if code.contains(pattern) && !waived(file, line, Rule::OsThread) {
                push(
                    out,
                    ctx.file,
                    line,
                    Rule::OsThread,
                    format!("OS scheduling `{pattern}` in {zone}; spawn sim tasks instead"),
                );
            }
        }
    }
}

/// Rule `no-unwrap`: hot-path crates must not panic via `unwrap`/`expect`
/// outside test code; exhaustion and closure are reported faults.
fn no_unwrap_rule(ctx: &FileContext<'_>, config: &Config, out: &mut Vec<Diagnostic>) {
    let hot = ctx
        .crate_name()
        .is_some_and(|c| config.hot_path_crates.iter().any(|h| h == c));
    if !hot || !ctx.in_src || ctx.testish {
        return;
    }
    let file = ctx.masked();
    for line in 0..file.len() {
        if file.in_test[line] || file.in_macro[line] {
            continue;
        }
        let code = &file.code[line];
        let hit = code.contains(".unwrap()") || code.contains(".expect(");
        if hit && !waived(file, line, Rule::NoUnwrap) {
            push(
                out,
                ctx.file,
                line,
                Rule::NoUnwrap,
                format!(
                    "`unwrap`/`expect` outside test code in hot-path crate `{}`",
                    ctx.crate_name().unwrap_or("?")
                ),
            );
        }
    }
}

/// Rule `missing-docs`: public items in the documented crates carry doc
/// comments — these are the workspace's stable API surface.
fn missing_docs_rule(ctx: &FileContext<'_>, config: &Config, out: &mut Vec<Diagnostic>) {
    let documented = ctx
        .crate_name()
        .is_some_and(|c| config.documented_crates.iter().any(|d| d == c));
    if !documented || !ctx.in_src || ctx.testish {
        return;
    }
    let file = ctx.masked();
    for line in 0..file.len() {
        if file.in_test[line] || file.in_macro[line] {
            continue;
        }
        let code = file.code[line].trim_start();
        let Some(rest) = code.strip_prefix("pub ") else {
            continue;
        };
        let keyword = rest.split_whitespace().next().unwrap_or("");
        let is_item = matches!(
            keyword,
            "fn" | "async"
                | "unsafe"
                | "const"
                | "static"
                | "struct"
                | "enum"
                | "union"
                | "trait"
                | "type"
                | "mod"
                | "macro"
        );
        // `pub const NAME` and `pub const fn` both require docs, but
        // `pub use` re-exports do not.
        if !is_item {
            continue;
        }
        // `pub mod name;` file modules document themselves with inner
        // `//!` docs, which a line scan of this file cannot see.
        if keyword == "mod" && code.trim_end().ends_with(';') {
            continue;
        }
        if is_documented(file, line) || waived(file, line, Rule::MissingDocs) {
            continue;
        }
        push(
            out,
            ctx.file,
            line,
            Rule::MissingDocs,
            format!("public `{keyword}` item without a doc comment"),
        );
    }
}

/// The comment marker by which a file opts into [`hot_path_alloc_rule`].
/// Kept as a string literal so the analyzer never trips over its own
/// source: the marker scan reads the comment channel only.
const HOT_PATH_MARKER: &str = "check:hot-path";

/// Rule `hot-path-alloc`: a file whose comments carry the hot-path
/// marker promises to allocate payload bytes from the slab arena only.
/// `Vec::new(` and `.to_vec()` outside test code break that promise —
/// each is a per-segment heap allocation (and usually a copy) on the
/// data path the two-copy invariant (§3.4) protects. Waivable where the
/// copy *is* the contract (the legacy owned decode, `copy_to_vec`).
fn hot_path_alloc_rule(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.testish {
        return;
    }
    let file = ctx.masked();
    let marked = (0..file.len()).any(|l| file.comment[l].contains(HOT_PATH_MARKER));
    if !marked {
        return;
    }
    for line in 0..file.len() {
        if file.in_test[line] || file.in_macro[line] {
            continue;
        }
        let code = &file.code[line];
        for pattern in ["Vec::new(", ".to_vec()"] {
            if code.contains(pattern) && !waived(file, line, Rule::HotPathAlloc) {
                push(
                    out,
                    ctx.file,
                    line,
                    Rule::HotPathAlloc,
                    format!("`{pattern}` allocates on a declared hot path; use the slab arena"),
                );
            }
        }
    }
}

fn is_documented(file: &MaskedFile, item_line: usize) -> bool {
    let mut l = item_line;
    while l > 0 {
        l -= 1;
        let raw = file.raw[l].trim_start();
        if raw.starts_with("///") || raw.starts_with("//!") || raw.starts_with("#[doc") {
            return true;
        }
        // Attributes (possibly stacked) and plain comments — e.g. a
        // `check:wire-enum` marker or a waiver — sit between the docs
        // and the item without breaking the attachment.
        if raw.starts_with("#[") || raw.starts_with("//") {
            continue;
        }
        // A multi-line attribute like `#[derive(\n  Debug,\n)]`: walk up
        // to its opening line and resume the scan above it.
        if raw.ends_with(']') && !raw.contains('[') {
            let mut a = l;
            while a > 0 && !file.raw[a].trim_start().starts_with("#[") {
                a -= 1;
            }
            if file.raw[a].trim_start().starts_with("#[") {
                l = a;
                continue;
            }
            return false;
        }
        // A doc block comment `/** ... */` ends just above the item.
        if raw.ends_with("*/") {
            return true;
        }
        return false;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn diags(rel: &str, source: &str) -> Vec<Diagnostic> {
        let file = AnalyzedFile::analyze(PathBuf::from(rel), source);
        let mut out = Vec::new();
        check_file(&file, &Config::default(), &mut out);
        out
    }

    #[test]
    fn unsafe_without_safety_fires() {
        let out = diags(
            "crates/video/src/x.rs",
            "fn f() {\n    let p = unsafe { q() };\n}\n",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::SafetyComment);
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn unsafe_with_safety_comment_passes() {
        let out = diags(
            "crates/video/src/x.rs",
            "fn f() {\n    // SAFETY: q has no invariants.\n    let p = unsafe { q() };\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unsafe_fn_with_doc_safety_section_passes() {
        let src = "/// Does things.\n///\n/// # Safety\n///\n/// Caller upholds X.\npub unsafe fn f() {}\n";
        let out = diags("crates/video/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unsafe_in_string_is_ignored() {
        let out = diags("crates/video/src/x.rs", "fn f() { g(\"unsafe\"); }\n");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn wall_clock_in_deterministic_crate_fires() {
        let out = diags(
            "crates/sim/src/executor.rs",
            "fn f() { let t = std::time::Instant::now(); }\n",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::WallClock);
    }

    #[test]
    fn wall_clock_allowlisted_in_bench_only() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let out = diags("crates/bench/src/bin/bench_json.rs", src);
        assert!(out.is_empty(), "{out:?}");
        // Every other crate, the box included, is held to the rule.
        let out = diags("crates/core/src/pandora_box.rs", src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::WallClock);
    }

    #[test]
    fn wall_clock_in_cfg_test_passes() {
        // Tests run on the host; the determinism contract is about the
        // shipped simulation, so in_test lines are exempt (mask FP fix).
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::Instant::now(); }\n}\n";
        let out = diags("crates/sim/src/executor.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn wall_clock_in_macro_body_passes() {
        // A macro template's expansion context is unknowable lexically;
        // the in_macro channel keeps templates out of the determinism
        // rules (mask FP fix).
        let src = "macro_rules! timed {\n    ($e:expr) => {{ let _t = Instant::now(); $e }};\n}\n";
        let out = diags("crates/sim/src/executor.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn os_thread_fires() {
        let out = diags(
            "crates/buffers/src/pool.rs",
            "fn f() { std::thread::spawn(|| {}); }\n",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::OsThread);
    }

    #[test]
    fn unwrap_outside_tests_fires_in_hot_path() {
        let out = diags("crates/sim/src/x.rs", "fn f() { g().unwrap(); }\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::NoUnwrap);
    }

    #[test]
    fn unwrap_inside_cfg_test_passes() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { g().unwrap(); }\n}\n";
        let out = diags("crates/sim/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unwrap_in_macro_body_passes() {
        let src = "macro_rules! must {\n    ($e:expr) => { $e.unwrap() };\n}\n";
        let out = diags("crates/sim/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unwrap_in_non_hot_crate_passes() {
        let out = diags("crates/metrics/src/x.rs", "fn f() { g().unwrap(); }\n");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn waiver_suppresses() {
        let src = "fn f() {\n    // check:allow(no-unwrap): startup path, cannot fail.\n    g().unwrap();\n}\n";
        let out = diags("crates/sim/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn missing_docs_fires_in_documented_crate() {
        let out = diags("crates/segment/src/x.rs", "pub fn undocumented() {}\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::MissingDocs);
    }

    #[test]
    fn missing_docs_applies_to_metrics_and_repository() {
        for krate in ["metrics", "repository"] {
            let rel = format!("crates/{krate}/src/x.rs");
            let out = diags(&rel, "pub fn undocumented() {}\n");
            assert_eq!(out.len(), 1, "{krate} must be documented");
            assert_eq!(out[0].rule, Rule::MissingDocs);
        }
    }

    #[test]
    fn documented_item_passes() {
        let out = diags(
            "crates/segment/src/x.rs",
            "/// Well documented.\npub fn fine() {}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn docs_above_attributes_count() {
        let out = diags(
            "crates/segment/src/x.rs",
            "/// Documented.\n#[derive(Debug)]\npub struct S;\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn docs_above_marker_comment_count() {
        // A rule marker between the doc comment and the item must not
        // break doc attachment (mask FP fix).
        let out = diags(
            "crates/segment/src/x.rs",
            "/// Documented.\n// check:wire-enum: wire tags.\n#[derive(Debug)]\npub enum E { A }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn docs_above_multiline_attribute_count() {
        let out = diags(
            "crates/segment/src/x.rs",
            "/// Documented.\n#[derive(\n    Debug, Clone,\n)]\npub struct S;\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn file_module_declaration_needs_no_docs() {
        let out = diags("crates/segment/src/lib.rs", "pub mod wire;\n");
        assert!(out.is_empty(), "{out:?}");
        let inline = diags("crates/segment/src/lib.rs", "pub mod wire {\n}\n");
        assert_eq!(inline.len(), 1, "inline modules still need docs");
    }

    #[test]
    fn pub_use_needs_no_docs() {
        let out = diags("crates/segment/src/lib.rs", "pub use crate::wire;\n");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn pub_crate_needs_no_docs() {
        let out = diags("crates/segment/src/x.rs", "pub(crate) fn internal() {}\n");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn missing_docs_ignored_outside_documented_crates() {
        let out = diags("crates/video/src/x.rs", "pub fn undocumented() {}\n");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hot_path_alloc_fires_in_marked_file() {
        let src = "// check:hot-path: the data path.\nfn f() { let v: Vec<u8> = Vec::new(); }\n";
        let out = diags("crates/core/src/x.rs", src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::HotPathAlloc);
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn hot_path_alloc_flags_to_vec() {
        let src = "// check:hot-path\nfn f(b: &[u8]) -> Vec<u8> { b.to_vec() }\n";
        let out = diags("crates/core/src/x.rs", src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::HotPathAlloc);
    }

    #[test]
    fn hot_path_alloc_silent_without_marker() {
        let src = "fn f() { let v: Vec<u8> = Vec::new(); g(v.to_vec()); }\n";
        let out = diags("crates/core/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hot_path_alloc_ignores_test_code_and_vecdeque() {
        let src = "// check:hot-path\nfn f(q: &mut std::collections::VecDeque<u8>) { q.clear(); }\n#[cfg(test)]\nmod tests {\n    fn t() { let v: Vec<u8> = Vec::new(); }\n}\n";
        let out = diags("crates/core/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hot_path_alloc_waiver_suppresses() {
        let src = "// check:hot-path\n// check:allow(hot-path-alloc): the copy is the contract here.\nfn f(b: &[u8]) -> Vec<u8> { b.to_vec() }\n";
        let out = diags("crates/core/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hot_path_marker_in_string_does_not_arm() {
        let src = "fn f() { g(\"check:hot-path\"); let v: Vec<u8> = Vec::new(); }\n";
        let out = diags("crates/core/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }
}
