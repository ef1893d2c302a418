//! Engine 2: the workspace invariant linter.
//!
//! Token-sequence rules over the [`crate::lexer`] stream of every
//! `crates/*/src/**.rs` file (plus the root crate's `src/`), the same
//! stream [`crate::callgraph::parse_file`] consumes. Comments are gone
//! and string contents are opaque literal tokens, so a needle inside
//! either can never match:
//!
//! * **SC101** — no `.unwrap()` / `.expect(` / `panic!` / `todo!` /
//!   `unimplemented!` in non-test library code (`src/bin/` and
//!   `#[cfg(test)]` items are exempt);
//! * **SC102** — no `SystemTime::now` / `Instant::now` outside the
//!   `obs` crate (all clocks flow through instrumentation);
//! * **SC103** — no string-literal metric or span names outside `obs`:
//!   every minted name must come from the `obs::names` registry;
//! * **SC104** — the `obs::names` registry itself is self-consistent
//!   (every constant listed in `ALL`, no duplicate values, names follow
//!   the `dotted.lowercase` convention);
//! * **SC105** — no `std::thread::spawn` / `thread::scope` /
//!   `thread::Builder` outside the `par` executor and the looking-glass
//!   TCP transport: all data-parallel threading goes through the pool,
//!   whose ordered joins keep artifacts deterministic;
//! * **SC106** — no trace-context plumbing (`trace::capture` /
//!   `trace::attach_task` / `trace::adopt_wire`) outside `obs`, the
//!   `par` executor and the LG transport: task bodies get their trace
//!   parent from the pool, and hand-rolled attachment would fork the
//!   deterministic ID scheme the trace-equivalence oracle relies on.
//!
//! SC103/SC104 cover the trace names too: `obs::span!` mints both the
//! histogram and the trace span from the same `obs::names` constant,
//! and the registry check extends to dynamic families like
//! `par.task_ns/<site>` because those join existing registered names.
//!
//! A rule reports at most once per source line, however often its
//! needle occurs there (two `.unwrap()` calls on one line are one
//! SC101). SC104 parses the registry's own text: it is the one file
//! where literal names are allowed.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{lex, Tok, TokKind};

/// `(code, needle, name)`: a rule fires where the tokens of `needle`
/// occur in sequence, and its message names `name`. Listed in report
/// order: findings on one line come out in this order.
const RULES: [(&str, &str, &str); 18] = [
    ("SC101", ".unwrap()", "unwrap"),
    ("SC101", ".expect(", "expect"),
    ("SC101", "panic!(", "panic!"),
    ("SC101", "todo!(", "todo!"),
    ("SC101", "unimplemented!(", "unimplemented!"),
    ("SC102", "SystemTime::now", "SystemTime::now"),
    ("SC102", "Instant::now", "Instant::now"),
    // SC103 also needs a plain string literal right after the needle
    ("SC103", ".counter(", "counter"),
    ("SC103", ".gauge(", "gauge"),
    ("SC103", ".histogram(", "histogram"),
    ("SC103", ".span(", "span"),
    ("SC103", "span!(", "span!"),
    ("SC105", "thread::spawn(", "thread::spawn("),
    ("SC105", "thread::scope(", "thread::scope("),
    ("SC105", "thread::Builder", "thread::Builder"),
    ("SC106", "trace::capture(", "trace::capture("),
    ("SC106", "trace::attach_task(", "trace::attach_task("),
    ("SC106", "trace::adopt_wire(", "trace::adopt_wire("),
];

/// Does `needle` occur in `toks` at `i`?
fn matches_at(toks: &[Tok], i: usize, needle: &[Tok]) -> bool {
    toks.len() >= i + needle.len()
        && needle
            .iter()
            .zip(&toks[i..])
            .all(|(n, t)| n.kind == t.kind && n.text == t.text)
}

/// Index just past the item starting at `i`, right after a
/// `#[cfg(test)]`: through the `}` closing its first brace, or its `;`
/// when none opens first.
fn skip_test_item(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(i) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth <= 0 {
                return j + 1;
            }
        } else if depth == 0 && t.is_punct(';') {
            return j + 1;
        }
    }
    toks.len()
}

/// Lint one file's token stream ([`crate::lexer::lex`]).
pub(crate) fn lint_file(rel: &str, toks: &[Tok], out: &mut Vec<Diagnostic>) {
    let in_obs = rel.starts_with("crates/obs/");
    let in_bin = rel.contains("/src/bin/");
    // The only sanctioned thread-creation sites: the deterministic pool
    // itself, and the LG TCP transport's per-connection workers (request
    // serving is I/O concurrency, not data parallelism).
    let may_spawn =
        rel.starts_with("crates/par/") || rel == "crates/looking-glass/src/transport.rs";
    // the rules this file is subject to, lexed, and the first bytes
    // their needles start with: most tokens are rejected by one lookup
    let rules: Vec<(usize, Vec<Tok>)> = RULES
        .iter()
        .enumerate()
        .filter(|(_, (code, _, _))| match *code {
            "SC101" => !in_bin,
            "SC102" | "SC103" => !in_obs,
            "SC105" => !may_spawn,
            _ => !may_spawn && !in_obs,
        })
        .map(|(k, (_, needle, _))| (k, lex(needle)))
        .collect();
    let mut starts = [false; 256];
    for (_, needle) in &rules {
        if let Some(b) = needle.first().and_then(|t| t.text.bytes().next()) {
            starts[b as usize] = true;
        }
    }
    let cfg_test = lex("#[cfg(test)]");

    // (line, rule): one finding per rule and line
    let mut hits: BTreeSet<(u32, usize)> = BTreeSet::new();
    let mut i = 0;
    while let Some(t) = toks.get(i) {
        if t.is_punct('#') && matches_at(toks, i, &cfg_test) {
            i = skip_test_item(toks, i + cfg_test.len());
            continue;
        }
        if !t.text.bytes().next().is_some_and(|b| starts[b as usize]) {
            i += 1;
            continue;
        }
        for (k, needle) in &rules {
            if !matches_at(toks, i, needle) {
                continue;
            }
            // SC103: a literal right after the call means a name was
            // minted in place instead of taken from `obs::names`
            let literal_arg = || {
                toks.get(i + needle.len())
                    .is_some_and(|t| t.kind == TokKind::Str && t.text.starts_with('"'))
            };
            if RULES[*k].0 != "SC103" || literal_arg() {
                hits.insert((t.line, *k));
            }
        }
        i += 1;
    }
    for (line, k) in hits {
        let (code, _, name) = RULES[k];
        let message = match code {
            "SC101" => format!(
                "`{name}` in library code: propagate the error or add an \
                 allowlist entry with a reason"
            ),
            "SC102" => {
                format!("`{name}` outside the obs crate: time must flow through instrumentation")
            }
            "SC103" => format!(
                "string-literal metric name passed to `{name}`: use a \
                 constant from obs::names"
            ),
            "SC105" => format!(
                "`{name}` outside crates/par: route data parallelism \
                 through par::map_indexed so joins stay ordered"
            ),
            _ => format!(
                "`{name}` outside the trace plumbing: open spans with \
                 obs::span! and let par/looking-glass carry the context"
            ),
        };
        out.push(Diagnostic::new(
            code,
            Severity::Error,
            format!("{rel}:{line}"),
            message,
        ));
    }
}

/// SC104: the `obs::names` registry is self-consistent. Parses the raw
/// source of `crates/obs/src/names.rs` — the registry is the one place
/// literals are allowed, so it gets its own structural check.
pub(crate) fn check_names_registry(root: &Path, out: &mut Vec<Diagnostic>) {
    let path = root.join("crates/obs/src/names.rs");
    let rel = "crates/obs/src/names.rs";
    let Ok(text) = std::fs::read_to_string(&path) else {
        out.push(Diagnostic::new(
            "SC104",
            Severity::Error,
            rel,
            "obs::names registry source not found",
        ));
        return;
    };
    // `pub const NAME: &str = "value";`
    let mut consts: Vec<(usize, String, String)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let t = line.trim();
        let Some(rest) = t.strip_prefix("pub const ") else {
            continue;
        };
        let Some((ident, tail)) = rest.split_once(':') else {
            continue;
        };
        let tail = tail.trim_start();
        let Some(value_part) = tail.strip_prefix("&str = \"") else {
            continue; // ALL / DYNAMIC_PREFIXES have other types
        };
        let Some(value) = value_part.split('"').next() else {
            continue;
        };
        consts.push((i + 1, ident.trim().to_string(), value.to_string()));
    }
    if consts.is_empty() {
        out.push(Diagnostic::new(
            "SC104",
            Severity::Error,
            rel,
            "no `pub const NAME: &str` entries found in obs::names",
        ));
        return;
    }
    // the ALL block: identifiers between `pub const ALL` and `];`
    let all_block: String = text
        .lines()
        .skip_while(|l| !l.contains("pub const ALL"))
        .take_while(|l| !l.trim_end().ends_with("];"))
        .collect::<Vec<_>>()
        .join("\n");
    for (lineno, ident, value) in &consts {
        if !all_block.contains(ident.as_str()) {
            out.push(Diagnostic::new(
                "SC104",
                Severity::Error,
                format!("{rel}:{lineno}"),
                format!("metric name constant `{ident}` is not listed in obs::names::ALL"),
            ));
        }
        let well_formed = !value.is_empty()
            && value
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
            && !value.starts_with('.')
            && !value.ends_with('.');
        if !well_formed {
            out.push(Diagnostic::new(
                "SC104",
                Severity::Error,
                format!("{rel}:{lineno}"),
                format!("metric name {value:?} violates the dotted.lowercase convention"),
            ));
        }
    }
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for (lineno, ident, value) in &consts {
        if let Some(first) = seen.insert(value.as_str(), *lineno) {
            out.push(Diagnostic::new(
                "SC104",
                Severity::Error,
                format!("{rel}:{lineno}"),
                format!(
                    "metric name {value:?} (`{ident}`) duplicates the constant \
                     on line {first}"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_text(rel: &str, text: &str) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        lint_file(rel, &lex(text), &mut out);
        out
    }

    #[test]
    fn needles_in_comments_and_strings_are_not_flagged() {
        let src = "let x = \"a.unwrap()\"; // .unwrap()\n/* panic!() */ let y = 1;\n";
        assert!(lint_text("crates/x/src/lib.rs", src).is_empty());
        // ...while the same needle in code on the next line still is
        let diags = lint_text("crates/x/src/lib.rs", &format!("{src}y.unwrap();\n"));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].location, "crates/x/src/lib.rs:3");
    }

    #[test]
    fn needles_after_char_literals_and_lifetimes_are_not_flagged() {
        // a `'"'` char literal must not open a string that swallows the
        // next line, and a lifetime must not open a char literal
        let src = "fn f<'a>(c: char) -> bool { c == '\"' }\nlet s = \"x.unwrap()\";\n";
        assert!(lint_text("crates/x/src/lib.rs", src).is_empty());
        let diags = lint_text("crates/x/src/lib.rs", &format!("{src}s.unwrap();\n"));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].location, "crates/x/src/lib.rs:3");
    }

    #[test]
    fn needles_in_raw_strings_are_not_flagged() {
        let src = "let s = r#\"no .unwrap() \"here\" Instant::now\"#;\nlet t = 2;\n";
        assert!(lint_text("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn two_unwraps_on_one_line_are_one_finding() {
        let src = "fn f() { a.unwrap(); b.unwrap(); }\n";
        let diags = lint_text("crates/x/src/lib.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].location, "crates/x/src/lib.rs:1");
        // a different needle on the same line is its own finding, in
        // needle order
        let src = "fn f() { c.expect(\"c\"); a.unwrap(); b.unwrap(); }\n";
        let diags = lint_text("crates/x/src/lib.rs", src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0].message.starts_with("`unwrap`"));
        assert!(diags[1].message.starts_with("`expect`"));
    }

    #[test]
    fn unwrap_in_library_code_is_flagged() {
        let diags = lint_text("crates/x/src/lib.rs", "fn f() { y.unwrap(); }\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SC101");
        assert_eq!(diags[0].location, "crates/x/src/lib.rs:1");
    }

    #[test]
    fn unwrap_in_cfg_test_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n fn g() { y.unwrap(); }\n}\n";
        assert!(lint_text("crates/x/src/lib.rs", src).is_empty());
        // ...but code after the test module is linted again
        let src2 = format!("{src}fn h() {{ z.expect(\"boom\"); }}\n");
        let diags = lint_text("crates/x/src/lib.rs", &src2);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("expect"));
    }

    #[test]
    fn bins_are_exempt_from_sc101_only() {
        let src = "fn main() { y.unwrap(); let t = std::time::Instant::now(); }\n";
        let diags = lint_text("crates/x/src/bin/tool.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SC102");
    }

    #[test]
    fn should_panic_attr_is_not_flagged() {
        let src = "#[should_panic(expected = \"x\")]\nfn f() {}\n";
        assert!(lint_text("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn clock_reads_flagged_outside_obs_only() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let diags = lint_text("crates/route-server/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SC102");
        assert!(lint_text("crates/obs/src/clock.rs", src).is_empty());
    }

    #[test]
    fn literal_metric_names_flagged_outside_obs() {
        let src = "let c = registry.counter(\"rs.x\");\nlet s = obs::span!(\"sim.y\");\n";
        let diags = lint_text("crates/x/src/lib.rs", src);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code == "SC103"));
        // constants are fine
        let ok = "let c = registry.counter(obs::names::RS_X);\n";
        assert!(lint_text("crates/x/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn thread_spawn_flagged_outside_par() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        let diags = lint_text("crates/analysis/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SC105");
        // sanctioned sites: the pool and the LG TCP transport
        assert!(lint_text("crates/par/src/lib.rs", src).is_empty());
        assert!(lint_text("crates/looking-glass/src/transport.rs", src).is_empty());
        // ...but the rest of looking-glass is not exempt
        assert_eq!(
            lint_text("crates/looking-glass/src/server.rs", src).len(),
            1
        );
        // scoped threads and builders count too
        let scoped = "fn f() { std::thread::scope(|s| {}); }\n";
        assert_eq!(lint_text("crates/x/src/lib.rs", scoped)[0].code, "SC105");
        // test code is exempt like the other lints
        let test_src = "#[cfg(test)]\nmod tests {\n fn g() { std::thread::spawn(|| {}); }\n}\n";
        assert!(lint_text("crates/x/src/lib.rs", test_src).is_empty());
    }

    #[test]
    fn trace_context_flagged_outside_plumbing() {
        let src = "fn f() { let p = obs::trace::capture(); }\n";
        let diags = lint_text("crates/analysis/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SC106");
        // sanctioned sites: obs itself, the pool, the LG transport
        assert!(lint_text("crates/obs/src/trace.rs", src).is_empty());
        assert!(lint_text("crates/par/src/lib.rs", src).is_empty());
        assert!(lint_text("crates/looking-glass/src/transport.rs", src).is_empty());
        // attach/adopt count too
        let attach = "fn f() { let _g = obs::trace::attach_task(None, 0); }\n";
        assert_eq!(lint_text("crates/x/src/lib.rs", attach)[0].code, "SC106");
        let adopt = "fn f() { let _g = obs::trace::adopt_wire(ctx); }\n";
        assert_eq!(lint_text("crates/x/src/lib.rs", adopt)[0].code, "SC106");
        // test modules are exempt like the other lints
        let test_src = "#[cfg(test)]\nmod tests {\n fn g() { let p = obs::trace::capture(); }\n}\n";
        assert!(lint_text("crates/x/src/lib.rs", test_src).is_empty());
    }

    #[test]
    fn registry_check_passes_on_this_workspace() {
        // walk up from the staticheck manifest to the workspace root
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        let mut out = Vec::new();
        check_names_registry(root, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
