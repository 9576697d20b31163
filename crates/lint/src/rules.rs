//! The rule engine: tokenizes the sanitized source (see [`crate::lexer`]) and
//! matches each rule's token patterns, honoring `#[cfg(test)]`/`mod tests`
//! masking and `itlint::allow` suppressions.
//!
//! Every rule has a stable id (the string used in allow directives and
//! `lint/baseline.toml`); see [`RULES`] and the crate-level docs for the
//! catalogue.

use crate::config;
use crate::lexer;
use crate::report::Violation;

/// One registered rule.
pub struct RuleDef {
    pub id: &'static str,
    pub summary: &'static str,
}

/// The rule catalogue. Ids are stable: they appear in allow directives, in
/// `lint/baseline.toml`, and in `--json` output, and must never be renamed
/// without migrating both.
pub const RULES: &[RuleDef] = &[
    RuleDef {
        id: "wallclock",
        summary: "Instant::now / SystemTime / .elapsed() outside crates/bench — wall-clock \
                  reads make runs non-replayable; timing belongs to the bench harness",
    },
    RuleDef {
        id: "panic-in-lib",
        summary: ".unwrap() / .expect() / panic! / unreachable! / todo! in non-test library \
                  code — library paths surface typed Error values, never abort the process",
    },
    RuleDef {
        id: "unordered-iter",
        summary: "iteration over a HashMap/HashSet (FxHashMap/FxHashSet) in pregel/serve/\
                  cluster/common — hash iteration order can leak into results",
    },
    RuleDef {
        id: "raw-spawn",
        summary: "std::thread::{spawn,scope,Builder} or process::Command outside \
                  inferturbo_common::par / inferturbo_cluster::transport::spawn — ad-hoc \
                  threads and subprocesses bypass the global Parallelism budget and the \
                  determinism contract",
    },
    RuleDef {
        id: "env-read",
        summary: "std::env::var outside the two sanctioned deployment-setting modules — \
                  environment reads are hidden inputs; runs take arguments instead",
    },
    RuleDef {
        id: "malformed-allow",
        summary: "an itlint::allow comment that does not parse — a typo here would silently \
                  re-enable the violation it meant to document",
    },
];

/// Look up a rule id; `None` for unknown ids (used to validate allows).
pub fn rule_exists(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// A token of the sanitized source: an identifier/number word, `::`, or a
/// single punctuation byte. Whitespace is dropped; `line` is 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tok<'a> {
    text: &'a str,
    line: u32,
}

fn tokenize(sanitized: &str) -> Vec<Tok<'_>> {
    let b = sanitized.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
        } else if c.is_ascii_whitespace() {
            i += 1;
        } else if c.is_ascii_alphanumeric() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            toks.push(Tok {
                text: &sanitized[start..i],
                line,
            });
        } else if c == b':' && i + 1 < b.len() && b[i + 1] == b':' {
            toks.push(Tok {
                text: &sanitized[i..i + 2],
                line,
            });
            i += 2;
        } else if c.is_ascii() {
            toks.push(Tok {
                text: &sanitized[i..i + 1],
                line,
            });
            i += 1;
        } else {
            // Multi-byte UTF-8 (only ever in identifiers we don't match).
            let mut j = i + 1;
            while j < b.len() && (b[j] & 0xC0) == 0x80 {
                j += 1;
            }
            i = j;
        }
    }
    toks
}

const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];
const MAP_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];
const ENV_READS: &[&str] = &["var", "var_os", "vars", "vars_os"];
const THREAD_PRIMS: &[&str] = &["spawn", "scope", "Builder"];

/// Collect identifiers that are (heuristically) bound to a hash map/set in
/// this file: `name: FxHashMap<…>` type ascriptions (fields, params, lets)
/// and `let name = FxHashMap::default()`-style initializers. Purely lexical —
/// no type inference — so it is scoped per file and backed by the allow
/// mechanism for the rare false positive.
fn collect_map_idents<'a>(toks: &[Tok<'a>]) -> Vec<&'a str> {
    let mut out: Vec<&str> = Vec::new();
    let mut record = |name: &'a str| {
        if !out.contains(&name) {
            out.push(name);
        }
    };
    let is_ident = |t: &Tok| -> bool {
        t.text
            .as_bytes()
            .first()
            .is_some_and(|c| c.is_ascii_alphabetic() || *c == b'_')
    };
    for i in 0..toks.len() {
        // `name : …MapType…` — scan the ascribed type to a same-depth
        // delimiter looking for a map type name.
        if toks[i].text == ":" && i > 0 && is_ident(&toks[i - 1]) {
            let mut depth = 0i32;
            for t in toks.iter().skip(i + 1).take(24) {
                match t.text {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    "," | ";" | "=" | ")" | "{" | "}" if depth <= 0 => break,
                    x if MAP_TYPES.contains(&x) => {
                        record(toks[i - 1].text);
                        break;
                    }
                    _ => {}
                }
            }
        }
        // `let [mut] name … = … MapType …;`
        if toks[i].text == "let" {
            let mut j = i + 1;
            if j < toks.len() && toks[j].text == "mut" {
                j += 1;
            }
            if j < toks.len() && is_ident(&toks[j]) {
                let name = toks[j].text;
                for t in toks.iter().skip(j + 1).take(32) {
                    if t.text == ";" {
                        break;
                    }
                    if MAP_TYPES.contains(&t.text) {
                        record(name);
                        break;
                    }
                }
            }
        }
    }
    out
}

/// Raw (pre-mask, pre-allow) matches for every path-applicable rule.
fn match_rules(rel_path: &str, toks: &[Tok<'_>]) -> Vec<(&'static str, u32)> {
    let mut hits: Vec<(&'static str, u32)> = Vec::new();
    let map_idents = if config::rule_applies("unordered-iter", rel_path) {
        collect_map_idents(toks)
    } else {
        Vec::new()
    };
    let t = |i: usize| -> &str { toks.get(i).map_or("", |t| t.text) };

    for i in 0..toks.len() {
        let line = toks[i].line;
        // panic-in-lib: `.unwrap(` / `.expect(` and the abort macros.
        if config::rule_applies("panic-in-lib", rel_path) {
            if t(i) == "." && PANIC_METHODS.contains(&t(i + 1)) && t(i + 2) == "(" {
                hits.push(("panic-in-lib", toks[i + 1].line));
            }
            if PANIC_MACROS.contains(&t(i)) && t(i + 1) == "!" {
                hits.push(("panic-in-lib", line));
            }
        }
        // wallclock: Instant::now, SystemTime, .elapsed(.
        if config::rule_applies("wallclock", rel_path) {
            if t(i) == "Instant" && t(i + 1) == "::" && t(i + 2) == "now" {
                hits.push(("wallclock", line));
            }
            if t(i) == "SystemTime" {
                hits.push(("wallclock", line));
            }
            if t(i) == "." && t(i + 1) == "elapsed" && t(i + 2) == "(" {
                hits.push(("wallclock", toks[i + 1].line));
            }
        }
        // raw-spawn: thread::spawn / thread::scope / thread::Builder, plus
        // process spawning — `Command::new` and the `process::Command`
        // path form (which also catches `use std::process::Command`, a
        // deliberate tripwire: importing the type outside the sanctioned
        // module is already a design smell worth an explicit allow).
        if config::rule_applies("raw-spawn", rel_path)
            && ((t(i) == "thread" && t(i + 1) == "::" && THREAD_PRIMS.contains(&t(i + 2)))
                || (t(i) == "Command" && t(i + 1) == "::" && t(i + 2) == "new")
                || (t(i) == "process" && t(i + 1) == "::" && t(i + 2) == "Command"))
        {
            hits.push(("raw-spawn", line));
        }
        // env-read: env::var / var_os / vars.
        if config::rule_applies("env-read", rel_path)
            && t(i) == "env"
            && t(i + 1) == "::"
            && ENV_READS.contains(&t(i + 2))
        {
            hits.push(("env-read", line));
        }
        // unordered-iter: `<map>.keys()` … and `for … in [&]map {`.
        if !map_idents.is_empty() {
            if t(i) == "."
                && ITER_METHODS.contains(&t(i + 1))
                && t(i + 2) == "("
                && i > 0
                && map_idents.contains(&t(i - 1))
            {
                hits.push(("unordered-iter", toks[i + 1].line));
            }
            if t(i) == "for" {
                // Find the `in` of this `for` (skip the pattern, which may
                // contain parens/commas), then look at the iterated expr.
                let mut depth = 0i32;
                let mut j = i + 1;
                let limit = (i + 16).min(toks.len());
                while j < limit {
                    match t(j) {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "in" if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if j < limit && t(j) == "in" {
                    let mut k = j + 1;
                    while t(k) == "&" || t(k) == "mut" {
                        k += 1;
                    }
                    if t(k) == "self" && t(k + 1) == "." {
                        k += 2;
                    }
                    // Flag `for x in map {` — a trailing `.method()` is
                    // handled (or exonerated) by the method patterns above.
                    if map_idents.contains(&t(k)) && t(k + 1) == "{" {
                        hits.push(("unordered-iter", line));
                    }
                }
            }
        }
    }
    hits
}

/// Scan one file: returns this file's violations, already masked, allowed,
/// deduplicated and ordered by (line, rule).
pub fn scan_file(rel_path: &str, src: &str) -> Vec<Violation> {
    let lexed = lexer::lex(src);
    let mask = lexer::test_mask(&lexed.sanitized);
    let toks = tokenize(&lexed.sanitized);
    let lines: Vec<&str> = src.split('\n').collect();
    let excerpt = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| l.trim().chars().take(100).collect())
            .unwrap_or_default()
    };

    let mut hits = match_rules(rel_path, &toks);

    // Drop matches inside test scopes.
    hits.retain(|&(_, line)| !mask.get(line as usize).copied().unwrap_or(false));

    // Apply allow directives: a trailing directive suppresses matching-rule
    // hits on its own line; a standalone comment line suppresses the line
    // below it. Unknown rule ids in a directive are themselves malformed.
    let mut malformed = lexed.malformed_allows;
    for a in &lexed.allows {
        if !rule_exists(&a.rule) {
            malformed.push(lexer::MalformedAllow {
                line: a.line,
                detail: format!("unknown rule id `{}` in itlint::allow", a.rule),
            });
        }
    }
    hits.retain(|&(rule, line)| {
        !lexed
            .allows
            .iter()
            .any(|a| a.rule == rule && (a.line == line || (a.standalone && a.line + 1 == line)))
    });

    let mut out: Vec<Violation> = hits
        .into_iter()
        .map(|(rule, line)| Violation {
            rule: rule.to_string(),
            file: rel_path.to_string(),
            line,
            excerpt: excerpt(line),
        })
        .collect();
    for m in malformed {
        out.push(Violation {
            rule: "malformed-allow".to_string(),
            file: rel_path.to_string(),
            line: m.line,
            excerpt: m.detail,
        });
    }
    out.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    out.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<(String, u32)> {
        scan_file(path, src)
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    #[test]
    fn panic_patterns_match_and_unwrap_or_does_not() {
        let src = "fn f() {\n    x.unwrap();\n    y.unwrap_or(0);\n    z.expect_err(\"e\");\n    panic!(\"boom\");\n}\n";
        let got = rules_of("crates/core/src/x.rs", src);
        assert_eq!(
            got,
            vec![
                ("panic-in-lib".to_string(), 2),
                ("panic-in-lib".to_string(), 5)
            ]
        );
    }

    #[test]
    fn wallclock_is_scoped_out_of_bench() {
        let src = "fn f() {\n    let t = Instant::now();\n    t.elapsed();\n}\n";
        assert_eq!(rules_of("crates/bench/src/x.rs", src), vec![]);
        let got = rules_of("crates/pregel/src/x.rs", src);
        assert_eq!(
            got,
            vec![("wallclock".to_string(), 2), ("wallclock".to_string(), 3)]
        );
    }

    #[test]
    fn unordered_iter_flags_map_idents_only() {
        let src = "struct S { q: FxHashMap<u64, u32>, v: Vec<u32> }\n\
                   fn f(s: &mut S) {\n\
                       for k in s.q.keys() { use_it(k); }\n\
                       s.v.iter().for_each(drop);\n\
                       let mut local = FxHashMap::default();\n\
                       local.drain();\n\
                   }\n";
        let got = rules_of("crates/serve/src/x.rs", src);
        assert_eq!(
            got,
            vec![
                ("unordered-iter".to_string(), 3),
                ("unordered-iter".to_string(), 6)
            ]
        );
        // Same file outside the scoped crates: rule does not apply.
        assert_eq!(rules_of("crates/tensor/src/x.rs", src), vec![]);
    }

    #[test]
    fn for_loop_over_map_is_flagged() {
        let src = "fn f(m: FxHashSet<u64>) {\n    for x in &m {\n        touch(x);\n    }\n}\n";
        assert_eq!(
            rules_of("crates/common/src/x.rs", src),
            vec![("unordered-iter".to_string(), 2)]
        );
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        let src = "fn f() {\n\
                   // itlint::allow(panic-in-lib): provably infallible here\n\
                   x.unwrap();\n\
                   y.unwrap(); // itlint::allow(panic-in-lib): also fine\n\
                   z.unwrap();\n\
                   }\n";
        assert_eq!(
            rules_of("crates/core/src/x.rs", src),
            vec![("panic-in-lib".to_string(), 5)]
        );
    }

    #[test]
    fn allow_with_unknown_rule_is_malformed() {
        let src = "// itlint::allow(no-such-rule): whatever\nfn f() {}\n";
        assert_eq!(
            rules_of("crates/core/src/x.rs", src),
            vec![("malformed-allow".to_string(), 1)]
        );
    }

    #[test]
    fn cfg_test_scope_is_skipped() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); panic!(\"t\"); }\n}\n";
        assert_eq!(rules_of("crates/core/src/x.rs", src), vec![]);
    }

    #[test]
    fn strings_and_comments_do_not_false_positive() {
        let src = "fn f() {\n\
                   let s = \"call x.unwrap() or panic!()\";\n\
                   let r = r#\"Instant::now() env::var(\"X\")\"#;\n\
                   // thread::spawn in prose\n\
                   /* SystemTime::now() */\n\
                   }\n";
        assert_eq!(rules_of("crates/pregel/src/x.rs", src), vec![]);
    }

    #[test]
    fn spawn_and_env_sanctioned_files_are_exempt() {
        let src = "fn f() { std::thread::spawn(|| {}); std::env::var(\"X\").ok(); }\n";
        let got = rules_of("crates/serve/src/x.rs", src);
        assert_eq!(got.len(), 2, "{got:?}");
        assert_eq!(rules_of("crates/common/src/par.rs", src).len(), 0);
    }

    #[test]
    fn process_spawns_are_raw_spawn_outside_the_transport_module() {
        let src = "use std::process::Command;\n\
                   fn f() {\n\
                       let c = Command::new(\"true\");\n\
                       drop(c);\n\
                   }\n";
        assert_eq!(
            rules_of("crates/serve/src/x.rs", src),
            vec![("raw-spawn".to_string(), 1), ("raw-spawn".to_string(), 3)]
        );
        // The sanctioned worker-spawn module is exempt.
        assert_eq!(
            rules_of("crates/cluster/src/transport/spawn.rs", src),
            vec![]
        );
    }

    #[test]
    fn transport_env_module_is_exempt_but_neighbours_are_not() {
        // The transport's one env-reading module is the worker-binary
        // path override next to the spawn code.
        let src = "fn f() { std::env::var(\"INFERTURBO_WORKER_BIN\").ok(); }\n";
        assert_eq!(
            rules_of("crates/cluster/src/transport/spawn.rs", src),
            vec![]
        );
        for neighbour in [
            "crates/cluster/src/transport/env.rs",
            "crates/cluster/src/transport/frame.rs",
        ] {
            assert_eq!(
                rules_of(neighbour, src),
                vec![("env-read".to_string(), 1)],
                "{neighbour}"
            );
        }
    }
}
