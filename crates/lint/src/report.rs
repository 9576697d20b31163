//! Violation type and its one deterministic rendering.
//!
//! Output ordering is fully specified — violations sort by
//! `(file, line, rule)` and the per-rule totals are a `BTreeMap` — so
//! repeated runs over an unchanged tree produce byte-identical bytes on
//! stdout, a property the CI gate relies on (and the fixture suite pins).

/// One rule match at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule id (see [`crate::rules::RULES`]).
    pub rule: String,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Trimmed source line (or diagnostic detail for meta-rules).
    pub excerpt: String,
}

/// Canonical order for every report: by file, then line, then rule.
pub fn sort(violations: &mut [Violation]) {
    violations.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
}

/// Human-readable listing: one `path:line: [rule] excerpt` per violation,
/// then per-rule totals.
pub fn render_human(violations: &[Violation]) -> String {
    let mut s = String::new();
    for v in violations {
        s.push_str(&format!(
            "{}:{}: [{}] {}\n",
            v.file, v.line, v.rule, v.excerpt
        ));
    }
    let mut per_rule: std::collections::BTreeMap<&str, usize> = Default::default();
    for v in violations {
        *per_rule.entry(&v.rule).or_insert(0) += 1;
    }
    if violations.is_empty() {
        s.push_str("itlint: no violations\n");
    } else {
        s.push_str(&format!("\nitlint: {} violation(s)", violations.len()));
        let detail: Vec<String> = per_rule
            .iter()
            .map(|(rule, n)| format!("{rule}: {n}"))
            .collect();
        s.push_str(&format!(" ({})\n", detail.join(", ")));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rule: &str, file: &str, line: u32, excerpt: &str) -> Violation {
        Violation {
            rule: rule.into(),
            file: file.into(),
            line,
            excerpt: excerpt.into(),
        }
    }

    #[test]
    fn sort_is_by_file_line_rule() {
        let mut vs = vec![
            v("b-rule", "b.rs", 1, ""),
            v("a-rule", "a.rs", 9, ""),
            v("b-rule", "a.rs", 2, ""),
            v("a-rule", "a.rs", 2, ""),
        ];
        sort(&mut vs);
        let order: Vec<(String, u32, String)> =
            vs.into_iter().map(|v| (v.file, v.line, v.rule)).collect();
        assert_eq!(
            order,
            vec![
                ("a.rs".into(), 2, "a-rule".into()),
                ("a.rs".into(), 2, "b-rule".into()),
                ("a.rs".into(), 9, "a-rule".into()),
                ("b.rs".into(), 1, "b-rule".into()),
            ]
        );
    }
}
