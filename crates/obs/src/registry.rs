//! The unified metrics registry: one typed container and one text
//! renderer for the reports the workspace used to format by hand.
//!
//! `PlanSummary` and `ServerStats` each grew their own `Display` with
//! their own ratio math (and their own zero-denominator bugs). They now
//! both convert into a [`MetricsRegistry`] and render through
//! [`MetricsRegistry::render_text`]. Insertion order is preserved, so
//! rendered output is byte-stable.

/// One metric's typed value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    /// A guarded quotient: rendered as `num/den` with the ratio, or
    /// `n/a` when the denominator is zero — the zero-traffic case that
    /// the hand-written Display paths used to mishandle.
    Ratio {
        num: f64,
        den: f64,
    },
}

/// One named metric with optional `(key, value)` labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: MetricValue,
}

/// Insertion-ordered registry of typed metrics, grouped into named
/// sections (each rendered as a `[section]` header).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    /// `(section, metric)` in insertion order; empty section = ungrouped.
    rows: Vec<(String, Metric)>,
    section: String,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Start a section; subsequent metrics group under it.
    pub fn section(&mut self, name: impl Into<String>) -> &mut Self {
        self.section = name.into();
        self
    }

    fn push(&mut self, name: impl Into<String>, value: MetricValue) -> &mut Self {
        self.rows.push((
            self.section.clone(),
            Metric {
                name: name.into(),
                labels: Vec::new(),
                value,
            },
        ));
        self
    }

    pub fn counter(&mut self, name: impl Into<String>, v: u64) -> &mut Self {
        self.push(name, MetricValue::Counter(v))
    }

    pub fn gauge(&mut self, name: impl Into<String>, v: f64) -> &mut Self {
        self.push(name, MetricValue::Gauge(v))
    }

    /// A guarded ratio — safe for any denominator including zero.
    pub fn ratio(&mut self, name: impl Into<String>, num: f64, den: f64) -> &mut Self {
        self.push(name, MetricValue::Ratio { num, den })
    }

    /// Attach labels to the most recently added metric.
    pub fn label(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Self {
        if let Some((_, m)) = self.rows.last_mut() {
            m.labels.push((key.into(), value.into()));
        }
        self
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Look a metric up by name (first match in insertion order).
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.rows
            .iter()
            .find(|(_, m)| m.name == name)
            .map(|(_, m)| &m.value)
    }

    /// Human text: `[section]` headers, one `name = value` line per
    /// metric, ratios guarded (`n/a (0/0)` for zero traffic).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut current = None::<&str>;
        for (section, m) in &self.rows {
            if current != Some(section.as_str()) {
                if !section.is_empty() {
                    out.push_str(&format!("[{section}]\n"));
                }
                current = Some(section.as_str());
            }
            let labels = if m.labels.is_empty() {
                String::new()
            } else {
                let pairs: Vec<String> = m.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!("{{{}}}", pairs.join(","))
            };
            let value = match &m.value {
                MetricValue::Counter(v) => format!("{v}"),
                MetricValue::Gauge(v) => format!("{v:.4}"),
                MetricValue::Ratio { num, den } => render_ratio(*num, *den),
            };
            out.push_str(&format!("{}{labels} = {value}\n", m.name));
        }
        out
    }
}

/// The one place ratio text is produced: `num/den` quotient at two
/// decimals, or `n/a` when the denominator is zero.
fn render_ratio(num: f64, den: f64) -> String {
    if den == 0.0 {
        format!("n/a ({num:.0}/0)")
    } else {
        format!("{:.2} ({num:.0}/{den:.0})", num / den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_guards_zero_denominator_in_every_renderer() {
        let mut r = MetricsRegistry::new();
        r.section("serve");
        r.ratio("serve.coalescing", 0.0, 0.0);
        r.ratio("serve.cache_hit", 2.0, 4.0);
        let text = r.render_text();
        assert!(text.contains("serve.coalescing = n/a (0/0)"), "{text}");
        assert!(text.contains("serve.cache_hit = 0.50 (2/4)"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn text_rendering_groups_by_section_in_insertion_order() {
        let mut r = MetricsRegistry::new();
        r.section("a").counter("a.one", 1).counter("a.two", 2);
        r.section("b").gauge("b.g", 0.5);
        assert_eq!(
            r.render_text(),
            "[a]\na.one = 1\na.two = 2\n[b]\nb.g = 0.5000\n"
        );
    }

    #[test]
    fn labels_render_in_braces_after_the_name() {
        let mut r = MetricsRegistry::new();
        r.counter("phase.records", 7)
            .label("phase", "superstep-0")
            .label("worker", "1");
        assert_eq!(
            r.render_text(),
            "phase.records{phase=superstep-0,worker=1} = 7\n"
        );
    }

    #[test]
    fn get_finds_metrics_by_name() {
        let mut r = MetricsRegistry::new();
        r.counter("x", 3);
        assert_eq!(r.get("x"), Some(&MetricValue::Counter(3)));
        assert_eq!(r.get("y"), None);
    }
}
