//! Spans recorded from this benchmark's own files around public calls
//! into each layer, kept in memory and written out when the run ends.

use crate::json::Json;
use std::time::Instant;

/// One timed interval. `parent` indexes the span that caused it; spans of
/// one engine run (or one serve phase) share `run`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub run: u32,
}

/// Seconds are measured from the recorder's creation.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    pub fn push(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        run: u32,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start: self.at(start),
            end: self.at(end),
            parent,
            run,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::str(s.name.clone())),
                        ("start", Json::Num(s.start)),
                        ("end", Json::Num(s.end)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("run", Json::Num(f64::from(s.run))),
                    ])
                })
                .collect(),
        )
    }
}

/// Each span's self time: its duration minus the part of that interval its
/// child spans cover. Children of one span do not overlap each other here
/// (every boundary is a single-threaded barrier), so their clipped
/// durations add.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    for child in spans {
        if let Some(p) = child.parent {
            let parent = &spans[p];
            let covered = child.end.min(parent.end) - child.start.max(parent.start);
            out[p] -= covered.max(0.0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("run", 0.0, 10.0, None),
            span("compute.step0", 0.0, 3.0, Some(0)),
            span("exchange.step0", 3.0, 4.0, Some(0)),
            span("compute.step1", 4.0, 9.0, Some(0)),
            span("encode", 3.25, 3.5, Some(2)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![1.0, 3.0, 0.75, 5.0, 0.25]);
        // Self times of one tree add up to the root's duration.
        assert!((st.iter().sum::<f64>() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn a_child_outside_its_parent_is_clipped_not_negative() {
        let spans = [
            span("run", 2.0, 4.0, None),
            span("late", 3.5, 6.0, Some(0)),
            span("elsewhere", 7.0, 8.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![1.5, 2.5, 1.0]);
    }

    #[test]
    fn recorder_writes_every_field() {
        let mut r = Recorder::new();
        let t0 = Instant::now();
        let root = r.push("run", t0, t0, None, 3);
        r.push("child", t0, t0, Some(root), 3);
        let j = r.to_json();
        let Json::Arr(items) = &j else {
            unreachable!("spans render as an array")
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("parent"), Some(&Json::Null));
        assert_eq!(items[1].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(items[1].get("run"), Some(&Json::Num(3.0)));
        assert_eq!(items[1].get("name").and_then(Json::as_str), Some("child"));
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
    }
}
