//! The traced run's span log: one span around each call the harness makes
//! into a layer's public function. Spans live in memory and are written as
//! JSON when the run ends; nothing is recorded inside the program.

use largeea_common::json::Json;
use std::time::Instant;

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
}

/// An in-memory span log for one workload.
#[derive(Debug)]
pub struct Spans {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_owned(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name` (a child of whichever span is
    /// open) and returns its result with the span's seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_s = self.origin.elapsed().as_secs_f64();
        self.spans[id].end_s = end_s;
        (out, end_s - self.spans[id].start_s)
    }

    /// `{"workload": …, "spans": [{"id", "name", "start_s", "end_s", "parent"}]}`.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::UInt(id as u64)),
                    ("name", Json::Str(s.name.to_owned())),
                    ("start_s", Json::Float(s.start_s)),
                    ("end_s", Json::Float(s.end_s)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_round_trip() {
        let mut spans = Spans::new("w");
        let ((), outer) = spans.time("outer", |s| {
            let (v, inner) = s.time("inner", |_| 7);
            assert_eq!(v, 7);
            assert!(inner >= 0.0);
        });
        assert!(outer >= 0.0);
        let json = spans.to_json();
        let parsed = largeea_common::json::parse(&json.dump()).unwrap();
        let list = parsed.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].get("parent"), Some(&Json::Null));
        assert_eq!(list[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(list[1].get("name").unwrap().as_str(), Some("inner"));
    }
}
