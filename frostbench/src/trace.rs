//! Spans recorded around calls into each layer, from the benchmark's own
//! code: the program under test carries no tracing of its own.
//!
//! Spans stay in memory until the run ends, then go out as a Chrome
//! trace (`ph: "X"` complete events) that Perfetto and `chrome://tracing`
//! open directly.

use std::time::Instant;

use serde::Value;

use crate::report::{num, obj};

/// A finished span. Times are microseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Shared by every span of one campaign or request.
    pub group: u64,
    /// Load thread the span ran on (shown as a Perfetto track).
    pub track: u64,
    pub start_us: f64,
    pub end_us: f64,
}

/// An open span: close it with [`Spans::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    group: u64,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// In-memory span log of one load thread.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    track: u64,
    /// False in untraced runs: opening and closing still time the call,
    /// but nothing is kept.
    pub keep: bool,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant, track: u64, keep: bool) -> Spans {
        Spans {
            origin,
            track,
            keep,
            // Ids are unique across tracks: each track owns a 2^32 block.
            next_id: (track << 32) + 1,
            spans: Vec::new(),
        }
    }

    /// Open a span under `parent` (0 for a root) in `group` (0 to start
    /// a new group named after this span).
    pub fn open(&mut self, parent: u64, group: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            group: if group == 0 { id } else { group },
            start: Instant::now(),
        }
    }

    /// Close `open` as `name`; returns its duration in milliseconds.
    pub fn close(&mut self, open: Open, name: &str) -> f64 {
        let end = Instant::now();
        let ms = end.duration_since(open.start).as_secs_f64() * 1000.0;
        if self.keep {
            let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
            self.spans.push(Span {
                name: name.to_string(),
                id: open.id,
                parent: open.parent,
                group: open.group,
                track: self.track,
                start_us: us(open.start),
                end_us: us(end),
            });
        }
        ms
    }

    /// Record consecutive child spans of `parent`, starting where it
    /// started, from `(name, duration in µs)` parts measured elsewhere.
    pub fn sequence(&mut self, parent: &Open, parts: &[(&str, f64)]) {
        if !self.keep {
            return;
        }
        let mut at = parent.start.duration_since(self.origin).as_secs_f64() * 1e6;
        for (name, us) in parts {
            let id = self.next_id;
            self.next_id += 1;
            self.spans.push(Span {
                name: name.to_string(),
                id,
                parent: parent.id,
                group: parent.group,
                track: self.track,
                start_us: at,
                end_us: at + us,
            });
            at += us;
        }
    }

    /// Time `f` as a span; returns its value and duration in ms.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: u64,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.open(parent, group);
        let value = f();
        (value, self.close(open, name))
    }
}

/// Render spans as a Chrome trace JSON document.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            obj(vec![
                ("name", Value::Str(s.name.clone())),
                ("cat", Value::Str("frostbench".into())),
                ("ph", Value::Str("X".into())),
                ("ts", num(s.start_us)),
                ("dur", num(s.end_us - s.start_us)),
                ("pid", Value::UInt(1)),
                ("tid", Value::UInt(s.track)),
                (
                    "args",
                    obj(vec![
                        ("id", Value::UInt(s.id)),
                        ("parent", Value::UInt(s.parent)),
                        ("group", Value::UInt(s.group)),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ]);
    serde_json::to_string(&doc).expect("plain data serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_share_a_group_and_render_as_chrome_events() {
        let mut spans = Spans::new(Instant::now(), 1, true);
        let root = spans.open(0, 0);
        let ((), child_ms) = spans.time("child", root.id(), root.id(), || ());
        let root_ms = spans.close(root, "root");
        assert!(child_ms <= root_ms);
        assert_eq!(spans.spans.len(), 2);
        let (child, root) = (&spans.spans[0], &spans.spans[1]);
        assert_eq!(child.parent, root.id);
        assert_eq!(child.group, root.group);
        assert!(root.start_us <= child.start_us && child.end_us <= root.end_us);
        let doc: Value = serde_json::from_str(&chrome_trace(&spans.spans)).expect("json");
        let Some(Value::Array(events)) = doc.get("traceEvents") else {
            panic!("traceEvents is an array")
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph"), Some(&Value::Str("X".into())));
    }

    #[test]
    fn untraced_logs_time_but_keep_nothing() {
        let mut spans = Spans::new(Instant::now(), 2, false);
        let ((), ms) = spans.time("x", 0, 0, || ());
        assert!(ms >= 0.0);
        assert!(spans.spans.is_empty());
    }
}
