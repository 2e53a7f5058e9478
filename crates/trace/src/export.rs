//! Exporters: JSONL event log, Chrome trace-event (Perfetto) JSON, and
//! Prometheus text metrics.
//!
//! All three are pure functions of a frozen trace/snapshot and are part
//! of the byte-identical determinism contract: same campaign, same bytes,
//! regardless of run count or ensemble thread count. Nothing here reads
//! the wall clock.

use serde::Value;

use crate::event::TraceEvent;
use crate::metrics::MetricsSnapshot;
use crate::tracer::CampaignTrace;

/// JSONL schema tag written in the header line.
const JSONL_SCHEMA: &str = "frostlab-trace/v1";

fn fields_object(event: &TraceEvent) -> Value {
    Value::Object(
        event
            .fields
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect(),
    )
}

/// Export the event stream as JSON Lines: one header object, then one
/// compact object per event in emission order.
///
/// Event keys, in fixed order: `seq`, `track`, `name`, `at` (civil
/// datetime of the start), `start_s`/`end_s`/`dur_s` (sim-seconds since
/// the epoch; `end_s`/`dur_s` only for spans), and `fields` (omitted when
/// empty).
pub fn to_jsonl(trace: &CampaignTrace) -> Result<String, serde_json::Error> {
    let mut out = String::new();
    let header = Value::Object(vec![
        ("schema".to_string(), Value::Str(JSONL_SCHEMA.to_string())),
        ("base_s".to_string(), Value::Int(trace.base.as_secs())),
        ("events".to_string(), Value::UInt(trace.events.len() as u64)),
        ("dropped".to_string(), Value::UInt(trace.dropped_events)),
    ]);
    out.push_str(&serde_json::to_string(&header)?);
    out.push('\n');
    for event in &trace.events {
        let mut obj = vec![
            ("seq".to_string(), Value::UInt(event.seq)),
            ("track".to_string(), Value::Str(event.track.clone())),
            ("name".to_string(), Value::Str(event.name.clone())),
            ("at".to_string(), Value::Str(event.start.to_string())),
            ("start_s".to_string(), Value::Int(event.start.as_secs())),
        ];
        if let Some(end) = event.end {
            obj.push(("end_s".to_string(), Value::Int(end.as_secs())));
            obj.push(("dur_s".to_string(), Value::Int(event.duration_secs())));
        }
        if !event.fields.is_empty() {
            obj.push(("fields".to_string(), fields_object(event)));
        }
        out.push_str(&serde_json::to_string(&Value::Object(obj))?);
        out.push('\n');
    }
    Ok(out)
}

/// Export as Chrome trace-event JSON, loadable in Perfetto or
/// `chrome://tracing`.
///
/// Every track becomes a named thread under pid 0 (tids assigned by
/// first-appearance order, announced with `thread_name` metadata
/// records). Spans are `ph:"X"` complete events and instants `ph:"i"`;
/// `ts`/`dur` are **microseconds of sim-time** relative to the campaign
/// start, so one on-screen millisecond is one simulated millisecond.
pub fn to_chrome_trace(trace: &CampaignTrace) -> Result<String, serde_json::Error> {
    let mut tids: Vec<&str> = Vec::new();
    let mut records: Vec<Value> = Vec::new();
    for event in &trace.events {
        let tid = match tids.iter().position(|t| *t == event.track) {
            Some(i) => i,
            None => {
                tids.push(&event.track);
                let i = tids.len() - 1;
                records.push(Value::Object(vec![
                    ("ph".to_string(), Value::Str("M".to_string())),
                    ("pid".to_string(), Value::UInt(0)),
                    ("tid".to_string(), Value::UInt(i as u64)),
                    ("name".to_string(), Value::Str("thread_name".to_string())),
                    (
                        "args".to_string(),
                        Value::Object(vec![("name".to_string(), Value::Str(event.track.clone()))]),
                    ),
                ]));
                i
            }
        };
        let ts_us = (event.start - trace.base).as_secs() * 1_000_000;
        let mut obj = vec![
            ("name".to_string(), Value::Str(event.name.clone())),
            ("cat".to_string(), Value::Str("sim".to_string())),
            (
                "ph".to_string(),
                Value::Str(if event.end.is_some() { "X" } else { "i" }.to_string()),
            ),
            ("pid".to_string(), Value::UInt(0)),
            ("tid".to_string(), Value::UInt(tid as u64)),
            ("ts".to_string(), Value::Int(ts_us)),
        ];
        if event.end.is_some() {
            obj.push((
                "dur".to_string(),
                Value::Int(event.duration_secs() * 1_000_000),
            ));
        } else {
            obj.push(("s".to_string(), Value::Str("t".to_string())));
        }
        obj.push(("args".to_string(), fields_object(event)));
        records.push(Value::Object(obj));
    }
    let doc = Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(records)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ]);
    serde_json::to_string(&doc)
}

fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 9);
    out.push_str("frostlab_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Sanitize a label key into a valid Prometheus label name (no prefix).
fn sanitize_label_key(key: &str) -> String {
    let mut out = String::with_capacity(key.len());
    for (i, c) in key.chars().enumerate() {
        if c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit()) {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value per the text exposition format: backslash,
/// double-quote and newline must be escaped inside the quotes.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape `# HELP` text: backslash and newline (quotes are legal there).
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a label set as `{k="v",…}` (empty string for flat metrics),
/// optionally with a trailing extra label (the histogram `le`).
fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_label_key(k), escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Emit the `# HELP` / `# TYPE` header once per family (samples arrive
/// sorted by name, so every series of a family is contiguous).
fn family_header(out: &mut String, last: &mut String, name: &str, raw: &str, kind: &str) {
    if last == name {
        return;
    }
    out.push_str(&format!(
        "# HELP {name} frostlab sim metric `{}`\n# TYPE {name} {kind}\n",
        escape_help(raw)
    ));
    *last = name.to_string();
}

fn fmt_float(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Export a metrics snapshot in the Prometheus text exposition format.
///
/// Names are prefixed `frostlab_` with non-alphanumerics mapped to `_`
/// (`collector.gaps_open` → `frostlab_collector_gaps_open`). Every
/// family gets one `# HELP` and one `# TYPE` line; labeled series render
/// `{key="value",…}` with backslash/quote/newline escaping. Histograms
/// emit cumulative `_bucket{le="…"}` lines (underflow counts toward every
/// bucket, `+Inf` equals the observation count), then `_sum` and
/// `_count`.
pub fn to_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last = String::new();
    for c in &snapshot.counters {
        let name = sanitize(&c.name);
        family_header(&mut out, &mut last, &name, &c.name, "counter");
        out.push_str(&format!(
            "{name}{} {}\n",
            render_labels(&c.labels, None),
            c.value
        ));
    }
    last.clear();
    for g in &snapshot.gauges {
        let name = sanitize(&g.name);
        family_header(&mut out, &mut last, &name, &g.name, "gauge");
        out.push_str(&format!(
            "{name}{} {}\n",
            render_labels(&g.labels, None),
            fmt_float(g.value)
        ));
    }
    last.clear();
    for h in &snapshot.histograms {
        let name = sanitize(&h.name);
        family_header(&mut out, &mut last, &name, &h.name, "histogram");
        let mut cum = h.underflow;
        for (i, bin) in h.counts.iter().enumerate() {
            cum += bin;
            let le = fmt_float(h.min + h.width * (i + 1) as f64);
            out.push_str(&format!(
                "{name}_bucket{} {cum}\n",
                render_labels(&h.labels, Some(("le", &le)))
            ));
        }
        cum += h.overflow;
        out.push_str(&format!(
            "{name}_bucket{} {cum}\n",
            render_labels(&h.labels, Some(("le", "+Inf")))
        ));
        out.push_str(&format!(
            "{name}_sum{} {}\n",
            render_labels(&h.labels, None),
            fmt_float(h.sum)
        ));
        out.push_str(&format!(
            "{name}_count{} {}\n",
            render_labels(&h.labels, None),
            h.count
        ));
    }
    out
}

/// Promtool-grade structural validation of a text exposition page, used
/// by the conformance unit tests (and available to bins that want to
/// self-check before writing a scrape file). Checks:
///
/// * every sample line's metric has a preceding `# TYPE` (and `# HELP`)
///   for its family;
/// * metric and label names match `[a-zA-Z_:][a-zA-Z0-9_:]*`;
/// * label values are properly quoted and escaped;
/// * histogram families end with a `+Inf` bucket whose count equals
///   `_count`.
///
/// Returns the list of violations (empty = valid).
pub fn validate_prometheus(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let mut helped: Vec<String> = Vec::new();
    let mut typed: Vec<(String, String)> = Vec::new();
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            match rest.split_once(' ') {
                Some((name, _)) if name_ok(name) => helped.push(name.to_string()),
                _ => errors.push(format!("line {n}: malformed HELP line")),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            match rest.split_once(' ') {
                Some((name, kind))
                    if name_ok(name)
                        && matches!(
                            kind,
                            "counter" | "gauge" | "histogram" | "summary" | "untyped"
                        ) =>
                {
                    typed.push((name.to_string(), kind.to_string()));
                }
                _ => errors.push(format!("line {n}: malformed TYPE line")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        // Sample line: name[{labels}] value
        let (series, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => {
                errors.push(format!("line {n}: no value"));
                continue;
            }
        };
        if !(value == "+Inf" || value == "-Inf" || value == "NaN" || value.parse::<f64>().is_ok()) {
            errors.push(format!("line {n}: unparsable value {value:?}"));
        }
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => match rest.strip_suffix('}') {
                Some(body) => (name, Some(body)),
                None => {
                    errors.push(format!("line {n}: unterminated label set"));
                    continue;
                }
            },
            None => (series, None),
        };
        if !name_ok(name) {
            errors.push(format!("line {n}: bad metric name {name:?}"));
            continue;
        }
        if let Some(body) = labels {
            for pair in split_label_pairs(body) {
                match pair.split_once('=') {
                    Some((k, v)) if name_ok(k) && well_quoted(v) => {}
                    _ => errors.push(format!("line {n}: bad label pair {pair:?}")),
                }
            }
        }
        // A family is the name with histogram/summary suffixes stripped.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| name.strip_suffix(s))
            .filter(|f| typed.iter().any(|(t, k)| t == *f && k == "histogram"))
            .unwrap_or(name);
        if !typed.iter().any(|(t, _)| t == family) {
            errors.push(format!(
                "line {n}: sample {name:?} has no TYPE for {family:?}"
            ));
        }
        if !helped.iter().any(|h| h == family) {
            errors.push(format!(
                "line {n}: sample {name:?} has no HELP for {family:?}"
            ));
        }
    }
    // Every histogram family must expose a +Inf bucket.
    for (name, kind) in &typed {
        if kind == "histogram" && !text.contains(&format!("{name}_bucket")) {
            errors.push(format!("histogram {name} has no buckets"));
        } else if kind == "histogram" && !text.contains("le=\"+Inf\"") {
            errors.push(format!("histogram {name} has no +Inf bucket"));
        }
    }
    errors
}

/// Split a label body on commas that sit *outside* quoted values.
fn split_label_pairs(body: &str) -> Vec<&str> {
    let mut pairs = Vec::new();
    let (mut start, mut in_quotes, mut escaped) = (0usize, false, false);
    for (i, c) in body.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                pairs.push(&body[start..i]);
                start = i + 1;
                escaped = false;
            }
            _ => escaped = false,
        }
    }
    if start < body.len() {
        pairs.push(&body[start..]);
    }
    pairs
}

/// Is this a `"…"` label value with every inner quote escaped?
fn well_quoted(v: &str) -> bool {
    let Some(body) = v.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
        return false;
    };
    let mut escaped = false;
    for c in body.chars() {
        match c {
            '\\' if !escaped => escaped = true,
            '"' if !escaped => return false, // bare quote inside
            _ => escaped = false,
        }
    }
    !escaped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FieldValue;
    use crate::metrics::MetricsRegistry;
    use crate::tracer::{TraceConfig, Tracer};
    use frostlab_simkern::time::{SimDuration, SimTime};

    fn sample_trace() -> CampaignTrace {
        let base = SimTime::ZERO;
        let mut t = Tracer::enabled(TraceConfig::default(), base);
        t.span(
            "phase/weather",
            "step",
            base,
            base + SimDuration::secs(60),
            &[("tick", FieldValue::U64(0))],
        );
        t.instant(
            "watchdog",
            "incident-open",
            base + SimDuration::secs(30),
            &[("kind", FieldValue::Str("switch".into()))],
        );
        t.span(
            "phase/weather",
            "step",
            base + SimDuration::secs(60),
            base + SimDuration::secs(120),
            &[],
        );
        t.finish().expect("enabled")
    }

    #[test]
    fn jsonl_has_header_and_one_line_per_event() {
        let jsonl = to_jsonl(&sample_trace()).expect("plain data");
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"schema\":\"frostlab-trace/v1\""));
        assert!(lines[0].contains("\"events\":3"));
        assert!(lines[1].contains("\"track\":\"phase/weather\""));
        assert!(lines[1].contains("\"at\":\"2010-01-01 00:00:00\""));
        assert!(lines[1].contains("\"dur_s\":60"));
        // Instant events carry no end/duration and keep their fields.
        assert!(lines[2].contains("\"name\":\"incident-open\""));
        assert!(!lines[2].contains("dur_s"));
        assert!(lines[2].contains("\"kind\":\"switch\""));
        // Spans without fields omit the fields object entirely.
        assert!(!lines[3].contains("fields"));
    }

    #[test]
    fn chrome_trace_names_tracks_and_scales_to_microseconds() {
        let json = to_chrome_trace(&sample_trace()).expect("plain data");
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        // Two tracks, first-appearance order: phase/weather = 0, watchdog = 1.
        assert!(json.contains("\"thread_name\",\"args\":{\"name\":\"phase/weather\"}"));
        assert!(json.contains("\"thread_name\",\"args\":{\"name\":\"watchdog\"}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":0,\"dur\":60000000"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":30000000,\"s\":\"t\""));
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample_trace();
        let b = sample_trace();
        assert_eq!(to_jsonl(&a).unwrap(), to_jsonl(&b).unwrap());
        assert_eq!(to_chrome_trace(&a).unwrap(), to_chrome_trace(&b).unwrap());
    }

    #[test]
    fn prometheus_text_renders_all_metric_kinds() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("collector.attempts_total", 7);
        reg.gauge_set("tent.temp_c", -12.5);
        reg.register_histogram("tent.temp_c_dist", -2.0, 1.0, 3);
        reg.observe("tent.temp_c_dist", -5.0); // underflow
        reg.observe("tent.temp_c_dist", -1.5); // bin 0
        reg.observe("tent.temp_c_dist", 0.5); // bin 2
        reg.observe("tent.temp_c_dist", 9.0); // overflow
        let text = to_prometheus(&reg.snapshot());
        assert!(text.contains(
            "# TYPE frostlab_collector_attempts_total counter\nfrostlab_collector_attempts_total 7\n"
        ));
        assert!(text.contains("# TYPE frostlab_tent_temp_c gauge\nfrostlab_tent_temp_c -12.5\n"));
        // Cumulative buckets: underflow=1, then +1 at le=-1, +0, +1, +Inf adds overflow.
        assert!(text.contains("frostlab_tent_temp_c_dist_bucket{le=\"-1.0\"} 2\n"));
        assert!(text.contains("frostlab_tent_temp_c_dist_bucket{le=\"0.0\"} 2\n"));
        assert!(text.contains("frostlab_tent_temp_c_dist_bucket{le=\"1.0\"} 3\n"));
        assert!(text.contains("frostlab_tent_temp_c_dist_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("frostlab_tent_temp_c_dist_sum 3.0\n"));
        assert!(text.contains("frostlab_tent_temp_c_dist_count 4\n"));
    }

    #[test]
    fn prometheus_emits_help_and_type_once_per_family() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add_labeled("host.resets_total", &[("zone", "z1")], 2);
        reg.counter_add_labeled("host.resets_total", &[("zone", "z2")], 5);
        reg.gauge_set("tent.temp_c", -4.0);
        let text = to_prometheus(&reg.snapshot());
        assert_eq!(
            text.matches("# HELP frostlab_host_resets_total ").count(),
            1
        );
        assert_eq!(
            text.matches("# TYPE frostlab_host_resets_total counter")
                .count(),
            1
        );
        assert!(text.contains("# HELP frostlab_tent_temp_c frostlab sim metric `tent.temp_c`\n"));
        assert!(text.contains("frostlab_host_resets_total{zone=\"z1\"} 2\n"));
        assert!(text.contains("frostlab_host_resets_total{zone=\"z2\"} 5\n"));
        assert!(
            validate_prometheus(&text).is_empty(),
            "{:?}",
            validate_prometheus(&text)
        );
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let mut reg = MetricsRegistry::new();
        reg.gauge_set_labeled(
            "weird",
            &[("path", "a\\b"), ("quote", "say \"hi\""), ("nl", "x\ny")],
            1.0,
        );
        let text = to_prometheus(&reg.snapshot());
        assert!(text.contains("path=\"a\\\\b\""));
        assert!(text.contains("quote=\"say \\\"hi\\\"\""));
        assert!(text.contains("nl=\"x\\ny\""));
        assert!(
            validate_prometheus(&text).is_empty(),
            "{:?}",
            validate_prometheus(&text)
        );
    }

    #[test]
    fn prometheus_labeled_histogram_keeps_labels_on_every_bucket() {
        let mut reg = MetricsRegistry::new();
        reg.register_histogram_labeled("tent.temp_c_dist", &[("zone", "z1")], 0.0, 1.0, 2);
        reg.observe_labeled("tent.temp_c_dist", &[("zone", "z1")], 0.5);
        let text = to_prometheus(&reg.snapshot());
        assert!(text.contains("frostlab_tent_temp_c_dist_bucket{zone=\"z1\",le=\"1.0\"} 1\n"));
        assert!(text.contains("frostlab_tent_temp_c_dist_bucket{zone=\"z1\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("frostlab_tent_temp_c_dist_sum{zone=\"z1\"} 0.5\n"));
        assert!(text.contains("frostlab_tent_temp_c_dist_count{zone=\"z1\"} 1\n"));
        assert!(
            validate_prometheus(&text).is_empty(),
            "{:?}",
            validate_prometheus(&text)
        );
    }

    #[test]
    fn prometheus_validator_catches_structural_violations() {
        // No TYPE/HELP for the sample's family.
        let errs = validate_prometheus("orphan_metric 1\n");
        assert_eq!(errs.len(), 2);
        // Unescaped quote inside a label value.
        let bad = "# HELP m h\n# TYPE m gauge\nm{k=\"a\"b\"} 1\n";
        assert!(!validate_prometheus(bad).is_empty());
        // Histogram family with no +Inf bucket.
        let bad = "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1.0\"} 1\nh_sum 0.5\nh_count 1\n";
        assert!(validate_prometheus(bad).iter().any(|e| e.contains("+Inf")));
        // A full real export passes.
        let text = to_prometheus(&sample_metrics_snapshot());
        assert!(
            validate_prometheus(&text).is_empty(),
            "{:?}",
            validate_prometheus(&text)
        );
    }

    fn sample_metrics_snapshot() -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("collector.attempts_total", 7);
        reg.counter_add_labeled("host.resets_total", &[("zone", "z1"), ("vendor", "A")], 1);
        reg.gauge_set("tent.temp_c", -12.5);
        reg.gauge_set_labeled("zone.temp_c", &[("zone", "z2")], -7.25);
        reg.register_histogram("tent.temp_c_dist", -2.0, 1.0, 3);
        reg.observe("tent.temp_c_dist", 0.5);
        reg.snapshot()
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let t = Tracer::enabled(TraceConfig::default(), SimTime::ZERO);
        let trace = t.finish().expect("enabled");
        let jsonl = to_jsonl(&trace).expect("plain data");
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"events\":0"));
        assert!(lines[0].contains("\"dropped\":0"));
        let chrome = to_chrome_trace(&trace).expect("plain data");
        assert!(chrome.contains("\"traceEvents\":[]"));
        assert_eq!(to_prometheus(&trace.metrics), "");
    }

    #[test]
    fn metrics_only_trace_has_empty_stream_but_full_scrape() {
        let mut t = Tracer::enabled(TraceConfig::metrics_only(), SimTime::ZERO);
        t.counter_add("collector.attempts_total", 3);
        t.gauge_set("tent.temp_c", -8.0);
        let trace = t.finish().expect("enabled");
        assert!(trace.events.is_empty());
        let jsonl = to_jsonl(&trace).expect("plain data");
        assert_eq!(jsonl.lines().count(), 1);
        let text = to_prometheus(&trace.metrics);
        assert!(text.contains("frostlab_collector_attempts_total 3\n"));
        assert!(text.contains("frostlab_tent_temp_c -8.0\n"));
        assert!(validate_prometheus(&text).is_empty());
    }

    #[test]
    fn span_open_at_campaign_end_exports_without_end_or_duration() {
        // A gap that never healed leaves its span open (`end: None`);
        // exporters must render it as an instant, not invent an end.
        let base = SimTime::ZERO;
        let trace = CampaignTrace {
            base,
            events: vec![TraceEvent {
                seq: 0,
                track: "host/3".to_string(),
                name: "collection-gap".to_string(),
                start: base + SimDuration::secs(120),
                end: None,
                fields: vec![("open".to_string(), FieldValue::Bool(true))],
            }],
            dropped_events: 0,
            metrics: MetricsRegistry::new().snapshot(),
        };
        let jsonl = to_jsonl(&trace).expect("plain data");
        let line = jsonl.lines().nth(1).expect("one event line");
        assert!(line.contains("\"start_s\":120"));
        assert!(!line.contains("end_s") && !line.contains("dur_s"));
        let chrome = to_chrome_trace(&trace).expect("plain data");
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(!chrome.contains("\"ph\":\"X\""));
    }

    #[test]
    fn perfetto_tids_assign_by_first_appearance_and_are_stable() {
        let make = || {
            let base = SimTime::ZERO;
            let mut t = Tracer::enabled(TraceConfig::default(), base);
            t.instant("watchdog", "a", base, &[]);
            t.span(
                "phase/weather",
                "step",
                base,
                base + SimDuration::secs(60),
                &[],
            );
            t.instant("watchdog", "b", base + SimDuration::secs(30), &[]);
            t.instant("host/0", "c", base + SimDuration::secs(40), &[]);
            t.finish().expect("enabled")
        };
        let a = to_chrome_trace(&make()).expect("plain data");
        let b = to_chrome_trace(&make()).expect("plain data");
        assert_eq!(a, b);
        // First appearance: watchdog=0, phase/weather=1, host/0=2 — and
        // the repeated watchdog event reuses tid 0 with no second
        // thread_name record.
        let tid_of = |track: &str| -> u64 {
            let needle = format!("\"args\":{{\"name\":\"{track}\"}}");
            let meta_end = a.find(&needle).expect("thread_name record");
            let head = &a[..meta_end];
            let tid_pos = head.rfind("\"tid\":").expect("tid key") + "\"tid\":".len();
            a[tid_pos..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .expect("tid digits")
        };
        assert_eq!(tid_of("watchdog"), 0);
        assert_eq!(tid_of("phase/weather"), 1);
        assert_eq!(tid_of("host/0"), 2);
        assert_eq!(a.matches("\"name\":\"thread_name\"").count(), 3);
    }
}
