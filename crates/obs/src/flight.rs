//! The incident flight recorder.
//!
//! Keeps a bounded ring of the most recent trace events **per track**
//! (so a chatty `collector` track cannot evict the last `watchdog` or
//! `host/*` context), fed each tick by tailing the tracer's event
//! buffer with a cursor. When an alert fires or a watchdog incident
//! opens, the rings are snapshotted into a [`FlightDump`] — the
//! surrounding context that ships with the incident.
//!
//! Dumps are held in memory (bounded by [`FlightConfig::max_dumps`])
//! and serialized by reporting bins into content-named
//! `flightrec/<hash>.jsonl` files: the name is the FNV-1a hash of the
//! dump's JSONL bytes, so identical incidents produce identical files
//! and re-runs never duplicate.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use frostlab_simkern::fnv1a;
use frostlab_simkern::time::SimTime;
use frostlab_trace::TraceEvent;

/// Flight-recorder sizing.
#[derive(Debug, Clone, Copy)]
pub struct FlightConfig {
    /// Events retained per track.
    pub per_track: usize,
    /// Snapshots retained per campaign (further triggers are counted
    /// but not stored).
    pub max_dumps: usize,
}

impl Default for FlightConfig {
    fn default() -> FlightConfig {
        FlightConfig {
            per_track: 64,
            max_dumps: 32,
        }
    }
}

/// One retained event, flattened for serialization.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FlightEvent {
    /// Original emission sequence number.
    pub seq: u64,
    /// Source track.
    pub track: String,
    /// Event name.
    pub name: String,
    /// Start (sim-seconds since the epoch).
    pub start_s: i64,
    /// End for spans, absent for instants.
    pub end_s: Option<i64>,
}

/// A snapshot of the rings at a trigger.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FlightDump {
    /// Why the snapshot was taken (`alert/<slo>` or
    /// `incident/<kind>/<subject>`).
    pub reason: String,
    /// Civil sim-time of the trigger.
    pub at: String,
    /// Sim-seconds since the epoch.
    pub at_s: i64,
    /// Retained events, in original emission (`seq`) order.
    pub events: Vec<FlightEvent>,
}

impl FlightDump {
    /// Serialize as JSON lines: one header, then one line per event.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = serde::Value::Object(vec![
            (
                "schema".to_string(),
                serde::Value::Str("frostlab-flightrec/v1".to_string()),
            ),
            ("reason".to_string(), serde::Value::Str(self.reason.clone())),
            ("at".to_string(), serde::Value::Str(self.at.clone())),
            ("at_s".to_string(), serde::Value::Int(self.at_s)),
            (
                "events".to_string(),
                serde::Value::UInt(self.events.len() as u64),
            ),
        ]);
        out.push_str(&serde_json::to_string(&header).expect("plain data"));
        out.push('\n');
        for e in &self.events {
            out.push_str(&serde_json::to_string(e).expect("plain data"));
            out.push('\n');
        }
        out
    }

    /// The dump's content-derived file name: `<fnv1a(jsonl)>.jsonl`.
    pub fn file_name(&self) -> String {
        format!("{:016x}.jsonl", fnv1a(self.to_jsonl().as_bytes()))
    }
}

/// The live recorder.
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: FlightConfig,
    cursor: usize,
    rings: BTreeMap<String, VecDeque<FlightEvent>>,
    dumps: Vec<FlightDump>,
    triggers: u64,
}

impl FlightRecorder {
    /// A recorder with empty rings.
    pub fn new(cfg: FlightConfig) -> FlightRecorder {
        FlightRecorder {
            cfg,
            cursor: 0,
            rings: BTreeMap::new(),
            dumps: Vec::new(),
            triggers: 0,
        }
    }

    /// Tail the tracer's event buffer: fold every event past the last
    /// cursor into its track's ring. Call once per tick with the full
    /// buffer (the recorder remembers where it left off).
    pub fn ingest(&mut self, events: &[TraceEvent]) {
        for e in &events[self.cursor.min(events.len())..] {
            let ring = self.rings.entry(e.track.clone()).or_default();
            if ring.len() == self.cfg.per_track {
                ring.pop_front();
            }
            ring.push_back(FlightEvent {
                seq: e.seq,
                track: e.track.clone(),
                name: e.name.clone(),
                start_s: e.start.as_secs(),
                end_s: e.end.map(|t| t.as_secs()),
            });
        }
        self.cursor = events.len();
    }

    /// Snapshot the rings. Beyond `max_dumps` the trigger is still
    /// counted so reports can say how much was elided.
    pub fn snapshot(&mut self, reason: &str, at: SimTime) {
        self.triggers += 1;
        if self.dumps.len() >= self.cfg.max_dumps {
            return;
        }
        let mut events: Vec<FlightEvent> = self
            .rings
            .values()
            .flat_map(|ring| ring.iter().cloned())
            .collect();
        events.sort_by_key(|e| e.seq);
        self.dumps.push(FlightDump {
            reason: reason.to_string(),
            at: at.to_string(),
            at_s: at.as_secs(),
            events,
        });
    }

    /// Freeze into the retained dumps.
    pub fn into_dumps(self) -> Vec<FlightDump> {
        self.dumps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frostlab_simkern::time::SimDuration;
    use frostlab_trace::{TraceConfig, Tracer};

    fn sample_events(n: i64) -> Vec<TraceEvent> {
        let mut t = Tracer::enabled(TraceConfig::default(), SimTime::ZERO);
        for i in 0..n {
            let track = if i % 3 == 0 { "watchdog" } else { "collector" };
            t.instant(track, "ev", SimTime::ZERO + SimDuration::secs(i), &[]);
        }
        t.finish().expect("enabled").events
    }

    #[test]
    fn rings_bound_per_track_keeping_the_newest() {
        let mut rec = FlightRecorder::new(FlightConfig {
            per_track: 4,
            max_dumps: 8,
        });
        let events = sample_events(30);
        rec.ingest(&events);
        rec.snapshot("alert/test", SimTime::ZERO + SimDuration::secs(30));
        let dumps = rec.into_dumps();
        assert_eq!(dumps.len(), 1);
        // 4 newest per track, merged back into seq order.
        assert_eq!(dumps[0].events.len(), 8);
        let seqs: Vec<u64> = dumps[0].events.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
        let watchdog_seqs: Vec<u64> = dumps[0]
            .events
            .iter()
            .filter(|e| e.track == "watchdog")
            .map(|e| e.seq)
            .collect();
        assert_eq!(watchdog_seqs, vec![18, 21, 24, 27]);
    }

    #[test]
    fn ingest_is_cursor_based_and_idempotent_per_call() {
        let mut rec = FlightRecorder::new(FlightConfig::default());
        let events = sample_events(10);
        rec.ingest(&events[..5]);
        rec.ingest(&events); // only the 5 new ones fold in
        rec.snapshot("incident/test", SimTime::ZERO);
        let dumps = rec.into_dumps();
        assert_eq!(dumps[0].events.len(), 10);
        assert_eq!(
            dumps[0].events.iter().filter(|e| e.seq < 5).count(),
            5,
            "no event duplicated"
        );
    }

    #[test]
    fn dump_cap_counts_elided_triggers() {
        let mut rec = FlightRecorder::new(FlightConfig {
            per_track: 4,
            max_dumps: 1,
        });
        rec.ingest(&sample_events(3));
        rec.snapshot("a", SimTime::ZERO);
        rec.snapshot("b", SimTime::ZERO);
        assert_eq!(rec.triggers, 2);
        assert_eq!(rec.into_dumps().len(), 1);
    }

    #[test]
    fn dump_file_names_are_content_derived() {
        let mut rec = FlightRecorder::new(FlightConfig::default());
        rec.ingest(&sample_events(6));
        rec.snapshot(
            "alert/corruption-rate",
            SimTime::ZERO + SimDuration::secs(6),
        );
        let dump = rec.into_dumps().remove(0);
        let name = dump.file_name();
        assert!(name.ends_with(".jsonl"));
        assert_eq!(name, dump.file_name(), "name is a pure content function");
        let jsonl = dump.to_jsonl();
        assert!(jsonl.starts_with("{\"schema\":\"frostlab-flightrec/v1\""));
        assert_eq!(jsonl.lines().count(), 7);
        // A different dump gets a different name.
        let mut other = dump.clone();
        other.reason = "alert/other".to_string();
        assert_ne!(other.file_name(), name);
    }
}
