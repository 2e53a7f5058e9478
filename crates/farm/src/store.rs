//! Content-addressed result store.
//!
//! Results are keyed by [`frostlab_core::JobSpec::key`] — the FNV-1a
//! hash of the job's canonical JSON — so two submissions of the same
//! (scenario, seed) pair share one entry, and a resumed farm serves
//! completed jobs from disk instead of re-simulating them.
//!
//! Writes are crash-atomic: the payload lands in a temp file named by
//! the writing job first and is `rename(2)`d into place, so a reader (or
//! a replay after a kill) sees either the whole result or nothing. The
//! supervisor writes the store entry **before** appending the WAL
//! `complete` record; a crash between the two leaves an orphaned store
//! entry, which the next run turns into a cache hit rather than a
//! re-simulation.

use std::fs;
use std::path::{Path, PathBuf};

use frostlab_core::results::CampaignSummary;
use frostlab_ensemble::SeedAlerts;

use crate::error::FarmError;

/// A directory of `<key>.json` campaign summaries, with optional
/// `<key>.alerts.json` sidecars holding each observed job's alert
/// timeline and SLO attainment. A worker writes the sidecar **before**
/// the summary, so (with the summary-before-WAL rule) a visible summary
/// for an observed job always has its alerts alongside it.
#[derive(Debug, Clone)]
pub struct ResultStore {
    root: PathBuf,
}

impl ResultStore {
    /// Open (creating if needed) the store rooted at `root`.
    pub fn open(root: &Path) -> Result<ResultStore, FarmError> {
        fs::create_dir_all(root)?;
        Ok(ResultStore {
            root: root.to_path_buf(),
        })
    }

    /// Path of the entry for `key`.
    pub fn path(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.json"))
    }

    /// Fetch the summary stored under `key`, if an intact one exists.
    /// A half-written or unparsable entry reads as absent — the job just
    /// gets re-run, which is always safe.
    pub fn get(&self, key: &str) -> Option<CampaignSummary> {
        let text = fs::read_to_string(self.path(key)).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// True if an intact entry exists for `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Store `summary` under `key` atomically. `job` (the job's manifest
    /// index) names the temp file, so concurrent workers never collide.
    pub fn put(&self, key: &str, job: u64, summary: &CampaignSummary) -> Result<(), FarmError> {
        write_atomic(&self.path(key), job, serde_json::to_string(summary)?)
    }

    /// Path of the alerts sidecar for `key`.
    fn alerts_path(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.alerts.json"))
    }

    /// Fetch the alerts sidecar stored under `key`, if an intact one
    /// exists. Same read-as-absent contract as [`ResultStore::get`].
    pub fn get_alerts(&self, key: &str) -> Option<SeedAlerts> {
        let text = fs::read_to_string(self.alerts_path(key)).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Store an observed job's alert view under `key` atomically. Called
    /// **before** [`ResultStore::put`] so the summary's presence implies
    /// the sidecar's.
    pub fn put_alerts(&self, key: &str, job: u64, alerts: &SeedAlerts) -> Result<(), FarmError> {
        write_atomic(&self.alerts_path(key), job, serde_json::to_string(alerts)?)
    }

    /// Number of intact summary entries in the store (alerts sidecars
    /// are companions of their summary, not entries of their own).
    pub fn len(&self) -> Result<usize, FarmError> {
        let mut n = 0;
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".json")
                && !name.ends_with(".alerts.json")
                && !name.starts_with(".tmp-")
            {
                n += 1;
            }
        }
        Ok(n)
    }

    /// True if the store holds no entries.
    pub fn is_empty(&self) -> Result<bool, FarmError> {
        Ok(self.len()? == 0)
    }
}

/// Write `bytes` to `path` atomically: into a `.tmp-<tag>-` file beside
/// it, then `rename(2)` over it, so a reader (or a replay after a kill)
/// sees the old file or the whole new one, never a torn one. `tag` keeps
/// concurrent writers to one directory apart.
pub(crate) fn write_atomic(
    path: &Path,
    tag: u64,
    bytes: impl AsRef<[u8]>,
) -> Result<(), FarmError> {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = path.with_file_name(format!(".tmp-{tag}-{name}"));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use frostlab_core::ScenarioSpec;

    fn tmp_store(tag: &str) -> (PathBuf, ResultStore) {
        let dir = std::env::temp_dir().join(format!("frostlab-store-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let store = ResultStore::open(&dir).expect("open");
        (dir, store)
    }

    fn tiny_summary() -> CampaignSummary {
        let spec = ScenarioSpec::new("t", 1, "helsinki");
        spec.build(7).expect("build").run().summary()
    }

    #[test]
    fn put_then_get_round_trips() {
        let (dir, store) = tmp_store("roundtrip");
        let summary = tiny_summary();
        store.put("00ff", 0, &summary).expect("put");
        let back = store.get("00ff").expect("present");
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&summary).unwrap()
        );
        assert!(store.contains("00ff"));
        assert_eq!(store.len().unwrap(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_garbage_entries_read_as_absent() {
        let (dir, store) = tmp_store("garbage");
        assert!(store.get("beef").is_none());
        fs::write(store.path("beef"), b"{half a rec").expect("write junk");
        assert!(store.get("beef").is_none());
        assert!(!store.contains("beef"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn temp_files_do_not_count_as_entries() {
        let (dir, store) = tmp_store("tmpcount");
        fs::write(dir.join(".tmp-3-dead"), b"partial").expect("write tmp");
        assert!(store.is_empty().unwrap());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn alerts_sidecars_round_trip_and_do_not_count_as_entries() {
        let (dir, store) = tmp_store("alerts");
        let alerts = SeedAlerts {
            seed: 7,
            alerts: Vec::new(),
            slos: Vec::new(),
        };
        store.put_alerts("00ff", 0, &alerts).expect("put alerts");
        assert_eq!(store.get_alerts("00ff").expect("present").seed, 7);
        assert!(store.get_alerts("beef").is_none());
        // The sidecar alone is not a summary entry.
        assert!(store.is_empty().unwrap());
        assert!(!store.contains("00ff"));
        store.put("00ff", 0, &tiny_summary()).expect("put");
        assert_eq!(store.len().unwrap(), 1);
        fs::remove_dir_all(&dir).ok();
    }
}
