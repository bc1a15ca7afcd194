//! Results database: an append-only store of benchmark results.
//!
//! The paper envisions "a database for Results that is hosted by us online
//! and accepts results submissions from Graphalytics users" (§2.3). This is
//! the local embodiment: a JSONL file of run records that can be appended
//! to across benchmark sessions and queried for comparisons.

use std::fs::OpenOptions;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;

use crate::json::{parse, Json};
use crate::report::record_to_json;
use crate::runner::RunRecord;
use graphalytics_graph::GraphError;

/// An open results database backed by one JSONL file.
pub struct ResultsDb {
    path: PathBuf,
}

impl ResultsDb {
    /// Opens (creating parents if needed) the database at `path`.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, GraphError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        Ok(Self { path })
    }

    /// Appends ("submits") run records.
    pub fn submit(&self, records: &[RunRecord]) -> Result<(), GraphError> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let mut buf = String::new();
        for r in records {
            buf.push_str(&record_to_json(r).to_string_compact());
            buf.push('\n');
        }
        file.write_all(buf.as_bytes())?;
        Ok(())
    }

    /// Appends arbitrary JSON documents — one compact line each. Used for
    /// auxiliary records that ride along with run records, e.g. the
    /// per-run choke-point reports (`"type": "chokepoints"`); [`Self::load`]
    /// returns them alongside run records, and typed consumers filter on
    /// the `type`/`platform` keys they understand.
    pub fn submit_docs(&self, docs: &[Json]) -> Result<(), GraphError> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let mut buf = String::new();
        for doc in docs {
            buf.push_str(&doc.to_string_compact());
            buf.push('\n');
        }
        file.write_all(buf.as_bytes())?;
        Ok(())
    }

    /// Loads every stored record as JSON. Unparseable lines are skipped
    /// (the database is append-only across versions; tolerate old junk).
    pub fn load(&self) -> Result<Vec<Json>, GraphError> {
        if !self.path.exists() {
            return Ok(Vec::new());
        }
        let reader = BufReader::new(std::fs::File::open(&self.path)?);
        let mut out = Vec::new();
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            if let Some(doc) = parse(&line) {
                out.push(doc);
            }
        }
        Ok(out)
    }

    /// Queries records by optional platform/dataset/algorithm filters.
    pub fn query(
        &self,
        platform: Option<&str>,
        dataset: Option<&str>,
        algorithm: Option<&str>,
    ) -> Result<Vec<Json>, GraphError> {
        let matches = |doc: &Json, key: &str, want: Option<&str>| match want {
            None => true,
            Some(w) => doc.get(key).and_then(Json::as_str) == Some(w),
        };
        Ok(self
            .load()?
            .into_iter()
            .filter(|doc| {
                matches(doc, "platform", platform)
                    && matches(doc, "dataset", dataset)
                    && matches(doc, "algorithm", algorithm)
            })
            .collect())
    }

    /// Best (smallest) successful runtime for a cell, across all
    /// submissions — the leaderboard view.
    pub fn best_runtime(
        &self,
        platform: &str,
        dataset: &str,
        algorithm: &str,
    ) -> Result<Option<f64>, GraphError> {
        Ok(self
            .query(Some(platform), Some(dataset), Some(algorithm))?
            .iter()
            .filter_map(|doc| doc.get("runtime_seconds").and_then(Json::as_f64))
            .min_by(f64::total_cmp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunStatus;
    use crate::validator::Validation;

    /// A results path in a fresh scratch directory, removed on drop.
    fn tmpfile(name: &str) -> (crate::ScratchDir, PathBuf) {
        let dir = crate::ScratchDir::new(None, "gx-results").unwrap();
        let path = dir.path().join(format!("{name}.jsonl"));
        (dir, path)
    }

    fn record(platform: &str, runtime: f64) -> RunRecord {
        RunRecord {
            platform: platform.into(),
            dataset: "Patents".into(),
            algorithm: "BFS".into(),
            status: RunStatus::Success,
            runtime_seconds: Some(runtime),
            repetition_seconds: vec![runtime],
            teps: Some(1000.0),
            validation: Validation::Valid,
            output_summary: "ok".into(),
            peak_rss_bytes: 0,
            avg_cpu_utilization: 0.0,
            wall_seconds: 0.0,
            timeline: crate::trace::RunTimeline::default(),
            retries: 0,
        }
    }

    #[test]
    fn submit_and_query() {
        let (_dir, path) = tmpfile("sq");
        let db = ResultsDb::open(&path).unwrap();
        db.submit(&[record("Giraph", 10.0), record("GraphX", 20.0)])
            .unwrap();
        db.submit(&[record("Giraph", 8.0)]).unwrap();
        assert_eq!(db.load().unwrap().len(), 3);
        assert_eq!(db.query(Some("Giraph"), None, None).unwrap().len(), 2);
        assert_eq!(
            db.query(None, Some("Patents"), Some("BFS")).unwrap().len(),
            3
        );
        assert_eq!(db.query(Some("Neo4j"), None, None).unwrap().len(), 0);
    }

    #[test]
    fn best_runtime_is_minimum_across_submissions() {
        let (_dir, path) = tmpfile("best");
        let db = ResultsDb::open(&path).unwrap();
        db.submit(&[record("Giraph", 10.0), record("Giraph", 7.5)])
            .unwrap();
        assert_eq!(
            db.best_runtime("Giraph", "Patents", "BFS").unwrap(),
            Some(7.5)
        );
        assert_eq!(db.best_runtime("Neo4j", "Patents", "BFS").unwrap(), None);
    }

    #[test]
    fn auxiliary_docs_ride_along_with_run_records() {
        let (_dir, path) = tmpfile("docs");
        let db = ResultsDb::open(&path).unwrap();
        db.submit(&[record("Giraph", 10.0)]).unwrap();
        db.submit_docs(&[Json::obj([
            ("type", Json::from("chokepoints")),
            ("platform", Json::from("Giraph")),
        ])])
        .unwrap();
        let docs = db.load().unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(
            docs[1].get("type").and_then(Json::as_str),
            Some("chokepoints")
        );
        // Filters still see both lines for the platform.
        assert_eq!(db.query(Some("Giraph"), None, None).unwrap().len(), 2);
    }

    #[test]
    fn empty_database_loads_empty() {
        let (_dir, path) = tmpfile("empty");
        let db = ResultsDb::open(&path).unwrap();
        assert!(db.load().unwrap().is_empty());
    }

    #[test]
    fn corrupt_lines_are_skipped() {
        let (_dir, path) = tmpfile("corrupt");
        std::fs::write(&path, "not json\n{\"platform\":\"Giraph\"}\n").unwrap();
        let db = ResultsDb::open(&path).unwrap();
        let docs = db.load().unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].get("platform").unwrap().as_str(), Some("Giraph"));
    }
}
