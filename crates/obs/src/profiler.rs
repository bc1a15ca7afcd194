//! The span fold: a flamegraph profile built from finished spans.
//!
//! The tracer already records every span exactly — parent, thread and
//! start/end — so the profile is a fold of that record, not a sample of
//! it. Each span contributes its *self time* to the stack of names from
//! its outermost ancestor down to itself, giving the flamegraph
//! community's folded-stack format: `frame;frame;frame → weight`.
//!
//! Self time is a span's duration minus its direct children's that ran in
//! the same *lane* — the same thread of the same process (`proc` field,
//! set on spans merged from distributed workers). A child in another lane
//! ran concurrently with its parent, so it is prefixed by the parent's
//! stack but not subtracted from it. No thread runs and no clock is read:
//! the fold is a pure function of the spans.

use std::collections::BTreeMap;

use graphalytics_core::trace::Span;

/// An aggregated profile: folded stacks and the self time spent in them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// `frame;frame;frame` (outermost first) → self time in whole µs.
    pub folded: BTreeMap<String, u64>,
}

impl Profile {
    /// Folds finished spans into stacks weighted by self time. A span
    /// whose parent is not in `spans` starts its own stack; stacks whose
    /// weight rounds to zero µs (events, instant spans) are left out.
    pub fn from_spans(spans: &[Span]) -> Self {
        fn lane(s: &Span) -> (u64, Option<&str>) {
            (s.thread, s.field("proc").and_then(|p| p.as_str()))
        }
        let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        let mut children_seconds: BTreeMap<u64, f64> = BTreeMap::new();
        for span in spans {
            if let Some(parent) = span.parent.and_then(|p| by_id.get(&p)) {
                if lane(parent) == lane(span) {
                    *children_seconds.entry(parent.id).or_default() += span.duration_seconds();
                }
            }
        }
        let mut folded = BTreeMap::new();
        for span in spans {
            let self_seconds =
                span.duration_seconds() - children_seconds.get(&span.id).copied().unwrap_or(0.0);
            let micros = (self_seconds.max(0.0) * 1e6).round() as u64;
            if micros == 0 {
                continue;
            }
            let mut frames = vec![span.name.as_str()];
            let mut cursor = span;
            while let Some(parent) = cursor.parent.and_then(|p| by_id.get(&p)) {
                frames.push(parent.name.as_str());
                cursor = parent;
            }
            frames.reverse();
            *folded.entry(frames.join(";")).or_insert(0) += micros;
        }
        Self { folded }
    }

    /// Total folded self time in µs.
    pub fn total_micros(&self) -> u64 {
        self.folded.values().sum()
    }

    /// True when no stack carries any weight.
    pub fn is_empty(&self) -> bool {
        self.folded.is_empty()
    }

    /// The canonical folded-stack text: one `stack weight` line per
    /// distinct stack, sorted — the input format of flamegraph tooling.
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for (stack, weight) in &self.folded {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_core::trace::{FieldValue, Tracer};

    fn span(id: u64, parent: Option<u64>, name: &str, ms: (u64, u64), thread: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start_seconds: ms.0 as f64 / 1e3,
            end_seconds: ms.1 as f64 / 1e3,
            thread,
            fields: Vec::new(),
        }
    }

    #[test]
    fn from_spans_folds_self_time_per_lane() {
        let mut worker = span(6, Some(2), "distrib.worker.compute", (10, 25), 1);
        worker
            .fields
            .push(("proc".to_string(), FieldValue::Str("w0:i0".to_string())));
        let spans = vec![
            // Thread 1: run [0,100] ⊃ execute [10,70] ⊃ superstep [20,50].
            span(1, None, "run", (0, 100), 1),
            span(2, Some(1), "run.execute", (10, 70), 1),
            span(3, Some(2), "pregel.superstep", (20, 50), 1),
            // A fanned-out child on thread 2: prefixed, not subtracted.
            span(4, Some(2), "pregel.partition", (20, 60), 2),
            // A zero-duration event: omitted.
            span(5, Some(1), "monitor.sample", (30, 30), 1),
            // A merged worker span on the master's thread, another lane.
            worker,
            // An orphan: its parent is not in the slice.
            span(7, Some(99), "suite.etl", (0, 4), 3),
        ];
        assert_eq!(
            Profile::from_spans(&spans).folded_text(),
            "run 40000\n\
             run;run.execute 30000\n\
             run;run.execute;distrib.worker.compute 15000\n\
             run;run.execute;pregel.partition 40000\n\
             run;run.execute;pregel.superstep 30000\n\
             suite.etl 4000\n"
        );
    }

    #[test]
    fn a_busy_span_weighs_at_least_its_measured_self_time() {
        let tracer = Tracer::new();
        let measured = {
            let _busy = tracer.span("busy.loop");
            let t0 = std::time::Instant::now();
            let mut x = 1u64;
            for i in 0..2_000_000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            assert_ne!(x, 0);
            t0.elapsed()
        };
        let profile = Profile::from_spans(&tracer.finished_spans());
        let weight = profile.folded.get("busy.loop").copied().unwrap_or(0);
        assert!(
            weight >= measured.as_micros() as u64,
            "{weight} µs < measured {measured:?}: {:?}",
            profile.folded
        );
    }

    #[test]
    fn disabled_tracer_folds_to_nothing() {
        let tracer = Tracer::disabled();
        {
            let _s = tracer.span("invisible");
        }
        assert!(Profile::from_spans(&tracer.finished_spans()).is_empty());
    }
}
