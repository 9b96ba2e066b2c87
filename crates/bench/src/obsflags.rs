//! `--trace` / `--metrics` flag handling shared by the figure binaries.
//!
//! Observability is strictly opt-in: with neither flag the binaries get
//! a [`Tracer::off`] and their stdout stays byte-identical to a build
//! without this module. With `--trace <path>` every event is appended to
//! `<path>` as one JSON object per line (a trace the `trace_oracle`
//! binary can replay); with `--metrics` events are folded into counters
//! and histograms printed to stdout after the sweep. Both flags may be
//! combined — the tracer tees into both sinks.

use crate::cli;
use cgra_obs::{JsonlSink, MetricsSink, TraceSink, Tracer};
use std::sync::Arc;

/// Parsed observability flags plus the live sinks behind the tracer.
#[derive(Debug)]
pub struct ObsFlags {
    /// Hand this to the sweep entry points. Off when neither `--trace`
    /// nor `--metrics` was passed.
    pub tracer: Tracer,
    metrics: Option<Arc<MetricsSink>>,
}

impl ObsFlags {
    /// The tracer for a `--trace` path (or none) and the `--metrics`
    /// switch.
    ///
    /// # Errors
    /// [`cli::Error::Invalid`] naming `--trace` and the path if the file
    /// cannot be created.
    pub fn new(trace: Option<&str>, metrics: bool) -> Result<Self, cli::Error> {
        let mut sinks: Vec<Arc<dyn TraceSink>> = Vec::new();
        if let Some(path) = trace {
            let sink = JsonlSink::create(path)
                .map_err(|e| cli::Error::Invalid("--trace", path.into(), e.to_string()))?;
            sinks.push(Arc::new(sink));
        }
        let metrics = metrics.then(|| Arc::new(MetricsSink::new()));
        if let Some(sink) = &metrics {
            sinks.push(sink.clone());
        }
        Ok(ObsFlags {
            tracer: Tracer::tee(sinks),
            metrics,
        })
    }

    /// Finish the run: flush the trace file and, when `--metrics` was
    /// passed, print the folded metrics to stdout.
    ///
    /// Call once, before every process exit (including error exits —
    /// `std::process::exit` skips destructors, so the trace file's
    /// buffered tail would otherwise be lost).
    pub fn finish(&self) {
        self.tracer.flush();
        if let Some(m) = &self.metrics {
            println!("## Metrics\n");
            print!("{}", m.render());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_flags_is_off() {
        let obs = ObsFlags::new(None, false).unwrap();
        assert!(!obs.tracer.is_on());
        assert!(obs.metrics.is_none());
    }

    #[test]
    fn metrics_flag_enables_tracer() {
        let obs = ObsFlags::new(None, true).unwrap();
        assert!(obs.tracer.is_on());
        assert!(obs.metrics.is_some());
    }

    #[test]
    fn trace_flag_writes_jsonl() {
        let path = std::env::temp_dir().join(format!("obsflags-test-{}.jsonl", std::process::id()));
        let obs = ObsFlags::new(path.to_str(), false).unwrap();
        assert!(obs.tracer.is_on());
        obs.tracer.emit(|| cgra_obs::TraceEvent::SimBegin {
            threads: 1,
            pages: 4,
        });
        obs.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(cgra_obs::TraceEvent::parse_jsonl(&text).unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_trace_file_that_cannot_be_created_names_the_path() {
        let path = std::env::temp_dir()
            .join("no-such-dir-obsflags")
            .join("t.jsonl");
        let err = ObsFlags::new(path.to_str(), false).unwrap_err();
        assert!(
            matches!(&err, cli::Error::Invalid("--trace", value, _) if path.to_str() == Some(value)),
            "{err:?}"
        );
    }
}
