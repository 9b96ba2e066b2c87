//! `--trace` / `--metrics` flag handling shared by the figure binaries.
//!
//! Observability is strictly opt-in: with neither flag the binaries get
//! a [`Tracer::off`] and their stdout stays byte-identical to a build
//! without this module. With `--trace <path>` every event is appended to
//! `<path>` as one JSON object per line (a trace the `trace_oracle`
//! binary can replay); with `--metrics` events are folded into counters
//! and histograms printed to stdout after the sweep. Both flags may be
//! combined — the tracer tees into both sinks.

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
    /// Parse `--trace <path>` and `--metrics` out of `args`.
    ///
    /// Exits with status 2 (usage error) when `--trace` lacks a path or
    /// the file cannot be created.
    pub fn from_args(args: &[String]) -> Self {
        let mut sinks: Vec<Arc<dyn TraceSink>> = Vec::new();
        let mut metrics = None;
        if let Some(i) = args.iter().position(|a| a == "--trace") {
            let path = args.get(i + 1).unwrap_or_else(|| {
                eprintln!("--trace requires a path, e.g. --trace run.jsonl");
                std::process::exit(2);
            });
            let sink = JsonlSink::create(path).unwrap_or_else(|e| {
                eprintln!("--trace {path}: {e}");
                std::process::exit(2);
            });
            sinks.push(Arc::new(sink));
        }
        if args.iter().any(|a| a == "--metrics") {
            let sink = Arc::new(MetricsSink::new());
            metrics = Some(sink.clone());
            sinks.push(sink);
        }
        ObsFlags {
            tracer: Tracer::tee(sinks),
            metrics,
        }
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

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_flags_is_off() {
        let obs = ObsFlags::from_args(&args(&["--smoke", "-j", "2"]));
        assert!(!obs.tracer.is_on());
        assert!(obs.metrics.is_none());
    }

    #[test]
    fn metrics_flag_enables_tracer() {
        let obs = ObsFlags::from_args(&args(&["--metrics"]));
        assert!(obs.tracer.is_on());
        assert!(obs.metrics.is_some());
    }

    #[test]
    fn trace_flag_writes_jsonl() {
        let path = std::env::temp_dir().join(format!("obsflags-test-{}.jsonl", std::process::id()));
        let obs = ObsFlags::from_args(&args(&["--trace", path.to_str().unwrap()]));
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
}
