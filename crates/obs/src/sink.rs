//! Trace sinks and the [`Tracer`] handle producers thread through
//! their entry points.

use crate::event::TraceEvent;
use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A consumer of trace events. Implementations must be thread-safe:
/// the parallel sweep engine records from worker threads.
pub trait TraceSink: Send + Sync {
    /// Record one event.
    fn record(&self, ev: TraceEvent);

    /// Record a batch atomically: events from one batch are never
    /// interleaved with events from another (the default implementation
    /// only has that property if `record` is the sole writer).
    fn record_batch(&self, evs: Vec<TraceEvent>) {
        for ev in evs {
            self.record(ev);
        }
    }

    /// Flush any buffered output.
    fn flush(&self) {}
}

/// The handle traced code paths carry: either off (`None`) or a shared
/// sink.
///
/// When off, [`Tracer::emit`] never calls its closure, so event
/// construction (string clones, page-list collection) is skipped
/// entirely — the cost of a disabled tracer is one branch per site.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<dyn TraceSink>>);

impl Tracer {
    /// The disabled tracer.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// A tracer feeding `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Tracer(Some(sink))
    }

    /// A tracer fanning out to every sink in `sinks`: off when empty,
    /// direct when singleton, a [`TeeSink`] otherwise.
    pub fn tee(mut sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        match sinks.len() {
            0 => Tracer(None),
            1 => Tracer(Some(sinks.pop().expect("len checked"))),
            _ => Tracer(Some(Arc::new(TeeSink(sinks)))),
        }
    }

    /// Whether events are being recorded.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Record the event built by `f`, or do nothing when off.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.0 {
            sink.record(f());
        }
    }

    /// Flush the underlying sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.0 {
            sink.flush();
        }
    }
}

/// Forwards numbered batches to a [`Tracer`] in number order, whatever
/// order they finish in: batch `i` waits until batches `0..i` are
/// forwarded. Parallel sweep points share one trace this way and still
/// write it in the order a serial run does. Every number from 0 up must
/// be batched once, or the batches after a missing one are never
/// forwarded.
pub struct InOrder<'a> {
    tracer: &'a Tracer,
    /// The next number to forward, and the finished batches after it.
    waiting: Mutex<(usize, BTreeMap<usize, Vec<TraceEvent>>)>,
}

impl<'a> InOrder<'a> {
    /// Numbered batches for `tracer`, starting at 0.
    pub fn new(tracer: &'a Tracer) -> Self {
        InOrder {
            tracer,
            waiting: Mutex::default(),
        }
    }

    /// Run `f` as batch `index` with a tracer that buffers locally; the
    /// events are forwarded as one atomic batch once every batch
    /// numbered below it has been. When the tracer is off, `f` just
    /// runs with it.
    pub fn batched<R>(&self, index: usize, f: impl FnOnce(&Tracer) -> R) -> R {
        let Some(sink) = &self.tracer.0 else {
            return f(self.tracer);
        };
        let ring = Arc::new(RingSink::unbounded());
        let result = f(&Tracer::new(ring.clone()));
        let mut waiting = self.waiting.lock().expect("trace batch lock poisoned");
        let (next, done) = &mut *waiting;
        done.insert(index, ring.drain());
        while let Some(batch) = done.remove(next) {
            sink.record_batch(batch);
            *next += 1;
        }
        result
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_on() {
            "Tracer(on)"
        } else {
            "Tracer(off)"
        })
    }
}

/// An in-memory ring buffer of events. With a capacity, the oldest
/// events are dropped (and counted) once full; unbounded, it keeps
/// everything — the capture buffer for tests and [`InOrder`] batches.
pub struct RingSink {
    capacity: usize,
    buf: Mutex<VecDeque<TraceEvent>>,
    dropped: AtomicU64,
}

impl RingSink {
    /// A ring keeping at most `capacity` events (0 means unbounded).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity,
            buf: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// A ring that never drops.
    pub fn unbounded() -> Self {
        RingSink::new(0)
    }

    /// Take every buffered event, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.buf.lock().expect("ring poisoned").drain(..).collect()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("ring poisoned").len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl TraceSink for RingSink {
    fn record(&self, ev: TraceEvent) {
        let mut buf = self.buf.lock().expect("ring poisoned");
        if self.capacity > 0 && buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(ev);
    }

    fn record_batch(&self, evs: Vec<TraceEvent>) {
        let mut buf = self.buf.lock().expect("ring poisoned");
        for ev in evs {
            if self.capacity > 0 && buf.len() == self.capacity {
                buf.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            buf.push_back(ev);
        }
    }
}

/// Streams events to a file as JSON Lines, one event per line.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncating) the trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, ev: TraceEvent) {
        let mut out = self.out.lock().expect("jsonl poisoned");
        // Trace output is best-effort: a full disk should not abort the
        // run whose behaviour is being observed.
        let _ = writeln!(out, "{}", ev.to_jsonl());
    }

    fn record_batch(&self, evs: Vec<TraceEvent>) {
        let mut out = self.out.lock().expect("jsonl poisoned");
        for ev in evs {
            let _ = writeln!(out, "{}", ev.to_jsonl());
        }
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("jsonl poisoned").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Fans every event out to several sinks (e.g. a JSONL file plus a
/// metrics counter).
pub struct TeeSink(Vec<Arc<dyn TraceSink>>);

impl TeeSink {
    /// A tee over `sinks`.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        TeeSink(sinks)
    }
}

impl TraceSink for TeeSink {
    fn record(&self, ev: TraceEvent) {
        for sink in &self.0 {
            sink.record(ev.clone());
        }
    }

    fn record_batch(&self, evs: Vec<TraceEvent>) {
        for sink in &self.0 {
            sink.record_batch(evs.clone());
        }
    }

    fn flush(&self) {
        for sink in &self.0 {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64) -> TraceEvent {
        TraceEvent::ThreadDone { time, thread: 0 }
    }

    #[test]
    fn off_tracer_never_builds_the_event() {
        let tracer = Tracer::off();
        assert!(!tracer.is_on());
        tracer.emit(|| unreachable!("disabled tracer must not construct events"));
    }

    #[test]
    fn ring_keeps_order_and_drops_oldest() {
        let ring = RingSink::new(2);
        ring.record(ev(1));
        ring.record(ev(2));
        ring.record(ev(3));
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.drain(), vec![ev(2), ev(3)]);
        assert!(ring.is_empty());
    }

    #[test]
    fn in_order_forwards_batches_by_number() {
        let outer = Arc::new(RingSink::unbounded());
        let tracer = Tracer::new(outer.clone());
        let in_order = InOrder::new(&tracer);
        let batch = |i: usize| in_order.batched(i, |t| t.emit(|| ev(i as u64)));
        batch(2);
        batch(1);
        assert!(outer.is_empty(), "batches 1 and 2 must wait for batch 0");
        batch(0);
        assert_eq!(outer.drain(), vec![ev(0), ev(1), ev(2)]);
        batch(3);
        assert_eq!(outer.drain(), vec![ev(3)]);
        // Off, the closure runs on the disabled tracer.
        let off = Tracer::off();
        assert!(!InOrder::new(&off).batched(5, |t| t.is_on()));
    }

    #[test]
    fn tee_duplicates_to_every_sink() {
        let a = Arc::new(RingSink::unbounded());
        let b = Arc::new(RingSink::unbounded());
        let tracer = Tracer::tee(vec![a.clone(), b.clone()]);
        tracer.emit(|| ev(7));
        assert_eq!(a.drain(), vec![ev(7)]);
        assert_eq!(b.drain(), vec![ev(7)]);
        assert!(!Tracer::tee(vec![]).is_on());
    }
}
