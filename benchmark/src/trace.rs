//! Spans recorded from the benchmark's own files around every call into the
//! program. Kept in memory while a pass runs and written out at exit as Chrome
//! trace-event JSON (loadable in Perfetto or `chrome://tracing`).

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    start_us: f64,
    /// `None` marks an instant event.
    dur_us: Option<f64>,
}

/// An in-memory span recorder.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace { origin, spans: Vec::new() }
    }

    fn us(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Record a completed span.
    pub fn span(&mut self, name: &str, start: Instant, end: Instant) {
        let start_us = self.us(start);
        let dur_us = Some(self.us(end) - start_us);
        self.spans.push(Span { name: name.to_string(), start_us, dur_us });
    }

    /// Record an instant event.
    pub fn instant(&mut self, name: &str, at: Instant) {
        let start_us = self.us(at);
        self.spans.push(Span { name: name.to_string(), start_us, dur_us: None });
    }

    /// Time `f` and record it as a span.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.span(name, start, Instant::now());
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Render as Chrome trace-event JSON: complete (`X`) events for spans,
    /// instant (`i`) events for faults, all on one process/thread (the
    /// benchmark runs the program on one thread).
    pub fn to_chrome_json(&self, process_name: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{process_name}\"}}}}"
        );
        for span in &self.spans {
            // Layer = the span name's first dotted component.
            let cat = span.name.split('.').next().unwrap_or("");
            match span.dur_us {
                Some(dur) => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"{cat}\",\
                         \"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3}}}",
                        span.name, span.start_us, dur
                    );
                }
                None => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"i\",\"s\":\"p\",\"pid\":1,\"tid\":1,\"cat\":\"{cat}\",\
                         \"name\":\"{}\",\"ts\":{:.3}}}",
                        span.name, span.start_us
                    );
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_holds_spans_and_instants() {
        let origin = Instant::now();
        let mut trace = Trace::new(origin);
        trace.timed("probe.state.apply_write_ns", || std::hint::black_box(1 + 1));
        trace.instant("fault.crash", Instant::now());
        let json = trace.to_chrome_json("kv_write_1kib");
        assert_eq!(trace.len(), 2);
        assert!(json.contains("\"ph\":\"X\"") && json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"cat\":\"probe\"") && json.contains("\"cat\":\"fault\""));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        // One event per line between the brackets: crude but sufficient
        // well-formedness check without a JSON parser in the tree.
        assert_eq!(json.matches("{\"ph\"").count(), 3);
    }
}
