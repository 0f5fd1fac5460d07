//! Spans recorded by the benchmark around its calls into each layer. They
//! are kept in memory during the run and written out as JSON lines when
//! the run ends, so recording costs one `Vec` push per span.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    step: u64,
    name: &'static str,
    start: Duration,
    dur: Duration,
}

/// The spans of one client. Spans of one step share its `step` id.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn record(&mut self, step: u64, name: &'static str, start: Instant, dur: Duration) {
        self.spans.push(Span {
            step,
            name,
            start: start.saturating_duration_since(self.origin),
            dur,
        });
    }

    /// Appends every span as one JSON line `{"client","step","name",
    /// "start_us","dur_us"}` to `out`.
    pub fn write(&self, client: usize, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"client\":{client},\"step\":{},\"name\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.step,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6
            )?;
        }
        Ok(())
    }
}

/// Writes every client's spans to `path`.
pub fn write_all(path: &Path, logs: &[&SpanLog]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (client, log) in logs.iter().enumerate() {
        log.write(client, &mut out)?;
    }
    out.flush()
}
