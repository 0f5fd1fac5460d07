//! What a workload run hands back to `main` for reporting.

use std::time::{Duration, Instant};

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One timed operation: an environment step.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Completion time, in seconds since the timed window opened.
    pub end_s: f64,
    /// Latency of the operation.
    pub us: f64,
}

impl Op {
    /// An operation that started at `start` in the window opened at `t0`.
    pub fn timed(t0: Instant, start: Instant) -> Op {
        let end = Instant::now();
        Op {
            end_s: end.duration_since(t0).as_secs_f64(),
            us: us(end.duration_since(start)),
        }
    }
}

#[derive(Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Every timed operation of the timed window.
    pub ops: Vec<Op>,
    /// Latency of each episode start, in microseconds.
    pub reset_us: Vec<f64>,
    /// `-Oz` instruction count over final instruction count, per episode.
    pub codesize: Vec<f64>,
    /// Peak resident set size in MiB when the timed window closed, before
    /// the checks allocate their reference modules.
    pub peak_rss_mb: f64,
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Errors, refusals, dropped WAL records and check mismatches.
    pub failures: Vec<String>,
    /// Per-layer metrics of a traced run, by name.
    pub layers: Vec<(&'static str, f64)>,
    /// Host-independent counts over the run's fixed count window.
    pub counts: Vec<(&'static str, f64)>,
    /// Human-readable lines: the layer table and per-workload notes.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, value));
    }
}
