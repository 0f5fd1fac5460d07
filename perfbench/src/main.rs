//! The repository benchmark. One seeded command runs one workload and
//! prints every metric by name with its unit; see README.md.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rl-local-warm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Any failed
//! operation or output check makes the command exit non-zero.

mod autotune;
mod checks;
mod gen;
mod outcome;
mod replay;
mod rl;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use outcome::Outcome;
use stats::{geomean, json_str, median, quantile};

pub const WORKLOADS: [&str; 2] = ["rl-local-warm", "rl-remote-cold"];

/// End-to-end metrics: name, unit, better.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("setup_s", "s", "lower"),
    ("steps_per_s", "steps/s", "higher"),
    ("step_p50_us", "us", "lower"),
    ("step_p90_us", "us", "lower"),
    ("reset_p50_us", "us", "lower"),
    ("codesize_vs_oz", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics of a traced run: name, unit, better. A workload that
/// bypasses a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str, &str); 38] = [
    ("env.self_us", "us", "lower"),
    ("service.step_us", "us", "lower"),
    ("service.self_us", "us", "lower"),
    ("llvm.pass_us", "us", "lower"),
    ("llvm.pass_changed_frac", "frac", "higher"),
    ("llvm.obs_autophase_us", "us", "lower"),
    ("llvm.obs_programl_us", "us", "lower"),
    ("llvm.reward_us", "us", "lower"),
    ("llvm.baseline_us", "us", "lower"),
    ("datasets.benchmark_us", "us", "lower"),
    ("ir.analysis_hit_frac", "frac", "higher"),
    ("ir.noop_skip_frac", "frac", "higher"),
    ("checkpoint.saves_per_step", "1/step", "lower"),
    ("checkpoint.save_us", "us", "lower"),
    ("wire.bytes_per_step", "bytes/step", "lower"),
    ("wire.encode_us", "us", "lower"),
    ("wire.decode_us", "us", "lower"),
    ("broker.call_us", "us", "lower"),
    ("broker.queue_wait_us", "us", "lower"),
    ("transport.tcp_self_us", "us", "lower"),
    ("broker.refused", "count", "lower"),
    ("pool.batch_us", "us", "lower"),
    ("pool.actions_executed", "count", "lower"),
    ("pool.actions_saved_frac", "frac", "higher"),
    ("evalcache.exact_hit_frac", "frac", "higher"),
    ("evalcache.prefix_hit_frac", "frac", "higher"),
    ("evalcache.lookup_us", "us", "lower"),
    ("autotune.propose_us", "us", "lower"),
    ("autotune.evals_per_s", "evals/s", "higher"),
    ("stdb.hit_frac", "frac", "higher"),
    ("stdb.hit_step_us", "us", "lower"),
    ("stdb.miss_step_us", "us", "lower"),
    ("stdb.append_records", "count", "lower"),
    ("stdb.append_bytes", "bytes", "lower"),
    ("stdb.dropped_records", "count", "lower"),
    ("stdb.open_us", "us", "lower"),
    ("trace.step_p50_us", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The repository checkout the benchmark was built in.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
        .to_path_buf()
}

/// Where runs write spans and scratch stores.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(a: &Args) -> Result<Outcome, String> {
    let secs = a.seconds as f64;
    let spans = out_dir().join(format!("spans-{}-seed{}.jsonl", a.workload, a.seed));
    match a.workload.as_str() {
        "rl-local-warm" => rl::local_warm(a.seed, secs, a.trace, &spans, &out_dir()),
        "rl-remote-cold" => rl::remote_cold(a.seed, secs, a.trace, &spans),
        _ => unreachable!("workload names are validated"),
    }
}

/// Latency samples per window: a window's p99 has ten samples beyond it.
const WINDOW: usize = 1000;

/// Throughput and latency percentiles as medians over consecutive windows
/// of the timed steps, so a burst of load from outside the run moves a few
/// windows rather than the result. The bounded tail metric is the p90: a
/// p99 rests on the few slowest steps of each window (the largest cold
/// programs) and moves with the seed and the host by more than any bound
/// allows.
struct Windowed {
    steps_per_s: f64,
    p50: f64,
    p90: f64,
    p99: f64,
    windows: usize,
}

impl Windowed {
    fn of(ops: &mut [outcome::Op]) -> Windowed {
        ops.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
        let windows = (ops.len() / WINDOW).max(1);
        let (mut rate, mut p50s, mut p90s, mut p99s) = (vec![], vec![], vec![], vec![]);
        let mut start = 0.0;
        for w in 0..windows {
            let hi = if w + 1 == windows {
                ops.len()
            } else {
                (w + 1) * ops.len() / windows
            };
            let chunk = &ops[w * ops.len() / windows..hi];
            let Some(last) = chunk.last() else { break };
            rate.push(chunk.len() as f64 / (last.end_s - start).max(1e-9));
            start = last.end_s;
            let lat: Vec<f64> = chunk.iter().map(|o| o.us).collect();
            p50s.push(median(&lat));
            p90s.push(quantile(&lat, 0.90));
            p99s.push(quantile(&lat, 0.99));
        }
        Windowed {
            steps_per_s: median(&rate),
            p50: median(&p50s),
            p90: median(&p90s),
            p99: median(&p99s),
            windows,
        }
    }
}

/// A JSON number with all its digits; non-finite values become 0.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "provenance {}",
        stats::provenance(
            &repo_root(),
            &args.workload,
            args.seed,
            args.seconds,
            args.trace
        )
    );

    let w = Windowed::of(&mut out.ops);
    if out.ops.len() < WINDOW {
        println!(
            "warning: step_p99_us from {} samples, fewer than {WINDOW}",
            out.ops.len()
        );
    }
    let failed = out.failures.len() as u64;
    let attempted = out.attempted.max(1);
    let e2e = [
        median(&out.setup_s),
        w.steps_per_s,
        w.p50,
        w.p90,
        median(&out.reset_us),
        geomean(&out.codesize),
        out.peak_rss_mb,
    ];
    let samples = [
        out.setup_s.len(),
        out.ops.len(),
        out.ops.len(),
        out.ops.len(),
        out.reset_us.len(),
        out.codesize.len(),
        1,
    ];
    println!(
        "end-to-end (step metrics are medians over {} windows of about {WINDOW} steps):",
        w.windows
    );
    for (((name, unit, better), v), n) in END_TO_END.iter().zip(e2e).zip(samples) {
        println!("  {name:<16} {v:>14.4} {unit:<6} ({better} is better, n={n})");
    }
    println!(
        "  {:<16} {:>14.4} us     (lower is better, n={}; printed, not bounded)",
        "step_p99_us",
        w.p99,
        out.ops.len()
    );
    println!(
        "  {:<16} {:>14.6} failed/attempted ({failed}/{attempted})",
        "failed_frac",
        failed as f64 / attempted as f64
    );
    for (name, v) in &out.counts {
        println!("count {name} = {v}");
    }
    for line in &out.notes {
        println!("{line}");
    }
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }

    let entry = |name: &str, v: f64, unit: &str| {
        format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            num(v),
            json_str(unit)
        )
    };
    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                let v = out
                    .layers
                    .iter()
                    .find(|l| l.0 == *name)
                    .map_or(0.0, |l| l.1);
                println!("layer {name:<28} {v:>14.4} {unit}");
                entry(name, v, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|((name, unit, _), v)| entry(name, v, unit))
            .collect()
    };
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        metrics.join(",")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn declared(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_benchmark_prints() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("read BENCHMARK.json");
        let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let owned = |v: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            v.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
