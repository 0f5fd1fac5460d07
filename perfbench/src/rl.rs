//! The RL-style workloads: `rl-local-warm` (in-process environment) and
//! `rl-remote-cold` (environments over loopback TCP to an in-process
//! broker). Both are closed loops of seeded 45-step episodes.
//!
//! In a traced run every step goes to three targets in lockstep with the
//! same action: the environment under test, a bare service (a
//! `ServiceClient`, or `Broker::call` for remote), and a bare
//! `LlvmSession` driven through the `CompilationSession` methods the
//! service itself calls. The differences between the three give each
//! layer's self time.

use std::collections::HashSet;
use std::net::TcpListener;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cg_core::envs::llvm::LlvmSession;
use cg_core::service::{Request, Response, ServiceClient};
use cg_core::session::CompilationSession;
use cg_core::{Broker, BrokerConfig, CompilerEnv};

use crate::checks;
use crate::gen::{self, Episode, SMALL_CBENCH};
use crate::outcome::{us, Op, Outcome};
use crate::stats::{frac, median, quantile};
use crate::trace::SpanLog;

/// Set-ups per run; `setup_s` is their median. A local set-up takes a few
/// milliseconds, and single set-ups within one run ranged from 3 to 5 ms.
const SETUP_REPS: usize = 31;
/// Episodes per client whose host-independent counts are reported; a run
/// always completes them, even past its deadline.
const COUNT_EPISODES: usize = 8;
/// Episodes per client whose final IR also goes through the oracle.
const ORACLE_EPISODES: usize = 2;
/// Cold programs reserved per phase, so the traced phase of a traced run
/// draws programs no earlier phase touched.
const COLD_PHASE_PROGRAMS: usize = 1_000;
const TIMEOUT: Duration = Duration::from_secs(120);

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One episode that ran to its end.
pub struct Finished {
    pub ep: Episode,
    pub final_metric: f64,
    pub ir: Option<String>,
}

#[derive(Default)]
pub struct ClientLog {
    pub steps: Vec<Op>,
    pub reset_us: Vec<f64>,
    pub finished: Vec<Finished>,
    pub attempted: u64,
    pub errors: Vec<String>,
}

/// The bare service target of the lockstep.
pub enum Bare {
    Local(ServiceClient),
    Remote { broker: Broker, tenant: String },
}

impl Bare {
    fn call(&self, req: Request) -> Result<Response, String> {
        match self {
            Bare::Local(c) => c.call(req).map_err(err),
            Bare::Remote { broker, tenant } => match broker.call(tenant, req) {
                r @ (Response::Error(_)
                | Response::Fatal(_)
                | Response::Budget(_)
                | Response::Overloaded { .. }) => Err(format!("bare broker call: {r:?}")),
                r => Ok(r),
            },
        }
    }
}

/// Per-step samples of a traced run, in microseconds unless noted.
#[derive(Default)]
pub struct LayerSamples {
    pub env_us: Vec<f64>,
    pub svc_us: Vec<f64>,
    pub pass_us: Vec<f64>,
    pub obs_us: Vec<f64>,
    pub reward_us: Vec<f64>,
    pub save_us: Vec<f64>,
    /// Checkpoint time of every step: 0 off the K boundaries.
    pub save_step: Vec<f64>,
    pub enc_us: Vec<f64>,
    pub dec_us: Vec<f64>,
    pub env_self: Vec<f64>,
    pub svc_self: Vec<f64>,
    pub tcp_self: Vec<f64>,
    pub baseline_us: Vec<f64>,
    pub benchmark_us: Vec<f64>,
    /// Count-window actions that changed the IR, and all count-window
    /// actions.
    pub changed: u64,
    pub applied: u64,
    /// Count-window CGB1 bytes (request plus response frame) and steps.
    pub wire_bytes: u64,
    pub wire_steps: u64,
}

impl LayerSamples {
    fn merge(&mut self, o: LayerSamples) {
        let pairs = [
            (&mut self.env_us, o.env_us),
            (&mut self.svc_us, o.svc_us),
            (&mut self.pass_us, o.pass_us),
            (&mut self.obs_us, o.obs_us),
            (&mut self.reward_us, o.reward_us),
            (&mut self.save_us, o.save_us),
            (&mut self.save_step, o.save_step),
            (&mut self.enc_us, o.enc_us),
            (&mut self.dec_us, o.dec_us),
            (&mut self.env_self, o.env_self),
            (&mut self.svc_self, o.svc_self),
            (&mut self.tcp_self, o.tcp_self),
            (&mut self.baseline_us, o.baseline_us),
            (&mut self.benchmark_us, o.benchmark_us),
        ];
        for (a, b) in pairs {
            a.extend(b);
        }
        self.changed += o.changed;
        self.applied += o.applied;
        self.wire_bytes += o.wire_bytes;
        self.wire_steps += o.wire_steps;
    }
}

/// The two lockstep targets beside the environment under test.
pub struct Lockstep {
    bare: Bare,
    sid: Option<u64>,
    session: LlvmSession,
    obs: &'static str,
    /// Whether resets observe the `-Oz` baseline (the cold reward).
    baseline: bool,
    /// Checkpoint interval K of the service.
    interval: u64,
    depth: u64,
    step_id: u64,
    corr: u64,
    buf: Vec<u8>,
    /// Whether the current episode is in the count window.
    pub counting: bool,
    pub s: LayerSamples,
    pub spans: SpanLog,
}

impl Lockstep {
    pub fn new(
        bare: Bare,
        obs: &'static str,
        baseline: bool,
        interval: u64,
        origin: Instant,
    ) -> Lockstep {
        Lockstep {
            bare,
            sid: None,
            session: LlvmSession::new(),
            obs,
            baseline,
            interval,
            depth: 0,
            step_id: 0,
            corr: 0,
            buf: Vec::new(),
            counting: false,
            s: LayerSamples::default(),
            spans: SpanLog::new(origin),
        }
    }

    /// Starts the episode on both bare targets. They go before the
    /// environment, so a cold program's cache misses land on the bare
    /// session, where `llvm.baseline_us` times them.
    fn reset(&mut self, uri: &str) -> Result<(), String> {
        let t = Instant::now();
        std::hint::black_box(cg_datasets::benchmark(uri).map_err(err)?);
        self.s.benchmark_us.push(us(t.elapsed()));
        self.session.init(uri, 0)?;
        if self.baseline {
            let t = Instant::now();
            self.session.observe("IrInstructionCountOz")?;
            self.s.baseline_us.push(us(t.elapsed()));
        }
        self.session.observe(self.obs)?;
        self.session.observe("IrInstructionCount")?;
        if let Some(sid) = self.sid.take() {
            self.bare.call(Request::EndSession { session_id: sid })?;
        }
        let sid = match self.bare.call(Request::StartSession {
            benchmark: uri.to_string(),
            action_space: 0,
        })? {
            Response::SessionStarted { session_id } => session_id,
            r => return Err(format!("bare StartSession answered {r:?}")),
        };
        self.sid = Some(sid);
        let mut spaces = vec![self.obs.to_string(), "IrInstructionCount".to_string()];
        if self.baseline {
            spaces.push("IrInstructionCountOz".to_string());
        }
        self.bare.call(Request::Step {
            session_id: sid,
            actions: vec![],
            observation_spaces: spaces,
        })?;
        self.depth = 0;
        Ok(())
    }

    /// Sends `action` to both bare targets, given the environment's step
    /// that started at `env_start` and took `env_us`.
    fn step(&mut self, action: usize, env_start: Instant, env_us: f64) -> Result<(), String> {
        self.step_id += 1;
        let id = self.step_id;
        self.spans.record(
            id,
            "env.step",
            env_start,
            Duration::from_secs_f64(env_us / 1e6),
        );
        let sid = self.sid.ok_or("lockstep step before reset")?;
        let req = Request::Step {
            session_id: sid,
            actions: vec![action],
            observation_spaces: vec![self.obs.to_string(), "IrInstructionCount".to_string()],
        };
        let remote = matches!(self.bare, Bare::Remote { .. });
        if remote && self.counting {
            cg_core::wire::encode_request_frame(&mut self.buf, self.corr, &req, None, None);
            self.s.wire_bytes += self.buf.len() as u64;
        }
        let t = Instant::now();
        let resp = self.bare.call(req)?;
        let svc_dt = t.elapsed();
        self.spans.record(
            id,
            if remote {
                "broker.call"
            } else {
                "service.step"
            },
            t,
            svc_dt,
        );
        if !matches!(resp, Response::Stepped { .. }) {
            return Err(format!("bare Step answered {resp:?}"));
        }
        let mut codec_us = 0.0;
        if remote {
            self.corr += 1;
            let t = Instant::now();
            cg_core::wire::encode_response_frame(&mut self.buf, self.corr, &resp);
            let enc = t.elapsed();
            self.spans.record(id, "wire.encode", t, enc);
            if self.counting {
                self.s.wire_bytes += self.buf.len() as u64;
                self.s.wire_steps += 1;
            }
            let body = match cg_core::wire::decode_frame(&self.buf).map_err(|e| e.0)? {
                cg_core::wire::Frame::Response { body, .. } => body,
                _ => return Err("encoded response is not a response frame".into()),
            };
            let t = Instant::now();
            let decoded = cg_core::wire::decode_response_body(body).map_err(|e| e.0)?;
            let dec = t.elapsed();
            std::hint::black_box(decoded);
            self.spans.record(id, "wire.decode", t, dec);
            self.s.enc_us.push(us(enc));
            self.s.dec_us.push(us(dec));
            codec_us = us(enc) + us(dec);
        }

        let t = Instant::now();
        let outcome = self.session.apply_action(action)?;
        let pass = t.elapsed();
        self.spans.record(id, "llvm.pass", t, pass);
        let t = Instant::now();
        std::hint::black_box(self.session.observe(self.obs)?);
        let obs = t.elapsed();
        self.spans.record(id, "llvm.observe", t, obs);
        let t = Instant::now();
        std::hint::black_box(self.session.observe("IrInstructionCount")?);
        let reward = t.elapsed();
        self.spans.record(id, "llvm.reward", t, reward);
        let mut session_us = us(pass) + us(obs) + us(reward);
        let mut save_us = 0.0;
        self.depth += 1;
        if self.interval > 0 && self.depth.is_multiple_of(self.interval) {
            // The service checkpoints inside the step that crosses each
            // K boundary; the bare session does the same work here.
            let t = Instant::now();
            std::hint::black_box(self.session.save_state());
            let save = t.elapsed();
            self.spans.record(id, "checkpoint.save", t, save);
            save_us = us(save);
            self.s.save_us.push(save_us);
            session_us += save_us;
        }
        self.s.save_step.push(save_us);
        if self.counting {
            self.s.applied += 1;
            self.s.changed += u64::from(outcome.changed);
        }
        self.s.env_us.push(env_us);
        self.s.svc_us.push(us(svc_dt));
        self.s.pass_us.push(us(pass));
        self.s.obs_us.push(us(obs));
        self.s.reward_us.push(us(reward));
        self.s.svc_self.push(us(svc_dt) - session_us);
        if remote {
            self.s.tcp_self.push(env_us - us(svc_dt) - codec_us);
        } else {
            self.s.env_self.push(env_us - us(svc_dt));
        }
        Ok(())
    }
}

/// Runs episodes `episode(k)` for `k = 0, 1, ...` on `env` until `until`
/// has passed and at least `min_episodes` ran; step completion times count
/// from `t0`. Episodes in `ir_sample` fetch their final IR after the
/// episode, outside any timing.
pub fn client_loop(
    env: &mut CompilerEnv,
    episode: impl Fn(u64) -> Episode,
    t0: Instant,
    until: Instant,
    min_episodes: usize,
    ir_sample: &HashSet<u64>,
    mut lock: Option<&mut Lockstep>,
) -> ClientLog {
    let mut log = ClientLog::default();
    for k in 0u64.. {
        if k as usize >= min_episodes && Instant::now() >= until {
            break;
        }
        let ep = episode(k);
        env.set_benchmark(&ep.benchmark);
        if let Some(l) = lock.as_deref_mut() {
            l.counting = (k as usize) < min_episodes;
            if let Err(e) = l.reset(&ep.benchmark) {
                log.errors
                    .push(format!("lockstep reset {}: {e}", ep.benchmark));
                return log;
            }
        }
        log.attempted += 1;
        let t = Instant::now();
        if let Err(e) = env.reset() {
            log.errors.push(format!("reset {}: {e}", ep.benchmark));
            continue;
        }
        log.reset_us.push(us(t.elapsed()));
        let mut ok = true;
        for &a in &ep.actions {
            log.attempted += 1;
            let t = Instant::now();
            let r = env.step(a);
            let op = Op::timed(t0, t);
            if let Err(e) = r {
                log.errors
                    .push(format!("step {} action {a}: {e}", ep.benchmark));
                ok = false;
                break;
            }
            log.steps.push(op);
            if let Some(l) = lock.as_deref_mut() {
                if let Err(e) = l.step(a, t, op.us) {
                    log.errors
                        .push(format!("lockstep step {}: {e}", ep.benchmark));
                    return log;
                }
            }
        }
        if !ok {
            continue;
        }
        let ir = if ir_sample.contains(&k) {
            match env.observe("Ir") {
                Ok(o) => o.as_text().map(str::to_string),
                Err(e) => {
                    log.errors.push(format!("observe Ir {}: {e}", ep.benchmark));
                    None
                }
            }
        } else {
            None
        };
        log.finished.push(Finished {
            final_metric: env.last_metric(),
            ep,
            ir,
        });
    }
    log
}

/// The seeded episodes of the count window whose final IR goes through
/// the oracle.
fn oracle_sample(seed: u64, stream: &str) -> HashSet<u64> {
    use rand::Rng;
    let mut r = gen::rng(seed, stream, 0);
    let mut s = HashSet::new();
    while s.len() < ORACLE_EPISODES {
        s.insert(r.gen_range(0..COUNT_EPISODES as u64));
    }
    s
}

/// Checks every finished episode against the reference and the oracle
/// sample against the interpreter; returns the codesize ratios of all
/// finished episodes and the failures.
fn check_episodes(finished: &[&Finished]) -> (Vec<f64>, Vec<String>) {
    let mut failures = checks::run_parallel(finished, |f| {
        let (m, _, after) = checks::reference(&f.ep.benchmark, &f.ep.actions)?;
        if after as f64 != f.final_metric {
            return Err(format!(
                "{}: final IR count {} but the reference gives {after}",
                f.ep.benchmark, f.final_metric
            ));
        }
        if let Some(ir) = &f.ir {
            checks::oracle_text(&f.ep.benchmark, ir)?;
            checks::oracle(&f.ep.benchmark, &m)?;
        }
        Ok(())
    });
    let mut oz = checks::OzCounts::default();
    let mut ratios = Vec::with_capacity(finished.len());
    for f in finished {
        match oz.get(&f.ep.benchmark) {
            Ok(n) => ratios.push(n as f64 / f.final_metric.max(1.0)),
            Err(e) => failures.push(e),
        }
    }
    (ratios, failures)
}

/// Fills the per-layer metrics and the layer table of a traced run.
fn report_layers(out: &mut Outcome, s: &LayerSamples, untraced_p50: f64, remote: bool) {
    let ir = cg_ir::am::cache_stats();
    let env_p50 = median(&s.env_us);
    let pass = median(&s.pass_us);
    let obs_p50 = median(&s.obs_us);
    let reward = median(&s.reward_us);
    // Per step, the rows add up to the environment's step time exactly.
    let mut rows: Vec<(&str, &[f64])> = Vec::new();
    if remote {
        rows.push(("transport.tcp_self_us", &s.tcp_self));
        rows.push(("wire.encode_us", &s.enc_us));
        rows.push(("wire.decode_us", &s.dec_us));
        rows.push(("broker.self_us", &s.svc_self));
    } else {
        rows.push(("env.self_us", &s.env_self));
        rows.push(("service.self_us", &s.svc_self));
    }
    rows.push(("llvm.pass_us", &s.pass_us));
    rows.push((
        if remote {
            "llvm.obs_programl_us"
        } else {
            "llvm.obs_autophase_us"
        },
        &s.obs_us,
    ));
    rows.push(("llvm.reward_us", &s.reward_us));
    rows.push(("checkpoint.save_us", &s.save_step));
    // Medians of the rows need not add up to the median step, so the
    // table also attributes the steps around the median: the mean of each
    // row over the steps whose time lies between the 45th and 55th
    // percentile, which sums to those steps' mean time.
    let (lo, hi) = (quantile(&s.env_us, 0.45), quantile(&s.env_us, 0.55));
    let band: Vec<usize> = (0..s.env_us.len())
        .filter(|&i| (lo..=hi).contains(&s.env_us[i]))
        .collect();
    let band_mean = |v: &[f64]| band.iter().map(|&i| v[i]).sum::<f64>() / band.len().max(1) as f64;
    out.notes.push(format!(
        "layer table: self time per step, n={} steps ({} around the median):",
        s.env_us.len(),
        band.len()
    ));
    out.notes.push(format!(
        "  {:<24} {:>12} {:>14} {:>7}",
        "layer", "median us", "at-median us", "share"
    ));
    let mut sum = 0.0;
    let mut negative = false;
    for (name, v) in &rows {
        let (m, b) = (median(v), band_mean(v));
        sum += b;
        negative |= m < 0.0 || b < 0.0;
        out.notes.push(format!(
            "  {name:<24} {m:>12.1} {b:>14.1} {:>6.1}%",
            100.0 * b / env_p50.max(1e-9)
        ));
    }
    out.notes.push(format!(
        "  rows add up to {sum:.1} us; traced step_p50_us {env_p50:.1} us ({:+.1}%); negative self time: {}",
        100.0 * (sum / env_p50.max(1e-9) - 1.0),
        if negative { "yes" } else { "none" }
    ));
    let overhead = env_p50 / untraced_p50.max(1e-9);
    out.notes.push(format!(
        "  tracing overhead: traced step_p50_us {env_p50:.1} / untraced {untraced_p50:.1} = {overhead:.3}"
    ));

    out.layer("trace.step_p50_us", env_p50);
    out.layer("trace.overhead_ratio", overhead);
    if remote {
        out.layer("broker.call_us", median(&s.svc_us));
        out.layer("transport.tcp_self_us", median(&s.tcp_self));
        out.layer("wire.encode_us", median(&s.enc_us));
        out.layer("wire.decode_us", median(&s.dec_us));
        out.layer("wire.bytes_per_step", frac(s.wire_bytes, s.wire_steps));
        out.layer("llvm.obs_programl_us", obs_p50);
        out.layer("llvm.baseline_us", median(&s.baseline_us));
    } else {
        out.layer("env.self_us", median(&s.env_self));
        out.layer("service.step_us", median(&s.svc_us));
        out.layer("service.self_us", median(&s.svc_self));
        out.layer("llvm.obs_autophase_us", obs_p50);
    }
    out.layer("llvm.pass_us", pass);
    out.layer("llvm.pass_changed_frac", frac(s.changed, s.applied));
    out.layer("llvm.reward_us", reward);
    out.layer("datasets.benchmark_us", median(&s.benchmark_us));
    out.layer("ir.analysis_hit_frac", ir.hit_rate());
    out.layer("checkpoint.save_us", median(&s.save_us));
    out.count("llvm.pass_changed_frac", frac(s.changed, s.applied));
    if remote {
        out.count("wire.bytes_per_step", frac(s.wire_bytes, s.wire_steps));
    }
}

/// Folds client logs into the outcome, returning the finished episodes.
fn absorb(out: &mut Outcome, logs: Vec<ClientLog>) -> Vec<Finished> {
    let mut finished = Vec::new();
    for log in logs {
        out.ops.extend(log.steps);
        out.reset_us.extend(log.reset_us);
        out.attempted += log.attempted;
        out.failures.extend(log.errors);
        finished.extend(log.finished);
    }
    finished
}

fn step_p50(logs: &[ClientLog]) -> f64 {
    median(
        &logs
            .iter()
            .flat_map(|l| l.steps.iter().map(|o| o.us))
            .collect::<Vec<_>>(),
    )
}

fn setup_local() -> Result<CompilerEnv, String> {
    cg_core::envs::llvm::clear_benchmark_cache();
    let mut env = cg_core::make("llvm-v0").map_err(err)?;
    env.set_observation_space("Autophase");
    env.set_reward_space("IrInstructionCount");
    for p in SMALL_CBENCH {
        env.set_benchmark(&gen::cbench_uri(p));
        env.reset().map_err(err)?;
    }
    Ok(env)
}

/// `rl-local-warm`. A traced run splits its time in three: untraced
/// steps, lockstep-traced steps, and the transition-store replay of
/// [`crate::replay`], which adds the `stdb.*` layer metrics.
pub fn local_warm(
    seed: u64,
    seconds: f64,
    trace: bool,
    span_path: &Path,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut env = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        env = Some(setup_local()?);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut env = env.expect("set up at least once");
    let n = env.action_space().len();
    let episode = |k| gen::warm_episode(seed, "warm", k, n);
    let sample = oracle_sample(seed, "warm-oracle");
    let phase = if trace { seconds / 3.0 } else { seconds };

    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(phase);
    let logs = vec![client_loop(
        &mut env,
        episode,
        t0,
        until,
        COUNT_EPISODES,
        &sample,
        None,
    )];
    let untraced_p50 = step_p50(&logs);
    let mut finished = absorb(&mut out, logs);
    if trace {
        out = Outcome {
            setup_s: std::mem::take(&mut out.setup_s),
            attempted: out.attempted,
            failures: std::mem::take(&mut out.failures),
            ..Outcome::default()
        };
        let factory = cg_core::envs::session_factory("llvm-v0").map_err(err)?;
        let bare = Bare::Local(ServiceClient::spawn(factory, TIMEOUT));
        let interval = env.checkpoint_store().interval();
        let taken_before = env.checkpoint_store().checkpoints_taken();
        let origin = Instant::now();
        let mut lock = Lockstep::new(bare, "Autophase", false, interval, origin);
        cg_ir::am::reset_cache_stats();
        let until = origin + Duration::from_secs_f64(phase);
        let log = client_loop(
            &mut env,
            episode,
            origin,
            until,
            COUNT_EPISODES,
            &sample,
            Some(&mut lock),
        );
        let ir = cg_ir::am::cache_stats();
        let steps = log.steps.len() as u64;
        let taken = env.checkpoint_store().checkpoints_taken() - taken_before;
        finished.extend(absorb(&mut out, vec![log]));
        report_layers(&mut out, &lock.s, untraced_p50, false);
        // Three targets apply every action: the environment's service,
        // the bare service and the bare session.
        out.layer("ir.noop_skip_frac", frac(ir.noop_skips, 3 * steps));
        out.layer("checkpoint.saves_per_step", frac(taken, steps));
        crate::trace::write_all(span_path, &[&lock.spans]).map_err(err)?;
        out.notes
            .push(format!("spans written to {}", span_path.display()));
    }
    out.peak_rss_mb = crate::stats::peak_rss_mb();
    if trace {
        let replay = crate::replay::replay(seed, phase, scratch)?;
        out.layers.extend(replay.layers);
        out.counts.extend(replay.counts);
        out.notes.extend(replay.notes);
        out.failures.extend(replay.failures);
        out.attempted += replay.attempted;
    }
    let refs: Vec<&Finished> = finished.iter().collect();
    let (ratios, failures) = check_episodes(&refs);
    out.codesize = ratios;
    out.failures.extend(failures);
    out.attempted += finished.len() as u64;
    Ok(out)
}

/// An in-process broker serving loopback TCP.
struct Server {
    broker: Broker,
    serve: JoinHandle<std::io::Result<()>>,
    addr: String,
}

impl Server {
    fn start() -> Result<Server, String> {
        let factory = cg_core::envs::session_factory("llvm-v0").map_err(err)?;
        let broker = Broker::new(
            factory,
            BrokerConfig {
                workers: 2,
                ..BrokerConfig::default()
            },
        );
        let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
        let addr = listener.local_addr().map_err(err)?.to_string();
        let b = broker.clone();
        let serve = std::thread::spawn(move || b.serve(listener));
        Ok(Server {
            broker,
            serve,
            addr,
        })
    }

    /// Drains the broker and joins its accept loop. Clients must have
    /// disconnected first.
    fn stop(self) -> Result<(), String> {
        self.broker.drain(Duration::from_secs(5));
        match self.serve.join() {
            Ok(r) => r.map_err(err),
            Err(_) => Err("broker accept loop panicked".into()),
        }
    }
}

fn connect(addr: &str) -> Result<CompilerEnv, String> {
    CompilerEnv::connect_tcp(
        "llvm-v0",
        addr,
        "benchmark://cbench-v1/qsort",
        "Programl",
        "IrInstructionCountOz",
        TIMEOUT,
    )
    .map_err(err)
}

/// `rl-remote-cold`. A traced run splits its time in three: untraced
/// steps, lockstep-traced steps, and the autotuning search of
/// [`crate::autotune`], which adds the pool, evalcache and autotune layer
/// metrics.
pub fn remote_cold(
    seed: u64,
    seconds: f64,
    trace: bool,
    span_path: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let programs = gen::github_programs(seed, 2 * COLD_PHASE_PROGRAMS);
    let mut server: Option<(Server, Vec<CompilerEnv>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((s, envs)) = server.take() {
            drop(envs);
            s.stop()?;
        }
        let t = Instant::now();
        let s = Server::start()?;
        // The two clients start together, as two agents would.
        let envs = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2).map(|_| scope.spawn(|| connect(&s.addr))).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("connect panicked".into())))
                .collect::<Result<Vec<_>, String>>()
        })?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        server = Some((s, envs));
    }
    let (server, mut envs) = server.expect("set up at least once");
    let n = envs[0].action_space().len();
    let refused_before = cg_telemetry::global().broker.refused.get();
    let clients = envs.len() as u64;

    // Client `c` runs episodes c, c + clients, c + 2 * clients, ... of the
    // phase's program block.
    let run_phase = |envs: &mut [CompilerEnv],
                     offset: usize,
                     seconds: f64,
                     locks: Option<&mut Vec<Lockstep>>| {
        let t0 = Instant::now();
        let until = t0 + Duration::from_secs_f64(seconds);
        let programs = &programs[offset..offset + COLD_PHASE_PROGRAMS];
        let samples: Vec<HashSet<u64>> = (0..clients)
            .map(|c| oracle_sample(seed ^ c, "cold-oracle"))
            .collect();
        std::thread::scope(|s| {
            let mut locks: Vec<Option<&mut Lockstep>> = match locks {
                Some(v) => v.iter_mut().map(Some).collect(),
                None => (0..clients).map(|_| None).collect(),
            };
            let handles: Vec<_> = envs
                .iter_mut()
                .zip(locks.drain(..))
                .zip(&samples)
                .enumerate()
                .map(|(c, ((env, lock), sample))| {
                    let c = c as u64;
                    s.spawn(move || {
                        let episode = |k: u64| {
                            let i = (c + k * clients).min(COLD_PHASE_PROGRAMS as u64 - 1);
                            gen::cold_episode(seed, programs, i, n)
                        };
                        client_loop(env, episode, t0, until, COUNT_EPISODES, sample, lock)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect::<Vec<_>>()
        })
    };

    let phase = if trace { seconds / 3.0 } else { seconds };
    let logs = run_phase(&mut envs, 0, phase, None);
    let untraced_p50 = step_p50(&logs);
    let mut finished = absorb(&mut out, logs);
    if trace {
        out = Outcome {
            setup_s: std::mem::take(&mut out.setup_s),
            attempted: out.attempted,
            failures: std::mem::take(&mut out.failures),
            ..Outcome::default()
        };
        let origin = Instant::now();
        let interval = envs[0].checkpoint_store().interval();
        let mut locks: Vec<Lockstep> = (0..clients)
            .map(|c| {
                let bare = Bare::Remote {
                    broker: server.broker.clone(),
                    tenant: format!("bare-{c}"),
                };
                Lockstep::new(bare, "Programl", true, interval, origin)
            })
            .collect();
        let tel = cg_telemetry::global();
        let queue_wait_before = tel.broker.queue_wait.count();
        cg_ir::am::reset_cache_stats();
        let taken_before: u64 = envs
            .iter()
            .map(|e| e.checkpoint_store().checkpoints_taken())
            .sum();
        let logs = run_phase(&mut envs, COLD_PHASE_PROGRAMS, phase, Some(&mut locks));
        let ir = cg_ir::am::cache_stats();
        let taken = envs
            .iter()
            .map(|e| e.checkpoint_store().checkpoints_taken())
            .sum::<u64>()
            - taken_before;
        finished.extend(absorb(&mut out, logs));
        let mut all = LayerSamples::default();
        for l in locks.iter_mut() {
            all.merge(std::mem::take(&mut l.s));
        }
        report_layers(&mut out, &all, untraced_p50, true);
        let steps = out.ops.len() as u64;
        out.layer("ir.noop_skip_frac", frac(ir.noop_skips, 3 * steps));
        out.layer("checkpoint.saves_per_step", frac(taken, steps));
        // The broker's histogram has log-spaced buckets; its p50 is the
        // queue wait of every request this process served, bare ones too.
        out.layer(
            "broker.queue_wait_us",
            tel.broker.queue_wait.quantile(0.5) as f64,
        );
        out.notes.push(format!(
            "broker.queue_wait_us from {} queued requests",
            tel.broker.queue_wait.count() - queue_wait_before
        ));
        let spans: Vec<&SpanLog> = locks.iter().map(|l| &l.spans).collect();
        crate::trace::write_all(span_path, &spans).map_err(err)?;
        out.notes
            .push(format!("spans written to {}", span_path.display()));
    }
    out.peak_rss_mb = crate::stats::peak_rss_mb();
    let refused = cg_telemetry::global().broker.refused.get() - refused_before;
    out.layer("broker.refused", refused as f64);
    for _ in 0..refused {
        out.failures.push("broker refused a request".into());
    }
    drop(envs);
    server.stop()?;
    if trace {
        let search = crate::autotune::search(seed, phase)?;
        out.layers.extend(search.layers);
        out.counts.extend(search.counts);
        out.notes.extend(search.notes);
        out.failures.extend(search.failures);
        out.attempted += search.attempted;
    }

    let refs: Vec<&Finished> = finished.iter().collect();
    let (ratios, failures) = check_episodes(&refs);
    out.codesize = ratios;
    out.failures.extend(failures);
    out.attempted += finished.len() as u64;
    Ok(out)
}
