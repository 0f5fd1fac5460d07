//! The transition-store phase of `rl-local-warm`'s traced run:
//! `replay://llvm-v0` over a store that set-up fills from live seeded
//! episodes. The phase replays them lap after lap; on every lap a quarter
//! of the episodes leave the logged path at a seeded step with fresh
//! actions, so they miss, fall through to the live compiler and write
//! through to the WAL. It yields the `stdb.*` layer metrics and runs the
//! replay checks; its timings are not end-to-end metrics, because they
//! moved by 25-60% between runs on a shared two-vCPU host.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cg_core::CompilerEnv;
use cg_stdb::{StoreConfig, StoreSink, TransitionStore};

use crate::checks;
use crate::gen::{self, Episode, EPISODE_LEN};
use crate::outcome::{us, Outcome};
use crate::stats::{frac, median};

const SETUP_REPS: usize = 3;
const EPISODES: u64 = 24;
/// Episodes of the first lap whose final IR also goes through the oracle.
const ORACLE_EPISODES: usize = 2;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Logs every episode live into a fresh store at `dir`, returning the
/// per-step rewards the live environment reported.
fn fill_store(dir: &Path, logged: &[Episode]) -> Result<Vec<Vec<f64>>, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = TransitionStore::open_shared(dir, StoreConfig::default()).map_err(err)?;
    cg_core::install_transition_sink(Arc::new(StoreSink(Arc::clone(&store))));
    let rewards = (|| {
        let mut env = cg_core::make("llvm-v0").map_err(err)?;
        let mut all = Vec::with_capacity(logged.len());
        for ep in logged {
            env.set_benchmark(&ep.benchmark);
            env.reset().map_err(err)?;
            let mut rewards = Vec::with_capacity(EPISODE_LEN);
            for &a in &ep.actions {
                rewards.push(env.step(a).map_err(err)?.reward);
            }
            all.push(rewards);
        }
        Ok::<_, String>(all)
    })();
    cg_core::clear_transition_sink();
    store.flush();
    let dropped = store.dropped_records();
    drop(store);
    if dropped > 0 {
        return Err(format!("set-up dropped {dropped} WAL records"));
    }
    rewards
}

/// What one replay of one logged episode produced.
struct Replayed {
    episode: usize,
    actions: Vec<usize>,
    diverge_at: Option<usize>,
    rewards: Vec<f64>,
    final_metric: f64,
}

/// Runs the phase for `seconds` with its stores under `scratch`.
pub fn replay(seed: u64, seconds: f64, scratch: &Path) -> Result<Outcome, String> {
    cg_stdb::install();
    let root = scratch.join(format!("replay-{}", std::process::id()));
    let result = run(seed, seconds, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run(seed: u64, seconds: f64, root: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let n = cg_llvm::action_space::ActionSpace::new().len();
    let logged: Vec<Episode> = (0..EPISODES)
        .map(|i| gen::warm_episode(seed, "replay", i, n))
        .collect();
    // Set-up fills a store from live episodes, then opens it: opening
    // replays the WAL to rebuild the index (`stdb.open_us`).
    let mut live = Vec::new();
    let mut open_us = Vec::new();
    let mut setup_s = Vec::new();
    let mut replay: Option<(Arc<TransitionStore>, CompilerEnv)> = None;
    for rep in 0..SETUP_REPS {
        drop(replay.take());
        cg_core::envs::llvm::clear_benchmark_cache();
        let t = Instant::now();
        let dir = root.join(format!("store-{rep}"));
        live = fill_store(&dir, &logged)?;
        let t_open = Instant::now();
        let store = TransitionStore::open_shared(&dir, StoreConfig::default()).map_err(err)?;
        open_us.push(us(t_open.elapsed()));
        // The replay environment shares the open store through the
        // store's registry.
        let env = cg_core::make(&format!("replay://llvm-v0?dir={}", dir.display())).map_err(err)?;
        setup_s.push(t.elapsed().as_secs_f64());
        replay = Some((store, env));
    }
    let (store, mut env) = replay.expect("set up at least once");

    let tel = cg_telemetry::global();
    let stdb0 = tel.stdb.snapshot();
    let mut lap0_appends = (0, 0);
    let (mut hit_us, mut miss_us) = (Vec::new(), Vec::new());
    let mut results: Vec<Replayed> = Vec::new();
    let mut final_ir: Vec<(String, String)> = Vec::new();
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let mut laps = 0;
    for lap in 0u64.. {
        if lap > 0 && Instant::now() >= until {
            break;
        }
        laps += 1;
        for (i, (ep, plan)) in logged
            .iter()
            .zip(gen::replay_lap(seed, lap, &logged, n))
            .enumerate()
        {
            env.set_benchmark(&ep.benchmark);
            out.attempted += 1;
            if let Err(e) = env.reset() {
                out.failures
                    .push(format!("replay reset {}: {e}", ep.benchmark));
                continue;
            }
            let mut rewards = Vec::with_capacity(EPISODE_LEN);
            for (k, &a) in plan.actions.iter().enumerate() {
                out.attempted += 1;
                let t = Instant::now();
                let r = env.step(a);
                let dt = us(t.elapsed());
                match r {
                    Ok(s) => rewards.push(s.reward),
                    Err(e) => {
                        out.failures
                            .push(format!("replay step {}: {e}", ep.benchmark));
                        break;
                    }
                }
                if plan.diverge_at.is_some_and(|d| k >= d) {
                    miss_us.push(dt);
                } else {
                    hit_us.push(dt);
                }
            }
            if lap == 0 && i < ORACLE_EPISODES {
                match env.observe("Ir").map(|o| o.as_text().map(str::to_string)) {
                    Ok(Some(ir)) => final_ir.push((ep.benchmark.clone(), ir)),
                    other => out
                        .failures
                        .push(format!("observe Ir {}: {other:?}", ep.benchmark)),
                }
            }
            results.push(Replayed {
                episode: i,
                actions: plan.actions,
                diverge_at: plan.diverge_at,
                rewards,
                final_metric: env.last_metric(),
            });
        }
        if lap == 0 {
            // The first lap is the same on every run with this seed, so
            // its write-through volume is a host-independent count.
            store.flush();
            let s = tel.stdb.snapshot();
            lap0_appends = (
                s.ingest_records - stdb0.ingest_records,
                s.ingest_bytes - stdb0.ingest_bytes,
            );
        }
    }
    drop(env);
    store.flush();
    let dropped = store.dropped_records();
    drop(store);
    for _ in 0..dropped {
        out.failures.push("a WAL record was dropped".into());
    }
    let stdb1 = tel.stdb.snapshot();
    let hits = stdb1.replay_hits - stdb0.replay_hits;
    let misses = stdb1.replay_misses - stdb0.replay_misses;
    out.count("stdb.append_records", lap0_appends.0 as f64);
    out.count("stdb.append_bytes", lap0_appends.1 as f64);
    out.layer("stdb.hit_frac", frac(hits, hits + misses));
    out.layer("stdb.hit_step_us", median(&hit_us));
    out.layer("stdb.miss_step_us", median(&miss_us));
    out.layer("stdb.append_records", lap0_appends.0 as f64);
    out.layer("stdb.append_bytes", lap0_appends.1 as f64);
    out.layer("stdb.dropped_records", dropped as f64);
    out.layer("stdb.open_us", median(&open_us));
    out.notes.push(format!(
        "stdb replay: {laps} laps, {} logged-path steps, {} novel steps, {hits} store hits, \
         {misses} misses; store set-up {:.3} s and open {:.0} us (medians of {})",
        hit_us.len(),
        miss_us.len(),
        median(&setup_s),
        median(&open_us),
        open_us.len()
    ));

    // Checks: every replayed final IR count against the reference (once
    // per distinct action sequence), replayed rewards against the live
    // log up to the divergence, and the oracle on a sample.
    let mut seen = HashSet::new();
    let distinct: Vec<&Replayed> = results
        .iter()
        .filter(|r| seen.insert((r.episode, &r.actions[..])))
        .collect();
    let counts = Mutex::new(HashMap::new());
    out.failures.extend(checks::run_parallel(&distinct, |r| {
        let (_, _, after) = checks::reference(&logged[r.episode].benchmark, &r.actions)?;
        counts
            .lock()
            .map_err(err)?
            .insert((r.episode, &r.actions[..]), after);
        Ok(())
    }));
    let counts = counts.into_inner().map_err(err)?;
    for r in &results {
        let uri = &logged[r.episode].benchmark;
        if let Some(&after) = counts.get(&(r.episode, &r.actions[..])) {
            if after as f64 != r.final_metric {
                out.failures.push(format!(
                    "{uri}: replayed final IR count {} but the reference gives {after}",
                    r.final_metric
                ));
            }
        }
        let on_log = r.diverge_at.unwrap_or(EPISODE_LEN);
        if r.rewards.get(..on_log) != live[r.episode].get(..on_log) {
            out.failures
                .push(format!("{uri}: replayed rewards differ from the live log"));
        }
    }
    out.failures.extend(
        final_ir
            .iter()
            .filter_map(|(uri, ir)| checks::oracle_text(uri, ir).err()),
    );
    out.attempted += (distinct.len() + final_ir.len()) as u64;
    Ok(out)
}
