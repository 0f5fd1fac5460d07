//! The autotuning phase of `rl-remote-cold --trace 1`:
//! `cg_autotune::genetic_algorithm` over a `PoolPassSequenceProblem` on a
//! two-worker `EnvPool` whose workers share one `EvalCache`, with a fixed
//! evaluation budget per program. It reports the pool, evalcache and
//! autotune layer metrics and runs the autotuning checks.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cg_autotune::{genetic_algorithm, PoolPassSequenceProblem, SearchProblem};
use cg_core::{ActionSeq, CompilerEnv, EnvFactory, EnvPool, EvalCache};
use rand::rngs::StdRng;

use crate::checks;
use crate::gen;
use crate::outcome::{us, Outcome};
use crate::stats::{frac, geomean, median};

const WORKERS: usize = 2;
const LENGTH: usize = 16;
const BUDGET: u64 = 96;
const POPULATION: usize = 16;
/// Programs whose counts are reported: one cycle through the programs. A
/// run always completes them, even past its deadline.
const COUNT_PROGRAMS: usize = 15;
/// Programs whose best module also goes through the oracle.
const ORACLE_PROGRAMS: usize = 2;
/// Exact entries and prefix snapshots the cache holds before it starts
/// over. Each snapshot holds a printed module; the default capacity lets a
/// run grow to hundreds of MiB, which a shared host cannot spare.
const CACHE_CAPACITY: usize = 4096;
const TIMEOUT: Duration = Duration::from_secs(120);

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The pool-backed problem with each evaluation batch timed from outside.
struct Timed {
    inner: PoolPassSequenceProblem,
    /// Wall time of each `evaluate_many` call.
    batches: Vec<Duration>,
    /// Every evaluated point, for the lookup probe.
    points: Vec<Vec<usize>>,
}

impl SearchProblem for Timed {
    type Point = Vec<usize>;

    fn random_point(&mut self, rng: &mut StdRng) -> Vec<usize> {
        self.inner.random_point(rng)
    }

    fn mutate(&mut self, p: &Vec<usize>, rng: &mut StdRng) -> Vec<usize> {
        self.inner.mutate(p, rng)
    }

    fn crossover(&mut self, a: &Vec<usize>, b: &Vec<usize>, rng: &mut StdRng) -> Vec<usize> {
        self.inner.crossover(a, b, rng)
    }

    fn evaluate(&mut self, p: &Vec<usize>) -> f64 {
        self.evaluate_many(std::slice::from_ref(p))[0]
    }

    fn evaluate_many(&mut self, points: &[Vec<usize>]) -> Vec<f64> {
        let t = Instant::now();
        let scores = self.inner.evaluate_many(points);
        self.batches.push(t.elapsed());
        self.points.extend_from_slice(points);
        scores
    }

    fn preferred_batch(&mut self) -> usize {
        self.inner.preferred_batch()
    }
}

struct Setup {
    pool: Arc<EnvPool>,
    /// Measures each program's `-Oz` baseline at the program's start.
    baseline: CompilerEnv,
}

fn setup() -> Result<Setup, String> {
    cg_core::envs::llvm::clear_benchmark_cache();
    let pool = new_pool()?;
    let mut baseline = cg_core::make("llvm-v0").map_err(err)?;
    baseline.set_reward_space("IrInstructionCountOz");
    Ok(Setup { pool, baseline })
}

/// A pool of `WORKERS` environments sharing a fresh cache, every worker's
/// environment built.
fn new_pool() -> Result<Arc<EnvPool>, String> {
    let factory: EnvFactory = Arc::new(|_| {
        CompilerEnv::with_factory(
            "llvm-v0",
            cg_core::envs::session_factory("llvm-v0").map_err(cg_core::CgError::Unknown)?,
            "benchmark://cbench-v1/qsort",
            "Autophase",
            "IrInstructionCount",
            TIMEOUT,
        )
    });
    let cache = EvalCache::new(CACHE_CAPACITY);
    let pool = Arc::new(EnvPool::with_cache(WORKERS, factory, Arc::new(cache)));
    // One single-action job per worker builds every worker's environment.
    // Searches use longer sequences, so these entries are never reused.
    let warm = (0..WORKERS)
        .map(|_| ActionSeq {
            benchmark: "benchmark://cbench-v1/qsort".into(),
            actions: vec![0],
        })
        .collect();
    for o in pool.evaluate_batch(warm) {
        if let Some(e) = o.error {
            return Err(format!("pool warm-up: {e}"));
        }
    }
    Ok(pool)
}

/// Searches the count window's programs again on a fresh pool, one
/// candidate at a time, and returns the pass applications the pool
/// executed. When two workers evaluate a batch together, whether a job
/// finds a sibling's prefix snapshot depends on timing; one at a time, the
/// cache's work repeats exactly. The genetic algorithm's result does not
/// depend on the batch size, so every search must also find the timed
/// run's best score.
fn count_pass(
    seed: u64,
    n: usize,
    searched: &[Searched],
    out: &mut Outcome,
) -> Result<u64, String> {
    let pool = new_pool()?;
    let tel = cg_telemetry::global();
    let before = tel.pool.snapshot();
    for s in searched
        .iter()
        .filter(|s| (s.index as usize) < COUNT_PROGRAMS)
    {
        let mut problem =
            PoolPassSequenceProblem::new(Arc::clone(&pool), &s.uri, LENGTH, n).with_batch(1);
        let result = genetic_algorithm(
            &mut problem,
            BUDGET,
            POPULATION,
            &mut gen::rng(seed, "ga", s.index),
        );
        out.attempted += 1;
        if result.score != s.score {
            out.failures.push(format!(
                "{}: one-at-a-time search found {} but the batched search {}",
                s.uri, result.score, s.score
            ));
        }
    }
    let after = tel.pool.snapshot();
    let executed = after.actions_executed - before.actions_executed;
    out.count("pool.actions_executed", executed as f64);
    out.count(
        "evalcache.exact_hits",
        (after.cache_hits - before.cache_hits) as f64,
    );
    out.count(
        "evalcache.prefix_hits",
        (after.prefix_hits - before.prefix_hits) as f64,
    );
    Ok(executed)
}

struct Searched {
    /// Position in the seeded program draw.
    index: u64,
    uri: String,
    best: Vec<usize>,
    score: f64,
    oz: f64,
}

/// Runs the phase for `seconds`; it always completes the count window.
pub fn search(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let Setup { pool, mut baseline } = setup()?;
    let n = baseline.action_space().len();
    let tel = cg_telemetry::global();
    let pool0 = tel.pool.snapshot();
    let mut searched = Vec::new();
    let mut batch_us = Vec::new();
    let mut propose_us = Vec::new();
    let mut points = Vec::new();
    let mut evaluations = 0;
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(seconds);
    for k in 0u64.. {
        if k as usize >= COUNT_PROGRAMS && Instant::now() >= until {
            break;
        }
        let uri = gen::autotune_program(seed, k);
        baseline.set_benchmark(&uri);
        out.attempted += 1;
        if let Err(e) = baseline.reset() {
            out.failures.push(format!("baseline reset {uri}: {e}"));
            continue;
        }
        let oz = match baseline
            .observe("IrInstructionCountOz")
            .map(|o| o.as_scalar())
        {
            Ok(Some(x)) => x,
            other => {
                out.failures
                    .push(format!("baseline observe {uri}: {other:?}"));
                continue;
            }
        };
        let mut problem = Timed {
            inner: PoolPassSequenceProblem::new(Arc::clone(&pool), &uri, LENGTH, n),
            batches: Vec::new(),
            points: Vec::new(),
        };
        let mut rng = gen::rng(seed, "ga", k);
        let t = Instant::now();
        let result = genetic_algorithm(&mut problem, BUDGET, POPULATION, &mut rng);
        let wall = t.elapsed();
        let batched: Duration = problem.batches.iter().sum();
        out.attempted += result.evaluations;
        evaluations += result.evaluations;
        batch_us.extend(problem.batches.iter().map(|&d| us(d)));
        propose_us.push(us(wall.saturating_sub(batched)) / problem.batches.len().max(1) as f64);
        points.extend(problem.points.into_iter().map(|p| (uri.clone(), p)));
        if !result.score.is_finite() {
            out.failures
                .push(format!("{uri}: search found no valid sequence"));
            continue;
        }
        searched.push(Searched {
            index: k,
            uri,
            best: result.best,
            score: result.score,
            oz,
        });
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let pool1 = tel.pool.snapshot();
    let errors = pool1.job_errors - pool0.job_errors + pool1.job_panics - pool0.job_panics;
    for _ in 0..errors {
        out.failures.push("pool evaluation failed".into());
    }
    let executed = pool1.actions_executed - pool0.actions_executed;
    let hits = pool1.cache_hits - pool0.cache_hits;
    let misses = pool1.cache_misses - pool0.cache_misses;
    let prefix = pool1.prefix_hits - pool0.prefix_hits;
    let saved = pool1.actions_saved - pool0.actions_saved;
    let counted = count_pass(seed, n, &searched, &mut out)?;
    out.layer("autotune.evals_per_s", evaluations as f64 / elapsed.max(1e-9));
    out.layer("pool.batch_us", median(&batch_us));
    out.layer("pool.actions_executed", counted as f64);
    out.layer("pool.actions_saved_frac", frac(saved, saved + executed));
    out.layer("evalcache.exact_hit_frac", frac(hits, hits + misses));
    out.layer("evalcache.prefix_hit_frac", frac(prefix, misses));
    out.layer("autotune.propose_us", median(&propose_us));
    let cache = pool.cache();
    let mut lookup_us = Vec::with_capacity(points.len());
    for (uri, p) in &points {
        let t = Instant::now();
        std::hint::black_box(cache.lookup(uri, p));
        lookup_us.push(us(t.elapsed()));
    }
    out.layer("evalcache.lookup_us", median(&lookup_us));
    out.notes.push(format!(
        "autotune phase: {evaluations} evaluations of {} programs in {elapsed:.1} s; \
         evalcache.lookup_us over {} looked-up sequences",
        searched.len(),
        lookup_us.len()
    ));
    drop(baseline);
    drop(pool);

    // Re-evaluate each program's best sequence without any cache or
    // service, and check the -Oz baseline the environment reported.
    let mut oz_ref = checks::OzCounts::default();
    for s in &searched {
        match oz_ref.get(&s.uri) {
            Ok(n) if n as f64 == s.oz => {}
            Ok(n) => out.failures.push(format!(
                "{}: -Oz baseline {} but the reference gives {n}",
                s.uri, s.oz
            )),
            Err(e) => out.failures.push(e),
        }
    }
    let oracle_from = searched.len().min(ORACLE_PROGRAMS);
    let failures = checks::run_parallel(
        &searched.iter().enumerate().collect::<Vec<_>>(),
        |(i, s)| {
            let (m, before, after) = checks::reference(&s.uri, &s.best)?;
            let score = before as f64 - after as f64;
            if score != s.score {
                return Err(format!(
                    "{}: cached best score {} but uncached re-evaluation gives {score}",
                    s.uri, s.score
                ));
            }
            if *i < oracle_from {
                checks::oracle(&s.uri, &m)?;
            }
            Ok(())
        },
    );
    out.attempted += searched.len() as u64;
    out.failures.extend(failures);
    let mut codesize = Vec::new();
    for s in searched.iter().take(COUNT_PROGRAMS) {
        match cg_datasets::benchmark(&s.uri) {
            Ok(m) => {
                let best = cg_llvm::reward::ir_instruction_count(&m) as f64 - s.score;
                codesize.push(s.oz / best.max(1.0));
            }
            Err(e) => out.failures.push(e.to_string()),
        }
    }
    // Over the count window, which every run with this seed completes.
    out.count("autotune.codesize_vs_oz", geomean(&codesize));
    Ok(out)
}
