//! Seeded input generation. Every input a workload hands the program is a
//! pure function of `(seed, stream, index)`, so two runs with one seed feed
//! the program identical inputs no matter which thread or which second of
//! the run consumes them.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Steps per RL episode (the paper's Table II/Fig. 6 episode length).
pub const EPISODE_LEN: usize = 45;

/// The cBench programs of at most 160 IR instructions: small enough that
/// compiler work is a minor share of a step, so the environment stack
/// dominates on `rl-local-warm`.
pub const SMALL_CBENCH: [&str; 15] = [
    "adpcm-c",
    "adpcm-d",
    "bitcount",
    "blowfish-d",
    "blowfish-e",
    "crc32",
    "dijkstra",
    "gsm",
    "patricia",
    "qsort",
    "rijndael-d",
    "rijndael-e",
    "sha",
    "stringsearch",
    "tiff2bw",
];

/// Members of `github-v0`.
const GITHUB_SIZE: u64 = 49_738;

fn mix(x: u64) -> u64 {
    cg_core::retry::splitmix64(x)
}

/// The generator for item `index` of `stream` under `seed`.
pub fn rng(seed: u64, stream: &str, index: u64) -> StdRng {
    let mut h = mix(seed);
    for b in stream.bytes() {
        h = mix(h ^ u64::from(b));
    }
    StdRng::seed_from_u64(mix(h ^ index))
}

/// The URI of a cBench program.
pub fn cbench_uri(name: &str) -> String {
    format!("benchmark://cbench-v1/{name}")
}

/// One RL episode: a program and the actions applied to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Episode {
    pub benchmark: String,
    pub actions: Vec<usize>,
}

fn random_actions(r: &mut StdRng, num_actions: usize) -> Vec<usize> {
    (0..EPISODE_LEN)
        .map(|_| r.gen_range(0..num_actions))
        .collect()
}

/// Episode `index` of a warm workload: a small cBench program drawn with
/// repeats and uniform-random actions.
pub fn warm_episode(seed: u64, stream: &str, index: u64, num_actions: usize) -> Episode {
    let mut r = rng(seed, stream, index);
    let program = SMALL_CBENCH[r.gen_range(0..SMALL_CBENCH.len())];
    Episode {
        benchmark: cbench_uri(program),
        actions: random_actions(&mut r, num_actions),
    }
}

/// `count` distinct `github-v0` programs in seeded order.
pub fn github_programs(seed: u64, count: usize) -> Vec<String> {
    let mut r = rng(seed, "github", 0);
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let i = r.gen_range(0..GITHUB_SIZE);
        if seen.insert(i) {
            out.push(format!("benchmark://github-v0/{i}"));
        }
    }
    out
}

/// Episode `index` of the cold workload: program `index` of `programs`
/// (never repeated) and uniform-random actions.
pub fn cold_episode(seed: u64, programs: &[String], index: u64, num_actions: usize) -> Episode {
    let mut r = rng(seed, "cold", index);
    Episode {
        benchmark: programs[index as usize].clone(),
        actions: random_actions(&mut r, num_actions),
    }
}

fn shuffle<T>(v: &mut [T], r: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, r.gen_range(0..=i));
    }
}

/// Program `index` of the autotuning draw. Each run of 15 consecutive
/// programs visits every small cBench program once, in a seeded order, so
/// every seed tunes the same mix.
pub fn autotune_program(seed: u64, index: u64) -> String {
    let n = SMALL_CBENCH.len() as u64;
    let mut order: Vec<usize> = (0..SMALL_CBENCH.len()).collect();
    shuffle(&mut order, &mut rng(seed, "autotune", index / n));
    cbench_uri(SMALL_CBENCH[order[(index % n) as usize]])
}

/// What one lap replays for one logged episode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    pub actions: Vec<usize>,
    /// The step at which the replay leaves the logged path, if it does.
    pub diverge_at: Option<usize>,
}

/// The replays of lap `lap` over the `logged` episodes. On every lap a
/// seeded quarter of them (rounded up) leave the logged path at a seeded
/// step, with an action the log does not hold there, and continue with
/// fresh random actions; the rest follow the log.
pub fn replay_lap(seed: u64, lap: u64, logged: &[Episode], num_actions: usize) -> Vec<Replay> {
    let mut r = rng(seed, "replay-lap", lap);
    let mut order: Vec<usize> = (0..logged.len()).collect();
    shuffle(&mut order, &mut r);
    let diverging: HashSet<usize> = order[..logged.len().div_ceil(4)].iter().copied().collect();
    logged
        .iter()
        .enumerate()
        .map(|(i, ep)| {
            if !diverging.contains(&i) {
                return Replay {
                    actions: ep.actions.clone(),
                    diverge_at: None,
                };
            }
            let d = r.gen_range(0..EPISODE_LEN);
            let mut actions = ep.actions[..d].to_vec();
            let mut first = r.gen_range(0..num_actions - 1);
            if first >= ep.actions[d] {
                first += 1;
            }
            actions.push(first);
            while actions.len() < EPISODE_LEN {
                actions.push(r.gen_range(0..num_actions));
            }
            Replay {
                actions,
                diverge_at: Some(d),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 124;

    /// Every input stream of every workload under one seed.
    #[derive(Debug, PartialEq)]
    struct Inputs {
        warm: Vec<Episode>,
        programs: Vec<String>,
        cold: Vec<Episode>,
        tuned: Vec<String>,
        replays: Vec<Replay>,
    }

    fn inputs(seed: u64) -> Inputs {
        let programs = github_programs(seed, 40);
        let logged: Vec<Episode> = (0..24)
            .map(|i| warm_episode(seed, "replay", i, N))
            .collect();
        Inputs {
            warm: (0..20).map(|i| warm_episode(seed, "warm", i, N)).collect(),
            cold: (0..20)
                .map(|i| cold_episode(seed, &programs, i, N))
                .collect(),
            programs,
            tuned: (0..30).map(|i| autotune_program(seed, i)).collect(),
            replays: (0..3)
                .flat_map(|lap| replay_lap(seed, lap, &logged, N))
                .collect(),
        }
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(inputs(7), inputs(7));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let (a, b) = (inputs(7), inputs(8));
        assert_ne!(a.warm, b.warm);
        assert_ne!(a.programs, b.programs);
        assert_ne!(a.cold, b.cold);
        assert_ne!(a.tuned, b.tuned);
        assert_ne!(a.replays, b.replays);
    }

    #[test]
    fn cold_programs_never_repeat() {
        let programs = github_programs(3, 2_000);
        let distinct: HashSet<&String> = programs.iter().collect();
        assert_eq!(distinct.len(), programs.len());
    }

    #[test]
    fn every_autotuning_cycle_covers_each_program_once() {
        for cycle in 0..3 {
            let mut seen: Vec<String> = (cycle * 15..cycle * 15 + 15)
                .map(|i| autotune_program(5, i))
                .collect();
            seen.sort();
            let mut all: Vec<String> = SMALL_CBENCH.iter().map(|p| cbench_uri(p)).collect();
            all.sort();
            assert_eq!(seen, all);
        }
    }

    #[test]
    fn a_quarter_of_each_lap_diverges_off_the_log() {
        let logged: Vec<Episode> = (0..24).map(|i| warm_episode(9, "replay", i, N)).collect();
        for lap in 0..5 {
            let replays = replay_lap(9, lap, &logged, N);
            assert_eq!(replays.iter().filter(|r| r.diverge_at.is_some()).count(), 6);
            for (r, ep) in replays.iter().zip(&logged) {
                assert_eq!(r.actions.len(), EPISODE_LEN);
                match r.diverge_at {
                    None => assert_eq!(r.actions, ep.actions),
                    Some(d) => {
                        assert_eq!(r.actions[..d], ep.actions[..d]);
                        assert_ne!(r.actions[d], ep.actions[d]);
                    }
                }
            }
        }
    }
}
