//! Output checks. Each reference is computed without the service stack:
//! a fresh `cg_datasets::benchmark` module with the actions applied
//! through `cg_llvm`'s `ActionSpace`, and the `cg-difftest` interpreter
//! oracle. They run after the timed window.

use std::collections::HashMap;

use cg_ir::Module;
use cg_llvm::action_space::ActionSpace;
use cg_llvm::reward::ir_instruction_count;

/// A fresh module with `actions` applied, and its instruction counts
/// before and after.
pub fn reference(uri: &str, actions: &[usize]) -> Result<(Module, u64, u64), String> {
    let space = ActionSpace::new();
    let mut m = cg_datasets::benchmark(uri).map_err(|e| e.to_string())?;
    let before = ir_instruction_count(&m);
    for &a in actions {
        if a >= space.len() {
            return Err(format!("action {a} out of range"));
        }
        space.apply(&mut m, a);
    }
    let after = ir_instruction_count(&m);
    Ok((m, before, after))
}

/// The `-Oz` instruction count of each program, computed once per URI.
#[derive(Default)]
pub struct OzCounts(HashMap<String, u64>);

impl OzCounts {
    pub fn get(&mut self, uri: &str) -> Result<u64, String> {
        if let Some(&n) = self.0.get(uri) {
            return Ok(n);
        }
        let mut m = cg_datasets::benchmark(uri).map_err(|e| e.to_string())?;
        cg_llvm::pipeline::run_oz(&mut m);
        let n = ir_instruction_count(&m);
        self.0.insert(uri.to_string(), n);
        Ok(n)
    }
}

/// Checks that `optimized` behaves like the unoptimised program under the
/// interpreter oracle.
pub fn oracle(uri: &str, optimized: &Module) -> Result<(), String> {
    let original = cg_datasets::benchmark(uri).map_err(|e| e.to_string())?;
    cg_difftest::oracle::compare_modules(&original, optimized, &Default::default())
        .map(|_| ())
        .map_err(|f| format!("{uri}: oracle divergence: {f}"))
}

/// [`oracle`] on the printed IR an environment returned, parsed back.
pub fn oracle_text(uri: &str, ir: &str) -> Result<(), String> {
    let m = cg_ir::parser::parse_module(ir)
        .map_err(|e| format!("{uri}: printed Ir observation does not parse: {e}"))?;
    oracle(uri, &m).map_err(|e| format!("printed Ir observation: {e}"))
}

/// Runs `check` over `items` on two threads, returning every failure
/// message.
pub fn run_parallel<T: Sync>(
    items: &[T],
    check: impl Fn(&T) -> Result<(), String> + Sync,
) -> Vec<String> {
    let half = items.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(half)
            .map(|chunk| {
                s.spawn(|| {
                    chunk
                        .iter()
                        .filter_map(|i| check(i).err())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec!["check thread panicked".into()])
            })
            .collect()
    })
}
