//! The deterministic N-system conformance campaign.
//!
//! Each sweep index derives its own generator configuration from the
//! campaign seed (via splitmix64), realizes the system at all four
//! levels, and checks every architected observable. Interleaved with the
//! per-system checks:
//!
//! * every 17th index runs a **degenerate shape** (all-floors, maximum
//!   back-pressure, maximum width, IRQ-only) instead of a random draw —
//!   corners are where abstractions crack;
//! * every 13th index also runs an **engine-parity differential** on a
//!   random TGFF process network: the standalone message simulator (one
//!   [`MessageEngine`](codesign_sim::message::MessageEngine) driven to
//!   completion in one horizon) against the same network as an engine
//!   under a lookahead [`Coordinator`] with a seeded quantum — the
//!   split-horizon run the cosim flow reports from. Every report field,
//!   finish time included, must agree exactly: the engine's contract is
//!   that subdividing the horizon changes nothing;
//! * every [`SweepConfig::lockstep_every`]-th index runs a clean
//!   ISS-vs-pin **lockstep** pass, after the deliberate-fault
//!   [`self_test`](crate::lockstep::self_test) has proven the checker
//!   can see faults at all.
//!
//! Work is claimed by an atomic counter and merged back in index order,
//! so the report is **byte-identical at any thread count** — the
//! parallelism is an implementation detail, not an input.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use codesign_ir::workload::sysgen::{
    random_placement_flags, random_system, SysConfig, MAX_IRQ_BYTES,
};
use codesign_ir::workload::tgff::{random_process_network, NetworkConfig};
use codesign_sim::engine::Coordinator;
use codesign_sim::ladder::AbstractionLevel;
use codesign_sim::message::{simulate, MessageConfig, MessageEngine, Placement, Resource};
use codesign_trace::json::{self, Object};

use crate::lockstep::{self, LockstepConfig, LockstepOutcome};
use crate::observables::{check, level_errors, Divergence};
use crate::runner::run_system;
use crate::ConformError;

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Systems to generate and check.
    pub systems: usize,
    /// Campaign seed; per-system seeds derive from it.
    pub seed: u64,
    /// Worker threads (values below 1 are treated as 1). Does not
    /// affect the report's bytes.
    pub threads: usize,
    /// Whether lockstep passes (and the up-front self-test) run.
    pub lockstep: bool,
    /// Run a lockstep pass every this-many systems.
    pub lockstep_every: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            systems: 100,
            seed: 42,
            threads: 1,
            lockstep: true,
            lockstep_every: 29,
        }
    }
}

/// Per-level cycle-error statistics over the whole campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelErrorStat {
    /// The level above pin.
    pub level: AbstractionLevel,
    /// Largest relative error observed.
    pub max: f64,
    /// Mean relative error (0 for an empty campaign).
    pub mean: f64,
}

/// The campaign's complete, thread-count-independent result.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Systems checked.
    pub systems: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Every divergence, in system-index order.
    pub divergences: Vec<Divergence>,
    /// Cycle-error statistics for register, driver, message.
    pub level_errors: [LevelErrorStat; 3],
    /// Payload bytes moved across all systems (pin-level measurement).
    pub total_bytes: u64,
    /// Interrupts taken across all systems (pin-level measurement).
    pub total_irqs: u64,
    /// Messages delivered across all systems (message level).
    pub total_messages: u64,
    /// Degenerate-shape systems among the total.
    pub degenerate_systems: u64,
    /// Engine-parity differentials run.
    pub engine_diffs: u64,
    /// Clean lockstep passes run.
    pub lockstep_runs: u64,
    /// Instructions retired under lockstep comparison.
    pub lockstep_instructions: u64,
}

/// The finalizer of splitmix64 — a cheap, high-quality seed spreader.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator configuration for one sweep index — reproducible from
/// `(campaign seed, index)` alone, which is what makes a reported
/// divergence a one-line repro.
#[must_use]
pub fn sys_config(campaign_seed: u64, index: usize) -> SysConfig {
    let seed = splitmix64(campaign_seed.wrapping_add(index as u64));
    if index % 17 == 16 {
        return degenerate_config(seed, index / 17);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    SysConfig {
        channels: rng.gen_range(1..=4),
        iterations: rng.gen_range(1..=6),
        max_message_words: rng.gen_range(1..=8),
        max_compute: rng.gen_range(0..=300),
        max_fifo_capacity: rng.gen_range(1..=16),
        max_drain_period: rng.gen_range(1..=12),
        extra_devices: rng.gen_range(0..=3),
        max_irq_bytes: rng.gen_range(0..=6),
        seed,
    }
}

/// Whether [`sys_config`] yields a degenerate corner at this index.
#[must_use]
pub fn is_degenerate(index: usize) -> bool {
    index % 17 == 16
}

/// The four degenerate corner shapes, cycled by occurrence.
fn degenerate_config(seed: u64, occurrence: usize) -> SysConfig {
    let floors = SysConfig {
        channels: 1,
        iterations: 1,
        max_message_words: 1,
        max_compute: 0,
        max_fifo_capacity: 1,
        max_drain_period: 1,
        extra_devices: 0,
        max_irq_bytes: 0,
        seed,
    };
    match occurrence % 4 {
        0 => floors,
        // Maximum back-pressure: one-word FIFO, slow drain, fat messages.
        1 => SysConfig {
            max_message_words: 8,
            max_drain_period: 12,
            iterations: 4,
            ..floors
        },
        // Maximum width, minimum depth.
        2 => SysConfig {
            channels: 8,
            ..floors
        },
        // IRQ-saturated: the UART dominates the run.
        _ => SysConfig {
            max_irq_bytes: MAX_IRQ_BYTES,
            iterations: 2,
            ..floors
        },
    }
}

/// True when the system at `cfg` fails conformance — generation or
/// realization errors count as failures. This is the predicate handed
/// to [`shrink`](crate::shrink::shrink).
#[must_use]
pub fn conformance_fails(cfg: &SysConfig) -> bool {
    let Ok(spec) = random_system(cfg) else {
        return true;
    };
    let Ok(run) = run_system(&spec) else {
        return true;
    };
    !check(&spec, &run).is_empty()
}

/// One index's contribution, merged in index order.
#[derive(Debug, Clone)]
struct PerSystem {
    divergences: Vec<Divergence>,
    errs: [(AbstractionLevel, f64); 3],
    bytes: u64,
    irqs: u64,
    messages: u64,
    degenerate: bool,
    engine_diff: bool,
    lockstep_instructions: Option<u64>,
}

fn harness_error(seed: u64, stage: &'static str, e: &ConformError) -> Divergence {
    Divergence {
        seed,
        check: "harness-error",
        detail: format!("{stage}: {e}"),
    }
}

/// Compares the standalone simulator with the same network run under a
/// coordinator at a seeded quantum, on a random process network derived
/// from `seed`.
fn engine_parity(seed: u64, out: &mut Vec<Divergence>) {
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0xE261_0E5F));
    let net_cfg = NetworkConfig {
        processes: rng.gen_range(2..=6),
        channel_prob: 0.4,
        compute: (10, 500),
        bytes: (4, 64),
        iterations: rng.gen_range(1..=8),
        seed: splitmix64(seed),
    };
    let quantum = rng.gen_range(1..=64);
    let net = random_process_network(&net_cfg);
    let flags = random_placement_flags(net.len(), splitmix64(seed ^ 0x9A9A));
    let placement = Placement::from_assignment(
        flags
            .iter()
            .map(|&hw| {
                if hw {
                    Resource::Hardware(0)
                } else {
                    Resource::Software(0)
                }
            })
            .collect(),
    );
    let config = MessageConfig::default();
    let standalone = match simulate(&net, &placement, &config) {
        Ok(r) => r,
        Err(e) => {
            out.push(Divergence {
                seed,
                check: "engine-parity",
                detail: format!("standalone simulator failed: {e}"),
            });
            return;
        }
    };
    let budget = config.budget;
    let engine = match MessageEngine::new("parity", net, placement, config) {
        Ok(e) => e,
        Err(e) => {
            out.push(Divergence {
                seed,
                check: "engine-parity",
                detail: format!("engine construction failed: {e}"),
            });
            return;
        }
    };
    let mut coord = Coordinator::new(quantum);
    coord.add_engine(Box::new(engine));
    if let Err(e) = coord.run(budget) {
        out.push(Divergence {
            seed,
            check: "engine-parity",
            detail: format!("engine failed under quantum {quantum}: {e}"),
        });
        return;
    }
    let coordinated = coord.engines()[0]
        .as_any()
        .downcast_ref::<MessageEngine>()
        .expect("the parity coordinator runs one message engine")
        .report();
    if standalone != *coordinated {
        out.push(Divergence {
            seed,
            check: "engine-parity",
            detail: format!(
                "quantum {quantum}: standalone {standalone:?} vs coordinated {coordinated:?}"
            ),
        });
    }
}

fn check_one(cfg: &SweepConfig, index: usize) -> PerSystem {
    let sys = sys_config(cfg.seed, index);
    let seed = sys.seed;
    let mut per = PerSystem {
        divergences: Vec::new(),
        errs: [
            (AbstractionLevel::Register, 0.0),
            (AbstractionLevel::Driver, 0.0),
            (AbstractionLevel::Message, 0.0),
        ],
        bytes: 0,
        irqs: 0,
        messages: 0,
        degenerate: is_degenerate(index),
        engine_diff: false,
        lockstep_instructions: None,
    };
    match random_system(&sys) {
        Err(e) => per
            .divergences
            .push(harness_error(seed, "generate", &ConformError::Ir(e))),
        Ok(spec) => match run_system(&spec) {
            Err(e) => per.divergences.push(harness_error(seed, "realize", &e)),
            Ok(run) => {
                per.divergences.extend(check(&spec, &run));
                per.errs = level_errors(&run);
                per.bytes = run.pin.per_channel_bytes.iter().sum();
                per.irqs = run.pin.irqs.unwrap_or(0);
                per.messages = run.message.messages.unwrap_or(0);
            }
        },
    }
    if index % 13 == 5 {
        per.engine_diff = true;
        engine_parity(seed, &mut per.divergences);
    }
    if cfg.lockstep && cfg.lockstep_every > 0 && index.is_multiple_of(cfg.lockstep_every) {
        let lk = LockstepConfig {
            seed: splitmix64(seed ^ 0x10C2_57E9),
            instructions: 150,
            enabled: true,
            fault_after: None,
        };
        match lockstep::run_lockstep(&lk) {
            Ok(LockstepOutcome::Agreed { instructions }) => {
                per.lockstep_instructions = Some(instructions);
            }
            Ok(LockstepOutcome::Diverged {
                instruction,
                detail,
            }) => {
                per.lockstep_instructions = Some(instruction);
                per.divergences.push(Divergence {
                    seed,
                    check: "lockstep",
                    detail: format!("diverged at retired instruction {instruction}: {detail}"),
                });
            }
            Err(e) => per.divergences.push(harness_error(seed, "lockstep", &e)),
        }
    }
    per
}

/// Runs the campaign.
///
/// # Errors
///
/// Returns [`ConformError::SelfTest`] if the lockstep self-test cannot
/// see its own injected fault (nothing else is trustworthy then);
/// individual system failures never abort the sweep — they are reported
/// as `harness-error` divergences.
pub fn run_sweep(cfg: &SweepConfig) -> Result<SweepReport, ConformError> {
    if cfg.lockstep {
        lockstep::self_test(true)?;
    }
    let threads = cfg.threads.max(1);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<PerSystem>>> = Mutex::new(vec![None; cfg.systems]);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cfg.systems {
                    break;
                }
                let per = check_one(cfg, i);
                slots.lock().expect("sweep worker panicked")[i] = Some(per);
            });
        }
    });
    let results = slots.into_inner().expect("sweep worker panicked");

    // Index-ordered aggregation: the report's bytes depend only on the
    // campaign inputs, never on thread interleaving.
    let mut report = SweepReport {
        systems: cfg.systems,
        seed: cfg.seed,
        divergences: Vec::new(),
        level_errors: [
            (AbstractionLevel::Register, 0.0, 0.0),
            (AbstractionLevel::Driver, 0.0, 0.0),
            (AbstractionLevel::Message, 0.0, 0.0),
        ]
        .map(|(level, max, mean)| LevelErrorStat { level, max, mean }),
        total_bytes: 0,
        total_irqs: 0,
        total_messages: 0,
        degenerate_systems: 0,
        engine_diffs: 0,
        lockstep_runs: 0,
        lockstep_instructions: 0,
    };
    let mut sums = [0.0f64; 3];
    for per in results.into_iter().flatten() {
        report.divergences.extend(per.divergences);
        for (slot, (level, err)) in report.level_errors.iter_mut().zip(per.errs) {
            debug_assert_eq!(slot.level, level);
            if err > slot.max {
                slot.max = err;
            }
        }
        for (sum, (_, err)) in sums.iter_mut().zip(per.errs) {
            *sum += err;
        }
        report.total_bytes += per.bytes;
        report.total_irqs += per.irqs;
        report.total_messages += per.messages;
        report.degenerate_systems += u64::from(per.degenerate);
        report.engine_diffs += u64::from(per.engine_diff);
        if let Some(instructions) = per.lockstep_instructions {
            report.lockstep_runs += 1;
            report.lockstep_instructions += instructions;
        }
    }
    if cfg.systems > 0 {
        for (slot, sum) in report.level_errors.iter_mut().zip(sums) {
            slot.mean = sum / cfg.systems as f64;
        }
    }
    Ok(report)
}

/// Renders a sweep report as deterministic JSON — the single renderer
/// behind both `codesign conform --json` and the job server's `conform`
/// replies, so a served run is byte-identical to a direct CLI run.
#[must_use]
pub fn report_json(cfg: &SweepConfig, report: &SweepReport) -> String {
    let levels = report.level_errors.iter().map(|stat| {
        Object::inline()
            .str("level", &stat.level.to_string())
            .float("max", stat.max, 6)
            .float("mean", stat.mean, 6)
            .finish()
    });
    let divergences = report.divergences.iter().map(|d| {
        Object::inline()
            .num("seed", d.seed)
            .str("check", d.check)
            .str("detail", &d.detail)
            .finish()
    });
    Object::block()
        .str("tool", "codesign conform")
        .num("systems", report.systems)
        .num("seed", report.seed)
        .num("lockstep", cfg.lockstep)
        .num("degenerate_systems", report.degenerate_systems)
        .num("engine_diffs", report.engine_diffs)
        .num("lockstep_runs", report.lockstep_runs)
        .num("lockstep_instructions", report.lockstep_instructions)
        .num("total_bytes", report.total_bytes)
        .num("total_irqs", report.total_irqs)
        .num("total_messages", report.total_messages)
        .raw("level_errors", &json::block_array(levels))
        .raw("divergences", &json::block_array(divergences))
        .finish()
        + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_deterministic_and_escaped() {
        let cfg = SweepConfig {
            systems: 3,
            seed: 9,
            ..SweepConfig::default()
        };
        let mut report = run_sweep(&SweepConfig {
            lockstep: false,
            ..cfg
        })
        .unwrap();
        report.divergences.push(Divergence {
            seed: 1,
            check: "harness-error",
            detail: "a \"quoted\" \\ detail".into(),
        });
        let a = report_json(&cfg, &report);
        assert_eq!(a, report_json(&cfg, &report));
        assert!(a.contains("\"tool\": \"codesign conform\""));
        assert!(a.contains("\"systems\": 3"));
        assert!(a.contains("a \\\"quoted\\\" \\\\ detail"), "{a}");
    }

    #[test]
    fn sys_config_is_reproducible_and_valid() {
        for i in 0..60 {
            let a = sys_config(42, i);
            assert_eq!(a, sys_config(42, i));
            a.validate().unwrap_or_else(|e| panic!("index {i}: {e}"));
        }
        assert!(is_degenerate(16));
        assert!(!is_degenerate(0));
    }

    #[test]
    fn report_is_identical_across_thread_counts() {
        let base = SweepConfig {
            systems: 40,
            seed: 7,
            threads: 1,
            ..SweepConfig::default()
        };
        let one = run_sweep(&base).unwrap();
        let three = run_sweep(&SweepConfig { threads: 3, ..base }).unwrap();
        assert_eq!(one, three);
    }

    #[test]
    fn campaign_finds_no_divergences() {
        let report = run_sweep(&SweepConfig {
            systems: 60,
            seed: 42,
            threads: 2,
            ..SweepConfig::default()
        })
        .unwrap();
        assert_eq!(
            report.divergences,
            Vec::new(),
            "fix the engines or document a waiver — never ignore a divergence"
        );
        assert!(report.total_bytes > 0);
        assert!(report.lockstep_runs > 0);
        assert!(report.engine_diffs > 0);
        assert!(report.degenerate_systems > 0);
    }
}
