//! Multi-threaded co-processor co-synthesis (paper Section 4.5.1,
//! Figure 9).
//!
//! "A slight generalization of the custom co-processor arrangement is one
//! in which the custom co-processor … comprise\[s\] more than one
//! controller and datapath and, consequently, is able to implement
//! concurrent threads of control." Partitioning such systems, after
//! Adams & Thomas's multiple-process behavioral synthesis \[10\],
//! "considers minimizing the communication between the hardware and
//! software components and maximizing the concurrency between them".
//!
//! Here the specification is a `codesign-ir` process network. Software
//! processes share the CPU; each hardware process gets its own
//! controller/datapath pair. Candidate placements are evaluated by
//! message-level co-simulation \[3\], which naturally charges cross
//! -boundary messages and rewards concurrency — so the [`comm_aware`]
//! search optimizes exactly what the paper says matters, and the
//! [`compute_only`] search (which ranks processes by raw compute, the
//! naive strategy) is its E9 ablation.

use codesign_hls::{synthesize, Constraints};
use codesign_ir::process::{ProcessId, ProcessNetwork};
use codesign_ir::workload::kernels;
use codesign_isa::codegen::compile;
use codesign_sim::message::{simulate, MessageConfig, MessageReport, Placement, Resource};
use codesign_trace::{Arg, Tracer};

use crate::error::SynthError;

/// Configuration for multi-threaded co-processor partitioning.
#[derive(Debug, Clone)]
pub struct MthreadConfig {
    /// Maximum hardware processes (controller/datapath pairs the area
    /// budget affords).
    pub max_hw_processes: usize,
    /// Co-simulation parameters (communication model, hardware speedup,
    /// context switch).
    pub sim: MessageConfig,
}

impl Default for MthreadConfig {
    fn default() -> Self {
        MthreadConfig {
            max_hw_processes: 2,
            sim: MessageConfig::default(),
        }
    }
}

/// A chosen placement and its simulated behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct MthreadOutcome {
    /// The process placement.
    pub placement: Placement,
    /// Message-level co-simulation report.
    pub report: MessageReport,
    /// Indices of the hardware processes.
    pub hw_processes: Vec<usize>,
}

/// Builds the placement implied by a hardware process set: each listed
/// process gets its own controller/datapath pair, everything else shares
/// software processor 0. Public so callers that evaluate placements
/// outside the greedy search (e.g. the co-simulation benchmarks mounting
/// a network under a `Coordinator`) build them identically.
#[must_use]
pub fn placement_for(net: &ProcessNetwork, hw: &[usize]) -> Placement {
    let mut next_hw = 0u32;
    let assignment = (0..net.len())
        .map(|i| {
            if hw.contains(&i) {
                let r = Resource::Hardware(next_hw);
                next_hw += 1;
                r
            } else {
                Resource::Software(0)
            }
        })
        .collect();
    Placement::from_assignment(assignment)
}

/// Greedy communication/concurrency-aware partitioning: starting
/// all-software, repeatedly apply the single- or pair-move that most
/// reduces the *simulated* finish time (which accounts for boundary
/// traffic and overlap), until the hardware budget is filled or no move
/// helps. The pair lookahead matters for chatty process pairs: moving
/// one alone drags their channel across the boundary, so only a joint
/// move reveals the gain — exactly the communication-localizing behavior
/// the paper attributes to \[10\].
///
/// # Errors
///
/// Propagates co-simulation failures.
pub fn comm_aware(net: &ProcessNetwork, cfg: &MthreadConfig) -> Result<MthreadOutcome, SynthError> {
    comm_aware_traced(net, cfg, &Tracer::off())
}

/// [`comm_aware`] with a [`Tracer`]: every candidate placement the greedy
/// search evaluates becomes an instant event on the `mthread-search`
/// track (timestamped by evaluation index, with the tried move and its
/// simulated finish time as arguments), and each accepted move an
/// instant named `accept`. The winning placement's own message-level
/// trace is left to whoever runs it next (the cosim flow simulates it
/// once, traced, under the coordinator). Tracing is observational only;
/// the search result is identical either way.
///
/// # Errors
///
/// As for [`comm_aware`].
pub fn comm_aware_traced(
    net: &ProcessNetwork,
    cfg: &MthreadConfig,
    tracer: &Tracer,
) -> Result<MthreadOutcome, SynthError> {
    let n = net.len();
    let budget = cfg.max_hw_processes.min(n);
    let track = tracer.track("mthread-search");
    let evals = std::cell::Cell::new(0u64);
    let mut hw: Vec<usize> = Vec::new();
    let mut best = simulate(net, &placement_for(net, &hw), &cfg.sim)?;
    loop {
        let mut improvement: Option<(Vec<usize>, MessageReport)> = None;
        let consider = |added: Vec<usize>,
                        improvement: &mut Option<(Vec<usize>, MessageReport)>|
         -> Result<(), SynthError> {
            let mut candidate = hw.clone();
            candidate.extend(&added);
            let report = simulate(net, &placement_for(net, &candidate), &cfg.sim)?;
            if tracer.is_on() {
                tracer.instant(
                    track,
                    "candidate",
                    evals.get(),
                    &[
                        ("moved", Arg::from(format!("{added:?}"))),
                        ("finish_time", Arg::from(report.finish_time)),
                        ("cross_bytes", Arg::from(report.cross_boundary_bytes)),
                    ],
                );
            }
            evals.set(evals.get() + 1);
            // Prefer the smaller move on equal finish times.
            let better = report.finish_time < best.finish_time
                && improvement.as_ref().is_none_or(|(moved, r)| {
                    report.finish_time < r.finish_time
                        || (report.finish_time == r.finish_time && added.len() < moved.len())
                });
            if better {
                *improvement = Some((added, report));
            }
            Ok(())
        };
        if hw.len() < budget {
            for p in 0..n {
                if !hw.contains(&p) {
                    consider(vec![p], &mut improvement)?;
                }
            }
        }
        if hw.len() + 2 <= budget {
            for p in 0..n {
                for q in p + 1..n {
                    if !hw.contains(&p) && !hw.contains(&q) {
                        consider(vec![p, q], &mut improvement)?;
                    }
                }
            }
        }
        match improvement {
            Some((added, report)) => {
                if tracer.is_on() {
                    tracer.instant(
                        track,
                        "accept",
                        evals.get(),
                        &[
                            ("moved", Arg::from(format!("{added:?}"))),
                            ("finish_time", Arg::from(report.finish_time)),
                        ],
                    );
                }
                hw.extend(added);
                best = report;
            }
            None => break,
        }
    }
    Ok(MthreadOutcome {
        placement: placement_for(net, &hw),
        report: best,
        hw_processes: hw,
    })
}

/// Calibrates per-process hardware speedups from each process's kernel:
/// the kernel is compiled and *measured* on the instruction-set
/// simulator (software side) and synthesized by behavioral synthesis
/// (hardware side); the speedup is their ratio. Processes without a
/// kernel keep the configured default — this is the multiple-process
/// behavioral synthesis discipline of \[10\], where each hardware thread
/// of control is a synthesized controller/datapath pair, not an assumed
/// constant. Also returns the per-process standalone hardware area (0
/// for kernel-less processes), which *adds* across a multi-threaded
/// co-processor's concurrent pairs.
///
/// # Errors
///
/// Propagates compilation, execution, and synthesis failures.
pub fn calibrate(
    net: &ProcessNetwork,
    default_speedup: f64,
) -> Result<(Vec<f64>, Vec<f64>), SynthError> {
    let mut speedups = Vec::with_capacity(net.len());
    let mut areas = Vec::with_capacity(net.len());
    for (_, process) in net.iter() {
        match process.kernel().and_then(kernels::by_name) {
            Some(kernel) => {
                let compiled = compile(&kernel)?;
                let inputs: Vec<i64> = (0..kernel.input_count())
                    .map(|i| i as i64 % 13 - 6)
                    .collect();
                let (_, stats) = compiled.execute(&inputs)?;
                let hw = synthesize(&kernel, &Constraints::default())?;
                speedups.push((stats.cycles as f64 / hw.latency.max(1) as f64).max(1.0));
                areas.push(hw.area);
            }
            None => {
                speedups.push(default_speedup);
                areas.push(0.0);
            }
        }
    }
    Ok((speedups, areas))
}

/// [`comm_aware`] with calibrated speedups: runs [`calibrate`] first and
/// feeds the measured per-process speedups into the co-simulation, then
/// reports the placement together with the hardware area its
/// controller/datapath pairs occupy (areas add — concurrent pairs cannot
/// share functional units).
///
/// # Errors
///
/// Propagates calibration and co-simulation failures.
pub fn comm_aware_calibrated(
    net: &ProcessNetwork,
    cfg: &MthreadConfig,
) -> Result<(MthreadOutcome, f64), SynthError> {
    let (speedups, areas) = calibrate(net, cfg.sim.hw_speedup)?;
    let mut calibrated = cfg.clone();
    calibrated.sim.hw_speedups = Some(speedups);
    let outcome = comm_aware(net, &calibrated)?;
    let hw_area: f64 = outcome.hw_processes.iter().map(|&p| areas[p]).sum();
    Ok((outcome, hw_area))
}

/// The naive strategy: fill the hardware budget with the processes that
/// have the most raw compute, ignoring communication and concurrency —
/// the ablation arm of experiment E9.
///
/// # Errors
///
/// Propagates co-simulation failures.
pub fn compute_only(
    net: &ProcessNetwork,
    cfg: &MthreadConfig,
) -> Result<MthreadOutcome, SynthError> {
    let mut by_compute: Vec<usize> = (0..net.len()).collect();
    by_compute
        .sort_by_key(|&i| std::cmp::Reverse(net.process(ProcessId::from_index(i)).total_compute()));
    let hw: Vec<usize> = by_compute
        .into_iter()
        .take(cfg.max_hw_processes.min(net.len()))
        .collect();
    let placement = placement_for(net, &hw);
    let report = simulate(net, &placement, &cfg.sim)?;
    Ok(MthreadOutcome {
        placement,
        report,
        hw_processes: hw,
    })
}

/// Exhaustive search over every subset within the hardware budget —
/// the reference optimum for small networks.
///
/// # Errors
///
/// Propagates co-simulation failures; returns
/// [`SynthError::Infeasible`] for empty networks.
pub fn exhaustive(net: &ProcessNetwork, cfg: &MthreadConfig) -> Result<MthreadOutcome, SynthError> {
    let n = net.len();
    if n == 0 {
        return Err(SynthError::Infeasible {
            reason: "empty process network".to_string(),
        });
    }
    let mut best: Option<MthreadOutcome> = None;
    for mask in 0u64..(1 << n) {
        let hw: Vec<usize> = (0..n).filter(|i| mask >> i & 1 == 1).collect();
        if hw.len() > cfg.max_hw_processes {
            continue;
        }
        let placement = placement_for(net, &hw);
        let report = simulate(net, &placement, &cfg.sim)?;
        if best
            .as_ref()
            .is_none_or(|b| report.finish_time < b.report.finish_time)
        {
            best = Some(MthreadOutcome {
                placement,
                report,
                hw_processes: hw,
            });
        }
    }
    Ok(best.expect("at least the empty subset was evaluated"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_ir::process::{Action, Process};
    use codesign_ir::workload::tgff::{random_process_network, NetworkConfig};

    fn pipeline() -> ProcessNetwork {
        // Four stages: two heavy compute stages chatting over a heavy
        // channel, and two light ones.
        let mut net = ProcessNetwork::new("pipe");
        let c01 = net.add_channel("c01", 0);
        let c12 = net.add_channel("c12", 0);
        let c23 = net.add_channel("c23", 0);
        net.add_process(
            Process::new(
                "src",
                vec![
                    Action::Compute(200),
                    Action::Send {
                        channel: c01,
                        bytes: 16,
                    },
                ],
            )
            .with_iterations(16),
        );
        net.add_process(
            Process::new(
                "heavy_a",
                vec![
                    Action::Receive { channel: c01 },
                    Action::Compute(5_000),
                    Action::Send {
                        channel: c12,
                        bytes: 2_048,
                    },
                ],
            )
            .with_iterations(16),
        );
        net.add_process(
            Process::new(
                "heavy_b",
                vec![
                    Action::Receive { channel: c12 },
                    Action::Compute(5_000),
                    Action::Send {
                        channel: c23,
                        bytes: 16,
                    },
                ],
            )
            .with_iterations(16),
        );
        net.add_process(
            Process::new(
                "sink",
                vec![Action::Receive { channel: c23 }, Action::Compute(100)],
            )
            .with_iterations(16),
        );
        net
    }

    #[test]
    fn comm_aware_beats_all_software() {
        let net = pipeline();
        let cfg = MthreadConfig::default();
        let all_sw = simulate(&net, &Placement::all_software(net.len()), &cfg.sim).unwrap();
        let outcome = comm_aware(&net, &cfg).unwrap();
        assert!(
            outcome.report.finish_time < all_sw.finish_time,
            "{} vs {}",
            outcome.report.finish_time,
            all_sw.finish_time
        );
        assert!(!outcome.hw_processes.is_empty());
    }

    #[test]
    fn comm_aware_never_loses_to_compute_only() {
        for seed in [1, 2, 3, 4] {
            let net = random_process_network(&NetworkConfig {
                processes: 6,
                seed,
                ..NetworkConfig::default()
            });
            let cfg = MthreadConfig::default();
            let aware = comm_aware(&net, &cfg).unwrap();
            let naive = compute_only(&net, &cfg).unwrap();
            assert!(
                aware.report.finish_time <= naive.report.finish_time,
                "seed {seed}: aware {} vs naive {}",
                aware.report.finish_time,
                naive.report.finish_time
            );
        }
    }

    #[test]
    fn comm_aware_moves_chatty_pair_together() {
        let net = pipeline();
        let cfg = MthreadConfig {
            max_hw_processes: 2,
            ..MthreadConfig::default()
        };
        let outcome = comm_aware(&net, &cfg).unwrap();
        // The two heavy, heavily-communicating stages are the right pair:
        // hardware gets both, so the 2 KiB channel stays local.
        assert!(
            outcome.hw_processes.contains(&1) && outcome.hw_processes.contains(&2),
            "hw set {:?}",
            outcome.hw_processes
        );
    }

    #[test]
    fn exhaustive_is_the_reference_optimum() {
        let net = pipeline();
        let cfg = MthreadConfig::default();
        let optimum = exhaustive(&net, &cfg).unwrap();
        let aware = comm_aware(&net, &cfg).unwrap();
        let naive = compute_only(&net, &cfg).unwrap();
        assert!(optimum.report.finish_time <= aware.report.finish_time);
        assert!(optimum.report.finish_time <= naive.report.finish_time);
    }

    #[test]
    fn traced_search_matches_untraced() {
        let net = pipeline();
        let cfg = MthreadConfig::default();
        let plain = comm_aware(&net, &cfg).unwrap();
        let tracer = Tracer::on();
        let traced = comm_aware_traced(&net, &cfg, &tracer).unwrap();
        assert_eq!(plain, traced);
        assert!(tracer.event_count() > 0);
        codesign_trace::validate_chrome_trace(&tracer.to_chrome_json()).unwrap();
    }

    #[test]
    fn budget_of_zero_keeps_everything_in_software() {
        let net = pipeline();
        let cfg = MthreadConfig {
            max_hw_processes: 0,
            ..MthreadConfig::default()
        };
        let outcome = comm_aware(&net, &cfg).unwrap();
        assert!(outcome.hw_processes.is_empty());
    }

    #[test]
    fn more_hw_budget_never_hurts() {
        let net = pipeline();
        let mut prev = u64::MAX;
        for budget in [0usize, 1, 2, 4] {
            let cfg = MthreadConfig {
                max_hw_processes: budget,
                ..MthreadConfig::default()
            };
            let outcome = comm_aware(&net, &cfg).unwrap();
            assert!(
                outcome.report.finish_time <= prev,
                "budget {budget}: {} > {prev}",
                outcome.report.finish_time
            );
            prev = outcome.report.finish_time;
        }
    }

    #[test]
    fn calibration_measures_kernel_backed_processes() {
        let mut net = ProcessNetwork::new("kcal");
        let ch = net.add_channel("c", 0);
        net.add_process(
            Process::new(
                "filter",
                vec![
                    Action::Compute(5_000),
                    Action::Send {
                        channel: ch,
                        bytes: 64,
                    },
                ],
            )
            .with_iterations(8)
            .with_kernel("dct8"),
        );
        net.add_process(
            Process::new(
                "plain",
                vec![Action::Receive { channel: ch }, Action::Compute(5_000)],
            )
            .with_iterations(8),
        );
        let (speedups, areas) = calibrate(&net, 8.0).unwrap();
        assert!(speedups[0] > 1.0, "dct8 measured: {}", speedups[0]);
        assert_ne!(speedups[0], 8.0, "calibrated, not defaulted");
        assert_eq!(speedups[1], 8.0, "kernel-less keeps the default");
        assert!(areas[0] > 0.0);
        assert_eq!(areas[1], 0.0);
    }

    #[test]
    fn calibrated_flow_reports_area_and_improves_on_software() {
        let mut net = ProcessNetwork::new("kflow");
        let ch = net.add_channel("c", 0);
        net.add_process(
            Process::new(
                "heavy",
                vec![
                    Action::Compute(20_000),
                    Action::Send {
                        channel: ch,
                        bytes: 64,
                    },
                ],
            )
            .with_iterations(8)
            .with_kernel("fir"),
        );
        net.add_process(
            Process::new(
                "light",
                vec![Action::Receive { channel: ch }, Action::Compute(500)],
            )
            .with_iterations(8),
        );
        let cfg = MthreadConfig::default();
        let (outcome, hw_area) = comm_aware_calibrated(&net, &cfg).unwrap();
        let all_sw = simulate(&net, &Placement::all_software(2), &cfg.sim).unwrap();
        assert!(outcome.report.finish_time < all_sw.finish_time);
        assert!(
            outcome.hw_processes.contains(&0),
            "the kernel process moves"
        );
        assert!(hw_area > 0.0, "hardware pairs have real synthesized area");
    }
}
