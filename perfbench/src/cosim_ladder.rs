//! `cosim_ladder`: the Figure 3 producer/consumer ladder at all four levels
//! plus the DSP co-processor (a `MessageEngine` and the `dct8` FSMD) under
//! the lookahead `Coordinator`.
//!
//! One operation is one ladder configuration simulated at pin, register,
//! driver and message level, then one DSP co-simulation; a round is
//! [`ITEMS`] operations. Each size parameter takes the same evenly spread
//! values for every seed, combined into operations in an order drawn from
//! the seed, as are the DSP inputs. Work is counted in simulated cycles, so
//! throughput reads as simulated Mcycles per second of host CPU time. Most
//! of the host time goes to `isa`, `rtl` and `sim`.

use std::rc::Rc;
use std::time::Instant;

use codesign::hls::{synthesize, Constraints};
use codesign::ir::process::{ProcessId, ProcessNetwork};
use codesign::ir::workload::kernels;
use codesign::isa::asm::assemble;
use codesign::isa::cpu::Cpu;
use codesign::rtl::bus::{BusTiming, DrainFifo, SystemBus};
use codesign::rtl::fsmd::FsmdSim;
use codesign::sim::adapters::FsmdEngine;
use codesign::sim::engine::{Coordinator, CoordinatorStats};
use codesign::sim::fingerprint::coordinator_fingerprint;
use codesign::sim::ladder::{
    producer_program, run_level, AbstractionLevel, DriverCosts, LadderConfig,
};
use codesign::sim::message::{MessageConfig, MessageEngine, Placement};
use codesign::sim::pinproto::PinPhy;
use codesign::synth::coproc::{characterize, process_network, Application};
use codesign::synth::mthread::placement_for;

use crate::trace::{self, span, SlaveCounters, TimedEngine, TimedPhy, TimedSlave};
use crate::util::{fnv_fold, median, secs, CpuClock, Rng};
use crate::{check_pinned, overhead, untraced_turn, Args, Report, Round, OVERHEAD_ROUNDS, SETUPS};

/// Operations per round.
const ITEMS: usize = 128;
/// Coordinator quantum (the `codesign cosim` default).
const QUANTUM: u64 = 16;
/// Simulated-time budget of one DSP co-simulation.
const DSP_BUDGET: u64 = 50_000_000;

/// The DSP co-processor case of one operation.
struct DspCase {
    net: ProcessNetwork,
    placement: Placement,
    config: MessageConfig,
    fsmd: FsmdSim,
    inputs: Vec<i64>,
    expected: Vec<i64>,
}

struct Item {
    cfg: LadderConfig,
    dsp: DspCase,
}

/// What one operation produced. Everything but the wall times is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ItemResult {
    /// `(simulated cycles, kernel events)` for pin, register, driver, message.
    levels: [(u64, u64); 4],
    dsp_fingerprint: String,
    dsp_stats: CoordinatorStats,
    dsp_message_events: u64,
    dsp_outputs: Vec<i64>,
}

impl ItemResult {
    fn cycles(&self) -> u64 {
        self.levels.iter().map(|l| l.0).sum::<u64>() + self.dsp_stats.time
    }
}

/// `ITEMS` values spread evenly over `lo..=hi`, in an order drawn from
/// the seed. Every seed gets the same values, so every round does about
/// the same amount of simulation and has about the same slowest
/// operation; only which values meet in one operation differs.
fn spread(rng: &mut Rng, lo: u64, hi: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..ITEMS as u64)
        .map(|k| lo + k * (hi - lo + 1) / ITEMS as u64)
        .collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.range(0, i as u64) as usize);
    }
    v
}

/// The round's ladder configurations and DSP network sizes.
fn item_shapes(rng: &mut Rng) -> Vec<(LadderConfig, u32)> {
    let iterations = spread(rng, 24, 40);
    let message_quads = spread(rng, 2, 4);
    let compute_cycles = spread(rng, 300, 700);
    let fifo_capacity = spread(rng, 2, 6);
    let drain_period = spread(rng, 16, 32);
    let dsp_processes = spread(rng, 12, 16);
    (0..ITEMS)
        .map(|k| {
            let cfg = LadderConfig {
                iterations: iterations[k] as u32,
                // 32, 48 or 64 bytes.
                message_bytes: 16 * message_quads[k],
                compute_cycles: compute_cycles[k],
                fifo_capacity: fifo_capacity[k] as usize,
                drain_period: drain_period[k],
            };
            (cfg, dsp_processes[k] as u32)
        })
        .collect()
}

/// Builds the round's operations. Returns them with the assembly time of
/// the producer programs (the ISS levels assemble their own copy per run;
/// this one is the set-up cost a caller of `isa` pays).
fn setup(seed: u64) -> Result<(Vec<Item>, f64), String> {
    let mut rng = Rng::new(seed, "cosim_ladder");
    let app = characterize(&Application::dsp_suite()).map_err(|e| format!("characterize: {e}"))?;
    let synth = synthesize(&kernels::dct8(), &Constraints::default())
        .map_err(|e| format!("synthesize dct8: {e}"))?;
    let fsmd = FsmdSim::new(synth.fsmd).map_err(|e| format!("dct8 FSMD: {e}"))?;
    let mut assemble_s = 0.0;
    let mut items = Vec::with_capacity(ITEMS);
    for (cfg, dsp_processes) in item_shapes(&mut rng) {
        let t0 = CpuClock::now();
        assemble(&producer_program(&cfg)).map_err(|e| format!("assemble: {e}"))?;
        assemble_s += t0.elapsed();

        let (net, speedups) = process_network(&app, dsp_processes, 8);
        let mut by_compute: Vec<usize> = (0..net.len().saturating_sub(1)).collect();
        by_compute.sort_by_key(|&i| {
            std::cmp::Reverse(net.process(ProcessId::from_index(i)).total_compute())
        });
        let hw: Vec<usize> = by_compute.into_iter().take(2).collect();
        let placement = placement_for(&net, &hw);
        let config = MessageConfig {
            hw_speedups: Some(speedups),
            ..MessageConfig::default()
        };
        let inputs: Vec<i64> = (0..8).map(|_| rng.range(0, 255) as i64 - 128).collect();
        let expected = kernels::dct8()
            .evaluate(&inputs)
            .map_err(|e| format!("dct8 reference: {e}"))?;
        let mut fsmd = fsmd.clone();
        fsmd.start(&inputs);
        items.push(Item {
            cfg,
            dsp: DspCase {
                net,
                placement,
                config,
                fsmd,
                inputs,
                expected,
            },
        });
    }
    Ok((items, assemble_s))
}

/// Host seconds spent in each part of one untraced operation.
#[derive(Debug, Default, Clone, Copy)]
struct Walls {
    pin: f64,
    register: f64,
    dsp: f64,
}

fn run_dsp(
    case: &DspCase,
    traced: bool,
    op: u64,
) -> Result<(CoordinatorStats, String, u64, Vec<i64>), String> {
    let msg = MessageEngine::new(
        "dsp-net",
        case.net.clone(),
        case.placement.clone(),
        case.config.clone(),
    )
    .map_err(|e| format!("dsp message engine: {e}"))?;
    let fsmd = FsmdEngine::new("dct8", case.fsmd.clone());
    let mut coord = Coordinator::new(QUANTUM);
    if traced {
        coord.add_engine(Box::new(TimedEngine::new(Box::new(msg), "sim.message")));
        coord.add_engine(Box::new(TimedEngine::new(Box::new(fsmd), "rtl.fsmd")));
    } else {
        coord.add_engine(Box::new(msg));
        coord.add_engine(Box::new(fsmd));
    }
    let stats = span("sim.coordinator", op, || coord.run(DSP_BUDGET))
        .map_err(|e| format!("dsp co-simulation: {e}"))?;
    let fingerprint = coordinator_fingerprint(&coord, stats.time);
    let engines = coord.engines();
    let events = engines[0]
        .as_any()
        .downcast_ref::<MessageEngine>()
        .map_or(0, |m| m.report().events);
    let outputs = engines[1]
        .as_any()
        .downcast_ref::<FsmdEngine>()
        .map_or_else(Vec::new, |f| f.sim().outputs());
    Ok((stats, fingerprint, events, outputs))
}

/// One operation through the program's public entry points, untraced.
fn run_item(item: &Item, walls: &mut Walls) -> Result<ItemResult, String> {
    let mut levels = [(0, 0); 4];
    for (slot, level) in levels.iter_mut().zip(AbstractionLevel::ALL) {
        let t0 = CpuClock::now();
        let r = run_level(level, &item.cfg).map_err(|e| format!("{level} level: {e}"))?;
        let dt = t0.elapsed();
        match level {
            AbstractionLevel::Pin => walls.pin += dt,
            AbstractionLevel::Register => walls.register += dt,
            _ => {}
        }
        *slot = (r.simulated_cycles, r.kernel_events);
    }
    let t0 = CpuClock::now();
    let (dsp_stats, dsp_fingerprint, dsp_message_events, dsp_outputs) =
        run_dsp(&item.dsp, false, 0)?;
    walls.dsp += t0.elapsed();
    Ok(ItemResult {
        levels,
        dsp_fingerprint,
        dsp_stats,
        dsp_message_events,
        dsp_outputs,
    })
}

/// Exact counts the traced ISS levels observe through the decorators.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct IssCounts {
    instructions: u64,
    bus_transactions: u64,
    phy_events: u64,
    count_reads: u64,
    data_writes: u64,
}

/// The pin or register level rebuilt from the public parts `run_level`
/// uses, with the FIFO behind a [`TimedSlave`] and the pin phy behind a
/// [`TimedPhy`]. Returns `(cycles, kernel events)` as `run_level` counts
/// them, plus the per-layer counts.
fn iss_traced(cfg: &LadderConfig, pin: bool, op: u64) -> Result<((u64, u64), IssCounts), String> {
    let counters = Rc::new(SlaveCounters::default());
    let program = span("isa.assemble", op, || assemble(&producer_program(cfg)))
        .map_err(|e| format!("assemble: {e}"))?;
    let mut bus = SystemBus::new(BusTiming::default());
    let fifo = DrainFifo::new(cfg.fifo_capacity, cfg.drain_period);
    bus.map(
        0x0,
        0x100,
        Box::new(TimedSlave::new(Box::new(fifo), Rc::clone(&counters))),
    )
    .map_err(|e| format!("map fifo: {e}"))?;
    if pin {
        let phy = PinPhy::new(&[(0x0, 0x100)]).map_err(|e| format!("pin phy: {e}"))?;
        bus.set_phy(Box::new(TimedPhy::new(Box::new(phy))));
    }
    let mut cpu = Cpu::new(4096);
    cpu.attach_bus(bus);
    cpu.load_program(&program);
    let stats = span("isa.run", op, || cpu.run(1_000_000_000)).map_err(|e| format!("iss: {e}"))?;
    let bus = cpu.bus().ok_or("bus detached")?;
    let fifo = bus
        .device::<DrainFifo>()
        .ok_or("fifo not visible through the decorator")?;
    let cycles = stats.cycles + fifo.cycles_to_drain();
    let bus_stats = bus.stats();
    let events = if pin {
        stats.instructions + bus.phy_events()
    } else {
        stats.instructions + bus_stats.reads + bus_stats.writes
    };
    let counts = IssCounts {
        instructions: stats.instructions,
        bus_transactions: counters.reads.get() + counters.writes.get(),
        phy_events: if pin { bus.phy_events() } else { 0 },
        count_reads: counters.count_reads.get(),
        data_writes: counters.data_writes.get(),
    };
    if counts.bus_transactions != bus_stats.reads + bus_stats.writes {
        return Err(format!(
            "decorator saw {} bus transactions, bus counted {}",
            counts.bus_transactions,
            bus_stats.reads + bus_stats.writes
        ));
    }
    Ok(((cycles, events), counts))
}

/// One operation with every decorator on.
fn run_item_traced(item: &Item, op: u64) -> Result<(ItemResult, IssCounts), String> {
    span("cosim.item", op, || {
        let mut counts = IssCounts::default();
        let mut levels = [(0, 0); 4];
        for (i, pin) in [(0, true), (1, false)] {
            let name = if pin { "ladder.pin" } else { "ladder.register" };
            let (level, c) = span(name, op, || iss_traced(&item.cfg, pin, op))?;
            levels[i] = level;
            counts.instructions += c.instructions;
            counts.bus_transactions += c.bus_transactions;
            counts.phy_events += c.phy_events;
            counts.count_reads += c.count_reads;
            counts.data_writes += c.data_writes;
        }
        for (i, level, name) in [
            (2, AbstractionLevel::Driver, "ladder.driver"),
            (3, AbstractionLevel::Message, "ladder.message"),
        ] {
            let r = span(name, op, || run_level(level, &item.cfg))
                .map_err(|e| format!("{level} level: {e}"))?;
            levels[i] = (r.simulated_cycles, r.kernel_events);
        }
        let (dsp_stats, dsp_fingerprint, dsp_message_events, dsp_outputs) =
            run_dsp(&item.dsp, true, op)?;
        Ok((
            ItemResult {
                levels,
                dsp_fingerprint,
                dsp_stats,
                dsp_message_events,
                dsp_outputs,
            },
            counts,
        ))
    })
}

/// Checks one operation's output against the oracle and the first round.
fn check_item(
    report: &mut Report,
    i: usize,
    item: &Item,
    got: &Result<ItemResult, String>,
    first: Option<&ItemResult>,
) {
    let verdict = match got {
        Err(e) => Err(e.clone()),
        Ok(r) if r.dsp_outputs != item.dsp.expected => Err(format!(
            "dct8 co-processor on {:?} computed {:?}, interpreter says {:?}",
            item.dsp.inputs, r.dsp_outputs, item.dsp.expected
        )),
        Ok(r) if r.levels[2] != driver_level(&item.cfg) => Err(format!(
            "driver level {:?}, closed form {:?}",
            r.levels[2],
            driver_level(&item.cfg)
        )),
        Ok(r) if r.levels.iter().any(|l| l.0 == 0 || l.1 == 0) => {
            Err(format!("a level simulated nothing: {:?}", r.levels))
        }
        Ok(r) if first.is_some_and(|f| f != r) => Err(format!(
            "operation {i} differs from its first run: {r:?} vs {first:?}"
        )),
        Ok(_) => Ok(()),
    };
    report.check(verdict.is_ok(), || {
        format!("cosim_ladder op {i}: {}", verdict.unwrap_err())
    });
}

/// The driver level's `(cycles, events)` from its closed-form cost model:
/// every iteration computes, then pays one driver call; the last message
/// drains after the loop.
fn driver_level(cfg: &LadderConfig) -> (u64, u64) {
    let costs = DriverCosts::default();
    let per_iteration = cfg.compute_cycles + costs.call_overhead + cfg.words() * costs.per_word;
    let cycles = u64::from(cfg.iterations) * per_iteration + cfg.words() * cfg.drain_period;
    (cycles, 2 * u64::from(cfg.iterations))
}

/// The first round's digest: each level's simulated cycles and kernel
/// events, and the DSP run's final fingerprint and outputs. The
/// coordinator's scheduling statistics (sync rounds, skipped rounds,
/// cycles leapt) are left out, so a lookahead change that keeps every
/// simulated result passes; within a run, every round must still repeat
/// them exactly.
fn digest_of(results: &[ItemResult]) -> u64 {
    results.iter().fold(0xcbf2_9ce4_8422_2325, |h, r| {
        let mut h = h;
        for (cycles, events) in r.levels {
            h = fnv_fold(h, &cycles.to_le_bytes());
            h = fnv_fold(h, &events.to_le_bytes());
        }
        h = fnv_fold(h, r.dsp_fingerprint.as_bytes());
        r.dsp_outputs
            .iter()
            .fold(h, |h, out| fnv_fold(h, &out.to_le_bytes()))
    })
}

/// Sets the workload up once more between rounds, timed into `setup_s`;
/// the result is dropped.
fn setup_again(report: &mut Report, seed: u64) {
    let t0 = CpuClock::now();
    let built = setup(seed);
    report.setup_s.push(t0.elapsed());
    if let Err(e) = built {
        report.fail(format!("set-up between rounds: {e}"));
    }
}

/// Runs one untraced round; `None` entries failed.
fn untraced_round(
    report: &mut Report,
    items: &[Item],
    first: Option<&[ItemResult]>,
    walls: &mut Walls,
) -> (Vec<Option<ItemResult>>, Vec<f64>) {
    let mut out = Vec::with_capacity(items.len());
    let mut lat = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let t0 = CpuClock::now();
        let got = run_item(item, walls);
        lat.push(t0.elapsed() * 1e3);
        check_item(report, i, item, &got, first.map(|f| &f[i]));
        out.push(got.ok());
    }
    (out, lat)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report {
        work_unit: "Mcycles",
        clock: "process CPU",
        ..Report::default()
    };
    let mut items = Vec::new();
    let mut assemble_s = 0.0;
    for _ in 0..SETUPS {
        let t0 = CpuClock::now();
        match setup(args.seed) {
            Ok((i, a)) => {
                report.setup_s.push(t0.elapsed());
                items = i;
                assemble_s = a;
            }
            Err(e) => {
                report.fail(format!("set-up: {e}"));
                return report;
            }
        }
    }

    // The first round is the reference every later round must reproduce.
    let (first, _) = untraced_round(&mut report, &items, None, &mut Walls::default());
    let Some(first) = first.into_iter().collect::<Option<Vec<ItemResult>>>() else {
        return report;
    };
    check_pinned(&mut report, "cosim_ladder", args.seed, digest_of(&first));
    if args.gate_only {
        return report;
    }

    if args.trace {
        return traced(args, report, &items, &first, assemble_s);
    }

    let mut walls = Walls::default();
    let mut pin_cycles = 0u64;
    let mut reg_cycles = 0u64;
    let mut dsp_cycles = 0u64;
    let t0 = Instant::now();
    while secs(t0) < args.seconds {
        let tr = CpuClock::now();
        let (results, ops_ms) = untraced_round(&mut report, &items, Some(&first), &mut walls);
        let round_secs = tr.elapsed();
        setup_again(&mut report, args.seed);
        let results: Vec<ItemResult> = results.into_iter().flatten().collect();
        report.rounds.push(Round {
            work: results.iter().map(ItemResult::cycles).sum::<u64>() as f64 / 1e6,
            secs: round_secs,
            ops: ops_ms.into_iter().enumerate().collect(),
        });
        for r in results {
            pin_cycles += r.levels[0].0;
            reg_cycles += r.levels[1].0;
            dsp_cycles += r.dsp_stats.time;
        }
    }
    report.wall_s = secs(t0);
    report.value(
        "pin_mcycles_per_s",
        pin_cycles as f64 / 1e6 / walls.pin,
        "Mcycles/s",
    );
    report.value(
        "register_mcycles_per_s",
        reg_cycles as f64 / 1e6 / walls.register,
        "Mcycles/s",
    );
    report.value(
        "cosim_mcycles_per_s",
        dsp_cycles as f64 / 1e6 / walls.dsp,
        "Mcycles/s",
    );
    report.value(
        "pin_over_register_host_time",
        walls.pin / walls.register,
        "ratio",
    );
    report.value("isa.assemble_us", assemble_s * 1e6, "us");
    report
}

/// Per-round deltas of the span totals a layer metric is built from.
const TRACKED: [&str; 8] = [
    "isa.run",
    "rtl.bus",
    "rtl.phy",
    "rtl.fsmd",
    "sim.message",
    "sim.coordinator",
    "ladder.message",
    "cosim.item",
];

fn traced(
    args: &Args,
    mut report: Report,
    items: &[Item],
    first: &[ItemResult],
    assemble_s: f64,
) -> Report {
    report.value("isa.assemble_us", assemble_s * 1e6, "us");
    let mut walls = Walls::default();
    let mut per_round: Vec<[f64; 8]> = Vec::new();
    let mut self_isa = Vec::new();
    let mut self_coord = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut counts0: Option<IssCounts> = None;
    let t0 = Instant::now();
    let mut round = 0u64;
    while round < OVERHEAD_ROUNDS || secs(t0) < args.seconds {
        let tr = CpuClock::now();
        if untraced_turn(round) {
            untraced_round(&mut report, items, Some(first), &mut walls);
            untraced_s.push(tr.elapsed());
            setup_again(&mut report, args.seed);
            round += 1;
            continue;
        }
        trace::set_enabled(true);
        let before: Vec<_> = TRACKED.iter().map(|n| trace::totals(n)).collect();
        let mut counts = IssCounts::default();
        for (i, item) in items.iter().enumerate() {
            let op = (round << 32) | i as u64;
            let got = run_item_traced(item, op);
            // The traced rebuild must reproduce the untraced round exactly.
            let result = got.as_ref().map(|(r, _)| r.clone()).map_err(Clone::clone);
            check_item(&mut report, i, item, &result, Some(&first[i]));
            if let Ok((_, c)) = got {
                counts.instructions += c.instructions;
                counts.bus_transactions += c.bus_transactions;
                counts.phy_events += c.phy_events;
                counts.count_reads += c.count_reads;
                counts.data_writes += c.data_writes;
            }
        }
        let after: Vec<_> = TRACKED.iter().map(|n| trace::totals(n)).collect();
        trace::set_enabled(false);
        if round < OVERHEAD_ROUNDS {
            traced_s.push(tr.elapsed());
        }
        let mut d = [0.0; 8];
        for k in 0..TRACKED.len() {
            d[k] = (after[k].total_ns - before[k].total_ns) as f64 / 1e9;
        }
        self_isa.push((after[0].self_ns - before[0].self_ns) as f64 / 1e9);
        self_coord.push((after[5].self_ns - before[5].self_ns) as f64 / 1e9);
        per_round.push(d);
        match counts0 {
            None => counts0 = Some(counts),
            Some(c) => report.check(c == counts, || {
                format!("traced round {round} counted {counts:?}, the first traced round {c:?}")
            }),
        }
        setup_again(&mut report, args.seed);
        round += 1;
    }
    let pin_cycles: u64 = first.iter().map(|r| r.levels[0].0).sum();
    let reg_cycles: u64 = first.iter().map(|r| r.levels[1].0).sum();
    let dsp_cycles: u64 = first.iter().map(|r| r.dsp_stats.time).sum();
    let n = untraced_s.len() as f64;
    report.value(
        "ladder.pin_mcycles_per_s",
        n * pin_cycles as f64 / 1e6 / walls.pin,
        "Mcycles/s",
    );
    report.value(
        "ladder.register_mcycles_per_s",
        n * reg_cycles as f64 / 1e6 / walls.register,
        "Mcycles/s",
    );
    report.value(
        "sim.cosim_mcycles_per_s",
        n * dsp_cycles as f64 / 1e6 / walls.dsp,
        "Mcycles/s",
    );

    let counts = counts0.unwrap_or_default();
    let col = |k: usize| median(&per_round.iter().map(|d| d[k]).collect::<Vec<_>>());
    let isa_self = median(&self_isa);
    let coord_self = median(&self_coord);
    let sync_rounds: u64 = first.iter().map(|r| r.dsp_stats.sync_rounds).sum();
    report.value("isa.instructions", counts.instructions as f64, "count");
    report.value("isa.self_s", isa_self, "s");
    report.value(
        "isa.mips",
        counts.instructions as f64 / isa_self / 1e6,
        "Minstr/s",
    );
    report.value(
        "rtl.bus_transactions",
        counts.bus_transactions as f64,
        "count",
    );
    report.value("rtl.phy_events", counts.phy_events as f64, "count");
    report.value("rtl.bus_s", col(1), "s");
    report.value("rtl.phy_s", col(2), "s");
    report.value(
        "rtl.poll_ratio",
        counts.count_reads as f64 / counts.data_writes.max(1) as f64,
        "ratio",
    );
    report.value("rtl.fsmd_s", col(3), "s");
    report.value("sim.sync_rounds", sync_rounds as f64, "count");
    report.value(
        "sim.rounds_skipped",
        first
            .iter()
            .map(|r| r.dsp_stats.rounds_skipped)
            .sum::<u64>() as f64,
        "count",
    );
    report.value(
        "sim.cycles_leapt",
        first.iter().map(|r| r.dsp_stats.cycles_leapt).sum::<u64>() as f64,
        "count",
    );
    report.value("sim.coord_self_s", coord_self, "s");
    report.value(
        "sim.coord_us_per_round",
        coord_self * 1e6 / sync_rounds.max(1) as f64,
        "us",
    );
    report.value(
        "sim.message_events",
        first
            .iter()
            .map(|r| r.levels[3].1 + r.dsp_message_events)
            .sum::<u64>() as f64,
        "count",
    );
    report.value("sim.message_s", col(4) + col(6), "s");
    overhead(&mut report, &untraced_s, &traced_s, per_round.len());
    report
}
