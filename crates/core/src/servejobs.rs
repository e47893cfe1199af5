//! One code path per job kind, shared by `codesign` and `codesign serve`.
//!
//! Each job kind — partition, explore, cosim, faults, conform — has one
//! resolver here that reads its parameters through [`Params`] and
//! applies their bounds. A served [`Request`] and the CLI's argv both
//! implement [`Params`], so a value one front end refuses the other
//! refuses too. The job then runs one flow and renders through one
//! renderer, so a served result is **byte-identical** to the matching
//! CLI invocation. Each front end keeps only its own defaults (a served
//! conform sweep checks 40 systems, the CLI 1000) and flags.
//!
//! Multi-tenancy: [`CodesignRunner`] holds one sharded [`EvalCache`]
//! *tenant store*, and every exploration goes through [`run_explore`]:
//! a private cache warms from the store, the exploration runs, and its
//! fresh entries merge back, so tenants warm each other up without
//! sharing a lock during evaluation. The store's preloaded-vs-session
//! split lets `persist_session` append exactly what this session added.
//!
//! Chaos directives (`"chaos"` in a request) make failure injection a
//! first-class, deterministic part of the protocol:
//!
//! * `"panic"` — the job panics; the server's `catch_unwind` isolation
//!   must convert it into one `panic` error reply.
//! * `"stall"` — the job mounts a deliberately wedged engine under the
//!   co-simulation coordinator so the *real* no-progress watchdog
//!   fires; the reply carries the structured `watchdog` code.
//! * `"transient:K"` — the job reports a transient `hardware_fault`
//!   for its first `K` attempts, then runs normally: the seeded retry
//!   schedule either heals it (`attempts > K`) or exhausts.

use std::sync::Arc;

use codesign_conform::sweep::SweepConfig;
use codesign_explore::{
    explore_with_cache, DesignSpace, EvalCache, ExploreConfig, ExploreOutcome, SpaceConfig,
};
use codesign_fault::{error_code, retryable};
use codesign_ir::process::{ProcessId, ProcessNetwork};
use codesign_ir::spec::SystemSpec;
use codesign_ir::task::TaskGraph;
use codesign_partition::algorithms::{
    gclp, hw_first, kernighan_lin, portfolio, simulated_annealing, sw_first, AnnealingSchedule,
};
use codesign_partition::area::{HwAreaModel, NaiveArea, SharedArea};
use codesign_partition::cost::Objective;
use codesign_partition::eval::{EvalConfig, Evaluation};
use codesign_partition::{Partition, Side};
use codesign_serve::{JobError, JobRunner, Request, RunOutcome};
use codesign_sim::engine::{Coordinator, CoordinatorStats, SimEngine, WatchdogConfig};
use codesign_sim::error::SimError;
use codesign_sim::message::{MessageConfig, MessageEngine, MessageReport, Placement};
use codesign_synth::mthread::{comm_aware_traced, placement_for, MthreadConfig};
use codesign_trace::json::{self, Object};
use codesign_trace::Tracer;

use crate::resilience::{run_campaign_traced, CampaignConfig};

// ---------------------------------------------------------------------------
// Parameters: one reader trait, two front ends.
// ---------------------------------------------------------------------------

/// Where a job's parameters come from: a served [`Request`] or the
/// CLI's argv. Keys are request field names (`seed_base`); the argv
/// reader maps them onto flags (`--seed-base`). Every malformed or
/// out-of-range value is a `bad_field` error naming the key or flag.
pub trait Params {
    /// A string parameter, `None` when absent.
    fn str(&self, key: &str) -> Result<Option<&str>, JobError>;
    /// An integer parameter in `lo..=hi`, `None` when absent; an
    /// out-of-range value is refused, never clamped.
    fn int(&self, key: &str, lo: u64, hi: u64) -> Result<Option<u64>, JobError>;
    /// A boolean switch, `false` when absent.
    fn flag(&self, key: &str) -> Result<bool, JobError>;
}

impl Params for Request {
    fn str(&self, key: &str) -> Result<Option<&str>, JobError> {
        match self.params.get(key) {
            None => Ok(None),
            Some(v) => v.as_str().map(Some).ok_or_else(|| {
                JobError::permanent("bad_field", format!("`{key}` must be a string"))
            }),
        }
    }

    fn int(&self, key: &str, lo: u64, hi: u64) -> Result<Option<u64>, JobError> {
        match self.params.get(key) {
            None => Ok(None),
            Some(v) => {
                let n = v.as_int().ok_or_else(|| {
                    JobError::permanent("bad_field", format!("`{key}` must be an integer"))
                })?;
                let n = u64::try_from(n).map_err(|_| {
                    JobError::permanent("bad_field", format!("`{key}` must be non-negative"))
                })?;
                if n < lo || n > hi {
                    return Err(JobError::permanent(
                        "bad_field",
                        format!("`{key}` = {n} out of range {lo}..={hi}"),
                    ));
                }
                Ok(Some(n))
            }
        }
    }

    fn flag(&self, key: &str) -> Result<bool, JobError> {
        match self.params.get(key) {
            None => Ok(false),
            Some(v) => v.as_bool().ok_or_else(|| {
                JobError::permanent("bad_field", format!("`{key}` must be a boolean"))
            }),
        }
    }
}

/// The task-graph view a `partition` or `explore` job needs, or a
/// `bad_spec` error.
pub fn task_graph<'s>(spec: &'s SystemSpec, kind: &str) -> Result<&'s TaskGraph, JobError> {
    spec.task_graph().ok_or_else(|| {
        JobError::permanent(
            "bad_spec",
            format!("the spec declares no tasks; `{kind}` needs the task-graph view"),
        )
    })
}

/// The process-network view a `cosim` job needs, or a `bad_spec` error.
pub fn process_network(spec: &SystemSpec) -> Result<&ProcessNetwork, JobError> {
    spec.network().ok_or_else(|| {
        JobError::permanent(
            "bad_spec",
            "the spec declares no processes; `cosim` needs the process view",
        )
    })
}

/// Resolves the shared `objective`/`deadline` parameters (the deadline
/// defaults to the spec's `deadline` line).
fn resolve_objective(
    p: &dyn Params,
    graph: &TaskGraph,
) -> Result<(Objective, Option<u64>), JobError> {
    let deadline = p.int("deadline", 0, u64::MAX)?.or_else(|| graph.deadline());
    let objective = match (p.str("objective")?, deadline) {
        (Some("cost"), Some(d)) => Objective::cost_driven(d),
        (Some("concurrency"), Some(d)) => Objective::concurrency_aware(d),
        (Some("perf") | None, Some(d)) => Objective::performance_driven(d),
        (Some(o), Some(_)) => {
            return Err(JobError::permanent(
                "bad_field",
                format!("unknown objective `{o}`"),
            ))
        }
        (_, None) => Objective::default(),
    };
    Ok((objective, deadline))
}

/// A finished `partition` job.
#[derive(Debug, Clone)]
pub struct PartitionRun {
    /// The algorithm that ran (`kl` unless `algorithm` named another).
    pub algorithm: String,
    /// The deadline the objective priced against, if any.
    pub deadline: Option<u64>,
    /// The chosen HW/SW partition.
    pub partition: Partition,
    /// Its evaluation.
    pub eval: Evaluation,
}

impl PartitionRun {
    /// The `partition --json` report of this run.
    #[must_use]
    pub fn report_json(&self, system: &str, graph: &TaskGraph) -> String {
        let (p, e) = (&self.partition, &self.eval);
        partition_report_json(system, &self.algorithm, graph, p, e, self.deadline)
    }
}

/// Resolves a `partition` job — `objective`, `deadline`, `sharing`,
/// `algorithm` (`kl|sw|hw|gclp|sa|portfolio`, default `kl`) — and runs
/// it on `graph`. A failing algorithm is a `partition_error`.
pub fn run_partition(p: &dyn Params, graph: &TaskGraph) -> Result<PartitionRun, JobError> {
    let (objective, deadline) = resolve_objective(p, graph)?;
    let shared;
    let naive = NaiveArea;
    let area: &dyn HwAreaModel = if p.flag("sharing")? {
        shared = SharedArea::from_graph(graph);
        &shared
    } else {
        &naive
    };
    let config = EvalConfig::new(objective, area);
    let algorithm = p.str("algorithm")?.unwrap_or("kl");
    let (partition, eval) = match algorithm {
        "kl" => kernighan_lin(graph, &config),
        "sw" => sw_first(graph, &config),
        "hw" => hw_first(graph, &config),
        "gclp" => gclp(graph, &config),
        "sa" => simulated_annealing(graph, &config, &AnnealingSchedule::default(), 1),
        "portfolio" => portfolio(graph, &config),
        other => {
            return Err(JobError::permanent(
                "bad_field",
                format!("unknown algorithm `{other}`"),
            ))
        }
    }
    .map_err(|e| JobError::permanent("partition_error", e.to_string()))?;
    Ok(PartitionRun {
        algorithm: algorithm.to_string(),
        deadline,
        partition,
        eval,
    })
}

/// The `partition --json` report, and the served `partition` result.
#[must_use]
pub fn partition_report_json(
    system: &str,
    algorithm: &str,
    graph: &TaskGraph,
    partition: &Partition,
    eval: &Evaluation,
    deadline: Option<u64>,
) -> String {
    let tasks = graph.iter().map(|(id, task)| {
        let side = match partition.side(id) {
            Side::Sw => "sw",
            Side::Hw => "hw",
        };
        Object::inline()
            .str("name", task.name())
            .str("side", side)
            .finish()
    });
    let mut report = Object::block()
        .str("command", "partition")
        .str("system", system)
        .str("algorithm", algorithm)
        .raw("tasks", &json::block_array(tasks))
        .num("makespan", eval.makespan);
    report = match deadline {
        Some(d) => report
            .num("deadline", d)
            .num("meets_deadline", eval.meets_deadline),
        None => report.raw("deadline", "null"),
    };
    report
        .float("hw_area", eval.hw_area, 4)
        .num("cross_bytes", eval.cross_bytes)
        .float("cost", eval.cost, 6)
        .finish()
        + "\n"
}

/// Resolves an `explore` job: `objective`, `deadline`, `sharing`, `seed`
/// (default 42), `budget` (1..=1 000 000, default 256) and `workers`
/// (1..=64, default 8). The configuration runs on one thread in delta
/// mode; the CLI may change `threads` and `eval_mode`, which never move
/// the report.
pub fn resolve_explore(
    p: &dyn Params,
    graph: &TaskGraph,
) -> Result<(DesignSpace, ExploreConfig), JobError> {
    let (objective, _) = resolve_objective(p, graph)?;
    let space_cfg = SpaceConfig {
        objective,
        sharing_aware: p.flag("sharing")?,
        ..SpaceConfig::default()
    };
    let cfg = ExploreConfig {
        seed: p.int("seed", 0, u64::MAX)?.unwrap_or(42),
        budget: p.int("budget", 1, 1_000_000)?.unwrap_or(256),
        workers: p.int("workers", 1, 64)?.unwrap_or(8) as usize,
        ..ExploreConfig::default()
    };
    Ok((DesignSpace::new(graph.clone(), space_cfg), cfg))
}

/// Runs an exploration against a tenant `store`: a private cache warms
/// from the store's entries, the exploration runs, and its fresh
/// evaluations merge back into the store.
pub fn run_explore(
    store: &EvalCache,
    space: &DesignSpace,
    cfg: &ExploreConfig,
    tracer: &Tracer,
) -> ExploreOutcome {
    let cache = EvalCache::new();
    for (key, score) in store.entries() {
        cache.preload(key, score);
    }
    let outcome = explore_with_cache(space, cfg, cache, tracer);
    for (key, score) in outcome.cache.session_entries() {
        store.insert(key, score);
    }
    outcome
}

/// What [`run_cosim`] runs: a pinned hardware set *or* a search budget,
/// plus the coordinator quantum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CosimParams {
    /// Process names pinned to hardware (ignored when `budget` is set).
    pub hw: Vec<String>,
    /// When set, search for the best `budget`-process hardware set
    /// instead of using `hw`.
    pub budget: Option<usize>,
    /// Conservative-coordinator synchronization quantum.
    pub quantum: u64,
}

impl Default for CosimParams {
    fn default() -> Self {
        CosimParams {
            hw: Vec::new(),
            budget: None,
            quantum: 16,
        }
    }
}

/// Resolves a `cosim` job on `net`: `hw` (comma-separated process
/// names), `budget` (1..=the number of processes) and `quantum`
/// (1..=1 000 000, default 16).
pub fn resolve_cosim(p: &dyn Params, net: &ProcessNetwork) -> Result<CosimParams, JobError> {
    Ok(CosimParams {
        hw: p
            .str("hw")?
            .map(|v| v.split(',').map(ToString::to_string).collect())
            .unwrap_or_default(),
        budget: p.int("budget", 1, net.len() as u64)?.map(|n| n as usize),
        quantum: p.int("quantum", 1, 1_000_000)?.unwrap_or(16),
    })
}

/// Everything a cosim report renders: the message-level results plus
/// the coordinator's synchronization statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CosimOutcome {
    /// Hardware process names (resolved, in placement order).
    pub hw_names: Vec<String>,
    /// Message-level report of the engine the coordinator ran.
    pub report: MessageReport,
    /// Conservative-coordinator statistics.
    pub stats: CoordinatorStats,
    /// Final inter-engine skew.
    pub skew: u64,
}

/// The placement phase of the cosim flow: resolves the hardware set,
/// pinned by name or searched within the budget. Deterministic, so a
/// preempted job recomputes it on every slice instead of serializing it
/// into the checkpoint; a pinned set costs only the name lookup.
fn cosim_placement(
    net: &ProcessNetwork,
    params: &CosimParams,
    tracer: &Tracer,
) -> Result<(Vec<String>, Placement), JobError> {
    let Some(budget) = params.budget else {
        let mut hw_idx = Vec::new();
        for name in &params.hw {
            let found = net
                .iter()
                .find(|(_, p)| p.name() == *name)
                .map(|(id, _)| id.index())
                .ok_or_else(|| {
                    JobError::permanent("bad_field", format!("no process named `{name}`"))
                })?;
            hw_idx.push(found);
        }
        return Ok((params.hw.clone(), placement_for(net, &hw_idx)));
    };
    let cfg = MthreadConfig {
        max_hw_processes: budget,
        sim: MessageConfig::default(),
    };
    let outcome = comm_aware_traced(net, &cfg, tracer)
        .map_err(|e| JobError::permanent("synth_error", e.to_string()))?;
    let hw_names = outcome
        .hw_processes
        .iter()
        .map(|&i| net.process(ProcessId::from_index(i)).name().to_string())
        .collect();
    Ok((hw_names, outcome.placement))
}

/// Runs the cosim flow: placement (pinned or searched), then the
/// network once, as a [`MessageEngine`] under the conservative
/// coordinator; the report is that engine's. The single implementation
/// behind both `codesign cosim` and the served `cosim` job.
///
/// # Errors
///
/// Returns a typed [`JobError`]: `bad_field` for an unknown process
/// name, otherwise the fault taxonomy's code for the underlying
/// simulation failure.
pub fn run_cosim(
    net: &ProcessNetwork,
    params: &CosimParams,
    tracer: &Tracer,
) -> Result<CosimOutcome, JobError> {
    Ok(cosim_slice(net, params, tracer, None, None)?.expect("no slice means no preemption"))
}

/// [`run_cosim`] with checkpoint preemption: when `slice` is set and
/// wall-clock time runs past it before the coordinator finishes, the
/// co-simulation state is serialized with `codesign_replay::snapshot`
/// and returned as the inner `Err`, a checkpoint of the whole
/// coordinator. Passing it back as `resume` continues the run exactly
/// where it stopped — the final report is byte-identical to an
/// unsliced run. A resume blob that does not fit the rebuilt
/// coordinator is a `state_error`.
fn cosim_slice(
    net: &ProcessNetwork,
    params: &CosimParams,
    tracer: &Tracer,
    resume: Option<&[u8]>,
    slice: Option<std::time::Duration>,
) -> Result<Result<CosimOutcome, Vec<u8>>, JobError> {
    let (hw_names, placement) = cosim_placement(net, params, tracer)?;

    let sim_cfg = MessageConfig::default();
    let mut engine = MessageEngine::new("process-net", net.clone(), placement, sim_cfg.clone())
        .map_err(sim_job_error)?;
    engine.set_tracer(tracer);
    let mut coord = Coordinator::new(params.quantum);
    coord.add_engine(Box::new(engine));
    coord.set_tracer(tracer);
    if let Some(blob) = resume {
        codesign_replay::restore(&mut coord, None, blob).map_err(sim_job_error)?;
    }
    let started = std::time::Instant::now();
    // Only preempt a coordinator every engine can checkpoint; anything
    // else runs its slice to completion (same as before preemption
    // existed).
    let preemptable = slice.is_some() && coord.supports_snapshot();
    while !coord.is_done() {
        coord.run_one_round(sim_cfg.budget).map_err(sim_job_error)?;
        if preemptable && !coord.is_done() && started.elapsed() >= slice.unwrap() {
            return Ok(Err(codesign_replay::snapshot(&coord, None)));
        }
    }
    let report = coord.engines()[0]
        .as_any()
        .downcast_ref::<MessageEngine>()
        .expect("the cosim coordinator runs one message engine")
        .report()
        .clone();
    Ok(Ok(CosimOutcome {
        hw_names,
        report,
        stats: coord.stats(),
        skew: coord.skew(),
    }))
}

/// The `cosim --json` report, and the served `cosim` result.
#[must_use]
pub fn cosim_report_json(system: &str, quantum: u64, outcome: &CosimOutcome) -> String {
    let stats = &outcome.stats;
    let coordinator = Object::inline()
        .num("sync_rounds", stats.sync_rounds)
        .num("rounds_skipped", stats.rounds_skipped)
        .num("cycles_leapt", stats.cycles_leapt)
        .num("time", stats.time)
        .num("skew", outcome.skew);
    let report = &outcome.report;
    Object::block()
        .str("command", "cosim")
        .str("system", system)
        .raw(
            "hw",
            &json::inline_array(outcome.hw_names.iter().map(|name| json::quote(name))),
        )
        .num("quantum", quantum)
        .num("finish_time", report.finish_time)
        .num("messages", report.messages)
        .num("bytes", report.bytes)
        .num("cross_boundary_bytes", report.cross_boundary_bytes)
        .num("events", report.events)
        .raw("coordinator", &coordinator.finish())
        .finish()
        + "\n"
}

/// Maps a [`SimError`] onto a [`JobError`] through the fault taxonomy:
/// the stable code comes from [`error_code`] and the transient bit from
/// [`retryable`], so the server retries exactly what a fault campaign
/// would classify as a transient hardware fault.
#[must_use]
pub fn sim_job_error(err: SimError) -> JobError {
    JobError {
        code: error_code(&err).to_string(),
        message: err.to_string(),
        transient: retryable(&err),
    }
}

/// Resolves a `faults` campaign: `seeds` (1..=10 000, default 32),
/// `seed_base` (default `0xC0DE`) and `scenario` (default all).
pub fn resolve_faults(p: &dyn Params) -> Result<CampaignConfig, JobError> {
    Ok(CampaignConfig {
        seeds: p.int("seeds", 1, 10_000)?.unwrap_or(32),
        seed_base: p.int("seed_base", 0, u64::MAX)?.unwrap_or(0xC0DE),
        scenario: p.str("scenario")?.map(ToString::to_string),
        ..CampaignConfig::default()
    })
}

/// Resolves a `conform` sweep: `systems` (1..=100 000, default
/// `default_systems`, which each front end picks) and `seed` (default
/// 42), on one thread with lockstep passes on.
pub fn resolve_conform(p: &dyn Params, default_systems: usize) -> Result<SweepConfig, JobError> {
    Ok(SweepConfig {
        systems: p
            .int("systems", 1, 100_000)?
            .map_or(default_systems, |n| n as usize),
        seed: p.int("seed", 0, u64::MAX)?.unwrap_or(42),
        threads: 1,
        ..SweepConfig::default()
    })
}

// ---------------------------------------------------------------------------
// Chaos: a wedged engine that genuinely trips the watchdog.
// ---------------------------------------------------------------------------

/// An engine that accepts every horizon but never advances its clock —
/// the canonical no-progress pathology the coordinator's watchdog
/// exists to catch. Used by the `"stall"` chaos directive so served
/// watchdog failures exercise the real detection machinery rather than
/// a synthesized error.
#[derive(Debug)]
struct WedgedEngine;

impl SimEngine for WedgedEngine {
    fn name(&self) -> &str {
        "wedged"
    }
    fn local_time(&self) -> u64 {
        0
    }
    fn advance_to(&mut self, _t: u64) -> Result<(), SimError> {
        Ok(())
    }
    fn is_done(&self) -> bool {
        false
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Mounts a [`WedgedEngine`] under a watchdogged coordinator and
/// returns the resulting structured watchdog failure.
fn chaos_stall(tracer: &Tracer) -> JobError {
    let mut coord = Coordinator::new(8);
    coord.set_watchdog(Some(WatchdogConfig {
        max_stalled_rounds: 4,
    }));
    coord.add_engine(Box::new(WedgedEngine));
    coord.set_tracer(tracer);
    match coord.run(1_000_000) {
        Err(e) => sim_job_error(e),
        Ok(_) => JobError::permanent(
            "sim_error",
            "chaos stall failed to trip the watchdog (coordinator bug?)",
        ),
    }
}

// ---------------------------------------------------------------------------
// The runner.
// ---------------------------------------------------------------------------

/// Served conform sweeps check this many systems unless `systems` says
/// otherwise (the CLI's default is 1000).
const SERVED_CONFORM_SYSTEMS: usize = 40;

/// Reads and parses the spec every spec-driven job starts from; an
/// unreadable or malformed file is a `bad_spec` error.
pub fn load_spec(path: &str) -> Result<SystemSpec, JobError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| JobError::permanent("bad_spec", format!("cannot read `{path}`: {e}")))?;
    SystemSpec::parse(&text)
        .map_err(|e| JobError::permanent("bad_spec", format!("cannot parse `{path}`: {e}")))
}

fn spec_path(req: &Request) -> Result<&str, JobError> {
    req.str("spec")?
        .ok_or_else(|| JobError::permanent("missing_field", "`spec` is required"))
}

/// The job registry: runs `partition` / `explore` / `cosim` / `faults`
/// / `conform` requests with CLI-identical output bytes, a shared
/// eval-cache tenant store, and deterministic chaos directives.
#[derive(Debug)]
pub struct CodesignRunner {
    /// The multi-tenant warm cache. Shared with the CLI front end so it
    /// can be preloaded from — and crash-safely persisted to — a
    /// `--cache-file` across the whole serving session.
    store: Arc<EvalCache>,
    tracer: Tracer,
}

impl CodesignRunner {
    /// Creates a runner over a shared tenant store.
    #[must_use]
    pub fn new(store: Arc<EvalCache>, tracer: Tracer) -> Self {
        CodesignRunner { store, tracer }
    }

    /// The shared tenant store (for persistence after shutdown).
    #[must_use]
    pub fn store(&self) -> &Arc<EvalCache> {
        &self.store
    }

    fn job_partition(&self, req: &Request) -> Result<String, JobError> {
        let spec = load_spec(spec_path(req)?)?;
        let graph = task_graph(&spec, "partition")?;
        Ok(run_partition(req, graph)?.report_json(spec.name(), graph))
    }

    fn job_explore(&self, req: &Request) -> Result<String, JobError> {
        let spec = load_spec(spec_path(req)?)?;
        let (space, cfg) = resolve_explore(req, task_graph(&spec, "explore")?)?;
        Ok(run_explore(&self.store, &space, &cfg, &self.tracer).report_json(&space, &cfg))
    }

    /// The served `cosim` job, preemptable: with a `slice` set, a run
    /// that overshoots it checkpoints and returns
    /// [`RunOutcome::Preempted`] for the server to requeue.
    fn job_cosim(
        &self,
        req: &Request,
        resume: Option<&[u8]>,
        slice: Option<std::time::Duration>,
    ) -> Result<RunOutcome, JobError> {
        let spec = load_spec(spec_path(req)?)?;
        let net = process_network(&spec)?;
        let params = resolve_cosim(req, net)?;
        Ok(
            match cosim_slice(net, &params, &self.tracer, resume, slice)? {
                Ok(outcome) => {
                    RunOutcome::Done(cosim_report_json(spec.name(), params.quantum, &outcome))
                }
                Err(state) => RunOutcome::Preempted { state },
            },
        )
    }

    fn job_faults(&self, req: &Request) -> Result<String, JobError> {
        let config = resolve_faults(req)?;
        let report = run_campaign_traced(&config, &self.tracer)
            .map_err(|e| JobError::permanent("campaign_error", e))?;
        Ok(report.to_json())
    }

    fn job_conform(&self, req: &Request) -> Result<String, JobError> {
        use codesign_conform::sweep::{report_json, run_sweep};
        let cfg = resolve_conform(req, SERVED_CONFORM_SYSTEMS)?;
        let report =
            run_sweep(&cfg).map_err(|e| JobError::permanent("conform_error", e.to_string()))?;
        Ok(report_json(&cfg, &report))
    }
}

impl JobRunner for CodesignRunner {
    fn run(&self, request: &Request, attempt: u32) -> Result<String, JobError> {
        // Chaos directives first: they are the failure-injection surface
        // the chaos benchmark drives, and they must behave identically
        // whatever job kind they ride on.
        if let Some(chaos) = request.chaos.as_deref() {
            match chaos {
                "panic" => panic!("chaos: deliberate panic in job `{}`", request.id),
                "stall" => return Err(chaos_stall(&self.tracer)),
                other => {
                    if let Some(k) = other.strip_prefix("transient:") {
                        let k: u32 = k.parse().map_err(|_| {
                            JobError::permanent(
                                "bad_field",
                                format!("`chaos` transient count `{k}` is not an integer"),
                            )
                        })?;
                        if attempt <= k {
                            return Err(JobError::transient(
                                "hardware_fault",
                                format!("chaos: injected transient fault (attempt {attempt}/{k})"),
                            ));
                        }
                        // Healed: fall through to the real job.
                    } else {
                        return Err(JobError::permanent(
                            "bad_field",
                            format!("unknown chaos directive `{other}`"),
                        ));
                    }
                }
            }
        }
        match request.kind.as_str() {
            "partition" => self.job_partition(request),
            "explore" => self.job_explore(request),
            "cosim" => match self.job_cosim(request, None, None)? {
                RunOutcome::Done(out) => Ok(out),
                RunOutcome::Preempted { .. } => unreachable!("no slice means no preemption"),
            },
            "faults" => self.job_faults(request),
            "conform" => self.job_conform(request),
            other => Err(JobError::permanent(
                "unknown_kind",
                format!("unknown job kind `{other}` (partition|explore|cosim|faults|conform)"),
            )),
        }
    }

    /// Checkpoint preemption for long co-simulations: once a `cosim`
    /// job with a `deadline_ms` has started running, the deadline means
    /// its *execution slice* — overshooting it checkpoints and requeues
    /// instead of dropping the job. Every other kind (and every chaos
    /// job) runs to completion as before.
    fn run_slice(
        &self,
        request: &Request,
        attempt: u32,
        resume: Option<&[u8]>,
    ) -> Result<RunOutcome, JobError> {
        if request.kind == "cosim" && request.chaos.is_none() {
            if let Some(ms) = request.deadline_ms {
                return self.job_cosim(request, resume, Some(std::time::Duration::from_millis(ms)));
            }
        }
        self.run(request, attempt).map(RunOutcome::Done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(kind: &str, params: &[(&str, codesign_serve::Value)]) -> Request {
        Request {
            id: "t".to_string(),
            kind: kind.to_string(),
            priority: codesign_serve::Priority::Normal,
            deadline_ms: None,
            chaos: None,
            params: params
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        }
    }

    fn runner() -> CodesignRunner {
        CodesignRunner::new(Arc::new(EvalCache::new()), Tracer::off())
    }

    fn spec_file() -> String {
        // The repo's example specs double as serving fixtures.
        let root = env!("CARGO_MANIFEST_DIR");
        format!("{root}/../../examples/specs/audio_codec.cds")
    }

    #[test]
    fn unknown_kind_and_missing_spec_get_named_codes() {
        let r = runner();
        let err = r.run(&request("frobnicate", &[]), 1).unwrap_err();
        assert_eq!(err.code, "unknown_kind");
        let err = r.run(&request("partition", &[]), 1).unwrap_err();
        assert_eq!(err.code, "missing_field");
    }

    #[test]
    fn out_of_range_budget_is_a_bad_field() {
        use codesign_serve::Value;
        let r = runner();
        let req = request(
            "explore",
            &[("spec", Value::Str(spec_file())), ("budget", Value::Int(0))],
        );
        let err = r.run(&req, 1).unwrap_err();
        assert_eq!(err.code, "bad_field");
        assert!(err.message.contains("out of range"), "{}", err.message);
    }

    #[test]
    fn partition_job_matches_the_shared_renderer() {
        use codesign_serve::Value;
        let r = runner();
        let req = request("partition", &[("spec", Value::Str(spec_file()))]);
        let served = r.run(&req, 1).expect("partition job runs");
        // Recompute directly through the same flow the CLI uses.
        let text = std::fs::read_to_string(spec_file()).unwrap();
        let spec = SystemSpec::parse(&text).unwrap();
        let graph = spec.task_graph().unwrap();
        let (objective, deadline) = {
            let d = graph.deadline();
            (
                d.map_or_else(Objective::default, Objective::performance_driven),
                d,
            )
        };
        let naive = NaiveArea;
        let config = EvalConfig::new(objective, &naive);
        let (partition, eval) = kernighan_lin(graph, &config).unwrap();
        let direct = partition_report_json(spec.name(), "kl", graph, &partition, &eval, deadline);
        assert_eq!(served, direct, "served bytes must equal the CLI renderer's");
    }

    #[test]
    fn explore_jobs_share_the_tenant_store() {
        use codesign_serve::Value;
        let r = runner();
        let req = request(
            "explore",
            &[
                ("spec", Value::Str(spec_file())),
                ("budget", Value::Int(24)),
            ],
        );
        let first = r.run(&req, 1).expect("first explore runs");
        let warmed = r.store().len();
        assert!(warmed > 0, "first job must warm the store");
        let second = r.run(&req, 1).expect("second explore runs");
        // Same seed/budget → identical report, now served from a warm
        // store (the report is cache-origin invariant by design).
        assert_eq!(first, second);
    }

    #[test]
    fn chaos_stall_trips_the_real_watchdog() {
        let mut req = request("cosim", &[]);
        req.chaos = Some("stall".to_string());
        let err = runner().run(&req, 1).unwrap_err();
        assert_eq!(err.code, "watchdog");
        assert!(!err.transient, "watchdog trips are not retryable");
    }

    #[test]
    fn chaos_transient_heals_after_k_attempts() {
        use codesign_serve::Value;
        let mut req = request("partition", &[("spec", Value::Str(spec_file()))]);
        req.chaos = Some("transient:2".to_string());
        let r = runner();
        assert_eq!(r.run(&req, 1).unwrap_err().code, "hardware_fault");
        assert_eq!(r.run(&req, 2).unwrap_err().code, "hardware_fault");
        assert!(r.run(&req, 3).is_ok(), "attempt 3 must heal");
    }

    fn process_spec_file() -> String {
        let root = env!("CARGO_MANIFEST_DIR");
        format!("{root}/../../examples/specs/camera_node.cds")
    }

    #[test]
    fn cosim_job_reports_coordinator_stats() {
        use codesign_serve::Value;
        let req = request("cosim", &[("spec", Value::Str(process_spec_file()))]);
        let out = runner().run(&req, 1).expect("cosim job runs");
        assert!(out.contains("\"command\": \"cosim\""), "{out}");
        assert!(out.contains("\"coordinator\""), "{out}");
    }

    #[test]
    fn cosim_reports_the_coordinated_run_as_the_standalone_one() {
        use codesign_sim::message::simulate;
        let text = std::fs::read_to_string(process_spec_file()).unwrap();
        let spec = SystemSpec::parse(&text).unwrap();
        let net = spec.network().unwrap();
        for (hw, quantum) in [(vec![], 16), (vec!["vision".to_string()], 1), (vec![], 97)] {
            let params = CosimParams {
                hw,
                budget: None,
                quantum,
            };
            let outcome = run_cosim(net, &params, &Tracer::off()).expect("cosim runs");
            let (_, placement) = cosim_placement(net, &params, &Tracer::off()).unwrap();
            let standalone = simulate(net, &placement, &MessageConfig::default()).unwrap();
            assert_eq!(outcome.report, standalone, "quantum {quantum}");
        }
    }

    #[test]
    fn resolvers_refuse_what_they_bound() {
        use codesign_serve::Value;
        let text = std::fs::read_to_string(process_spec_file()).unwrap();
        let spec = SystemSpec::parse(&text).unwrap();
        let net = spec.network().unwrap();
        let over = net.len() as i64 + 1;
        for (key, value) in [("quantum", 0), ("budget", 0), ("budget", over)] {
            let err = resolve_cosim(&request("cosim", &[(key, Value::Int(value))]), net)
                .expect_err("out of range");
            assert_eq!(err.code, "bad_field");
            assert!(err.message.contains(key), "{}", err.message);
        }
        let err = resolve_faults(&request("faults", &[("seeds", Value::Int(0))])).unwrap_err();
        assert_eq!(err.code, "bad_field");
        let err =
            resolve_conform(&request("conform", &[("systems", Value::Int(0))]), 40).unwrap_err();
        assert_eq!(err.code, "bad_field");
        let cfg = resolve_conform(&request("conform", &[]), 40).unwrap();
        assert_eq!(cfg.systems, 40, "the caller's default applies");
    }

    #[test]
    fn preempted_cosim_resumes_to_byte_identical_output() {
        use codesign_serve::Value;
        let r = runner();
        let mut req = request("cosim", &[("spec", Value::Str(process_spec_file()))]);
        let full = r.run(&req, 1).expect("unsliced cosim runs");

        // A zero-length slice preempts after every coordination round:
        // the worst case for checkpoint fidelity.
        req.deadline_ms = Some(0);
        let mut resume: Option<Vec<u8>> = None;
        let mut preemptions = 0u32;
        let sliced = loop {
            match r.run_slice(&req, 1, resume.as_deref()).expect("slice runs") {
                RunOutcome::Done(out) => break out,
                RunOutcome::Preempted { state } => {
                    preemptions += 1;
                    assert!(preemptions < 10_000, "cosim never completes");
                    resume = Some(state);
                }
            }
        };
        assert!(preemptions > 0, "a zero slice must preempt at least once");
        assert_eq!(sliced, full, "resumed run must render identical bytes");
    }
}
