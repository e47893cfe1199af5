//! `serve_mix`: a closed loop of one TCP client against the in-process
//! `codesign serve` server (one worker).
//!
//! One client and one worker keep the load to one busy thread at a time
//! (client, connection thread and worker hand each job along), so on a
//! host of a few shared cores the run measures the server, not the
//! scheduler. The client sends one request line with a single write and
//! waits for its reply before sending the next. Job order is drawn from
//! the seed:
//! KL `partition` jobs, `cosim` jobs on the example specs, `explore` jobs
//! over a small set of seeds (so the shared tenant cache both hits and
//! misses), a rare explore job with a reply over 8 KiB, a few `conform`
//! jobs, and a small class of long `cosim` jobs on a generated spec whose
//! `deadline_ms` slice forces checkpoint preemption. One operation is one
//! job, keyed by its catalogue entry and timed by its client from send to
//! reply in wall time; work is
//! counted in jobs completed `ok`. After every window of [`BLOCK`] jobs the
//! client pauses, and the workload is set up once more (specs read and
//! parsed, a spare server booted, connected and shut down) for `setup_s`,
//! outside the timed windows. The generated spec is the run's input: it is
//! generated and written once, before the set-ups.
//!
//! The traced run also reports the layers under the jobs: `explore`'s
//! counts and evaluation times from the direct explorations that produce
//! the expected replies, and `conform`'s stage times from the conform
//! jobs' sweeps replayed system by system through the public
//! `sys_config`, `random_system`, `run_system`, `observables::check` and
//! `lockstep::run_lockstep` (the sweep's private engine-parity pass left
//! out), whose exact counts must equal what `run_sweep` reported.
//!
//! Every reply must be byte-identical to the direct renderer's output
//! (`partition_report_json`, `cosim_report_json`, explore `report_json`,
//! conform `report_json`), and at shutdown the server's accounting must
//! hold: `accepted == ok + failed + drained`.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use codesign::conform::lockstep::{run_lockstep, LockstepConfig, LockstepOutcome};
use codesign::conform::observables::check;
use codesign::conform::runner::run_system;
use codesign::conform::sweep::{
    report_json as conform_report_json, run_sweep, splitmix64, sys_config, SweepConfig,
};
use codesign::explore::{
    explore, DesignSpace, EvalCache, EvalMode, ExploreConfig, ExploreStats, SpaceConfig,
};
use codesign::ir::process::{Action, Process, ProcessNetwork};
use codesign::ir::spec::SystemSpec;
use codesign::ir::task::TaskGraph;
use codesign::ir::workload::sysgen::random_system;
use codesign::ir::workload::tgff::{random_task_graph, TgffConfig};
use codesign::partition::algorithms::kernighan_lin;
use codesign::partition::area::NaiveArea;
use codesign::partition::cost::Objective;
use codesign::partition::eval::EvalConfig;
use codesign::serve::protocol::reply_ok;
use codesign::serve::{parse_request, serve_tcp, JobRunner, Server, ServerConfig, StatsSnapshot};
use codesign::servejobs::{
    cosim_report_json, partition_report_json, run_cosim, CodesignRunner, CosimParams,
};
use codesign::sim::engine::Coordinator;
use codesign::sim::message::{MessageConfig, MessageEngine, Placement, Resource};
use codesign::trace::Tracer;

use crate::trace::{self, span, RunnerLog, TimedRunner};
use crate::util::{fastest, median, quantile, secs, Rng};
use crate::{Args, Report, Round, SETUPS};

/// Jobs in the client's seeded sequence (cycled if the run outlasts it).
const SEQUENCE: usize = 4000;
/// Execution slice of the long cosim class. Far above scheduling jitter:
/// `deadline_ms` is also the queue-wait deadline, and a closed loop with
/// one client and one worker never queues a job that long.
const SLICE_MS: u64 = 10;
/// Jobs in the untraced and traced passes the tracing overhead is
/// measured on.
const OVERHEAD_JOBS: usize = 200;
/// Passes of the traced, system-by-system replay of the conform jobs'
/// sweeps; the stage times are medians over them.
const CONFORM_PASSES: usize = 20;
/// Iterations of every stage of the long cosim class's pipeline: enough
/// for about two and a half slices of coordination, so every sliced job is
/// preempted at least once whatever the host's speed.
const LONG_ITERATIONS: u32 = 8_000;
/// Example specs the partition and cosim jobs run on.
const EXAMPLES: [&str; 3] = [
    "examples/specs/camera_node.cds",
    "examples/specs/radio_link.cds",
    "examples/specs/audio_codec.cds",
];

/// One distinct job: its request fields and the exact result the direct
/// renderer produces for it.
struct Job {
    class: &'static str,
    /// JSON members after `"id"`.
    fields: String,
    expected: String,
    /// Cache entries a cold run of this explore job creates.
    cold_entries: usize,
}

impl Job {
    fn line(&self, id: &str) -> String {
        format!("{{\"id\":\"{id}\",{}}}\n", self.fields)
    }
}

struct Setup {
    /// Spec path -> parsed spec.
    specs: Vec<(String, SystemSpec)>,
    /// Microseconds to parse each spec.
    parse_us: Vec<f64>,
}

/// The generated spec, and the seconds its TGFF graph took to generate.
fn generated_spec(seed: u64) -> (SystemSpec, f64) {
    let mut rng = Rng::new(seed, "serve_mix");
    let t0 = Instant::now();
    let mut graph: TaskGraph = random_task_graph(&TgffConfig {
        tasks: 16,
        width: 4,
        seed: rng.next_u64(),
        ..TgffConfig::default()
    });
    let tgff_s = secs(t0);
    graph.set_deadline(40_000);
    // The long cosim class: a five-stage pipeline whose stage costs and
    // message sizes are seeded permutations of fixed sets, so every seed
    // asks for the same amount of simulation.
    let mut computes = [400, 800, 1_200, 1_600, 2_000];
    let mut bytes = [32, 64, 128, 256];
    for i in (1..computes.len()).rev() {
        computes.swap(i, rng.range(0, i as u64) as usize);
    }
    for i in (1..bytes.len()).rev() {
        bytes.swap(i, rng.range(0, i as u64) as usize);
    }
    let mut net = ProcessNetwork::new("pipeline");
    let channels: Vec<_> = (0..bytes.len())
        .map(|i| net.add_channel(format!("s{i}"), 1))
        .collect();
    for (i, &compute) in computes.iter().enumerate() {
        let mut actions = Vec::new();
        if i > 0 {
            actions.push(Action::Receive {
                channel: channels[i - 1],
            });
        }
        actions.push(Action::Compute(compute));
        if i < bytes.len() {
            actions.push(Action::Send {
                channel: channels[i],
                bytes: bytes[i],
            });
        }
        net.add_process(
            Process::new(format!("stage{i}"), actions).with_iterations(LONG_ITERATIONS),
        );
    }
    let spec = SystemSpec::from_parts(format!("serve_mix_{seed}"), Some(graph), Some(net));
    (spec, tgff_s)
}

/// Writes the generated spec, the run's input, once. Returns its path and
/// the seconds its TGFF graph took to generate.
fn write_generated(args: &Args) -> Result<(String, f64), String> {
    let path = args.out_dir.join(format!("serve-{}.cds", args.seed));
    let (generated, tgff_s) = generated_spec(args.seed);
    std::fs::write(&path, generated.to_text())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok((path.to_string_lossy().into_owned(), tgff_s))
}

/// Reads and parses every spec the jobs name.
fn setup(generated: &str) -> Result<Setup, String> {
    let mut specs = Vec::new();
    let mut parse_us = Vec::new();
    let paths = EXAMPLES
        .iter()
        .map(ToString::to_string)
        .chain([generated.to_string()]);
    for p in paths {
        let text = std::fs::read_to_string(&p).map_err(|e| format!("read {p}: {e}"))?;
        let t0 = Instant::now();
        let spec = SystemSpec::parse(&text).map_err(|e| format!("parse {p}: {e}"))?;
        parse_us.push(secs(t0) * 1e6);
        specs.push((p, spec));
    }
    Ok(Setup { specs, parse_us })
}

fn objective_for(graph: &TaskGraph) -> (Objective, Option<u64>) {
    let deadline = graph.deadline();
    let objective = deadline.map_or_else(Objective::default, Objective::performance_driven);
    (objective, deadline)
}

/// What the catalogue's direct explorations did, for the `explore`
/// per-layer metrics.
#[derive(Debug, Default)]
struct ExploreDetail {
    stats: Vec<ExploreStats>,
    eval_us: Vec<f64>,
    /// Seconds of Stage-2 simulation (`eval_ns`), all runs together.
    sim_s: f64,
}

/// Exact aggregates of one conform sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    divergences: u64,
    bytes: u64,
    irqs: u64,
    messages: u64,
    lockstep_runs: u64,
    lockstep_instructions: u64,
}

/// The job catalogue with every expected result, computed through the
/// direct (non-served) entry points.
struct Catalogue {
    jobs: Vec<Job>,
    explore: ExploreDetail,
    /// Each conform job's sweep and what `run_sweep` counted for it.
    sweeps: Vec<(SweepConfig, Counts)>,
}

fn catalogue(s: &Setup, seed: u64) -> Result<Catalogue, String> {
    let mut jobs = Vec::new();
    let mut detail = ExploreDetail::default();
    let mut sweeps = Vec::new();
    let generated = &s.specs[3];
    for (path, spec) in &s.specs {
        let Some(graph) = spec.task_graph() else {
            continue;
        };
        let (objective, deadline) = objective_for(graph);
        let config = EvalConfig::new(objective, &NaiveArea);
        let (p, e) = kernighan_lin(graph, &config).map_err(|e| format!("kl {path}: {e}"))?;
        jobs.push(Job {
            class: "partition",
            fields: format!("\"kind\":\"partition\",\"spec\":\"{path}\",\"algorithm\":\"kl\""),
            expected: partition_report_json(spec.name(), "kl", graph, &p, &e, deadline),
            cold_entries: 0,
        });
    }
    for (path, spec) in &s.specs[..2] {
        let net = spec.network().ok_or("example spec without processes")?;
        let params = CosimParams {
            budget: Some(1),
            ..CosimParams::default()
        };
        let outcome =
            run_cosim(net, &params, &Tracer::off()).map_err(|e| format!("cosim {path}: {e:?}"))?;
        jobs.push(Job {
            class: "cosim",
            fields: format!("\"kind\":\"cosim\",\"spec\":\"{path}\",\"budget\":1"),
            expected: cosim_report_json(spec.name(), params.quantum, &outcome),
            cold_entries: 0,
        });
    }
    let mut rng = Rng::new(seed, "serve_mix/explore");
    // Explore replies on the example specs stay under 8 KiB; those on the
    // generated spec, with a larger budget, are always well over it. A
    // reply over the server's 8 KiB write buffer leaves in two segments,
    // and the server's sockets keep Nagle's algorithm on, so the second
    // segment waits for the client's delayed ACK (~40 ms). Both sizes are
    // in every seed's mix, at fixed shares.
    let explores = [
        (&s.specs[0], "explore", 48),
        (&s.specs[1], "explore", 48),
        (generated, "explore_large", 256),
    ];
    for ((path, spec), class, budget) in explores {
        let graph = spec.task_graph().ok_or("spec without tasks")?;
        let space = DesignSpace::new(
            graph.clone(),
            SpaceConfig {
                objective: objective_for(graph).0,
                ..SpaceConfig::default()
            },
        );
        for _ in 0..3 {
            let explore_seed = rng.range(0, 1 << 20);
            let cfg = ExploreConfig {
                seed: explore_seed,
                budget,
                threads: 1,
                workers: 8,
                eval_mode: EvalMode::Delta,
                ..ExploreConfig::default()
            };
            let outcome = explore(&space, &cfg, &Tracer::off());
            detail.stats.push(outcome.stats.clone());
            detail
                .eval_us
                .extend(outcome.eval_ns.iter().map(|&ns| ns as f64 / 1e3));
            detail.sim_s += outcome.eval_ns.iter().sum::<u64>() as f64 / 1e9;
            jobs.push(Job {
                class,
                fields: format!(
                    "\"kind\":\"explore\",\"spec\":\"{path}\",\"seed\":{explore_seed},\"budget\":{budget}"
                ),
                expected: outcome.report_json(&space, &cfg),
                cold_entries: outcome.cache.session_entries().len(),
            });
        }
    }
    for _ in 0..6 {
        let cfg = SweepConfig {
            systems: 4,
            seed: rng.range(0, 1 << 20),
            threads: 1,
            ..SweepConfig::default()
        };
        let report = run_sweep(&cfg).map_err(|e| format!("conform: {e}"))?;
        sweeps.push((
            cfg,
            Counts {
                divergences: report.divergences.len() as u64,
                bytes: report.total_bytes,
                irqs: report.total_irqs,
                messages: report.total_messages,
                lockstep_runs: report.lockstep_runs,
                lockstep_instructions: report.lockstep_instructions,
            },
        ));
        jobs.push(Job {
            class: "conform",
            fields: format!(
                "\"kind\":\"conform\",\"systems\":{},\"seed\":{}",
                cfg.systems, cfg.seed
            ),
            expected: conform_report_json(&cfg, &report),
            cold_entries: 0,
        });
    }
    let (path, spec) = generated;
    let net = spec.network().ok_or("generated spec without processes")?;
    let params = CosimParams::default();
    let outcome =
        run_cosim(net, &params, &Tracer::off()).map_err(|e| format!("long cosim: {e:?}"))?;
    jobs.push(Job {
        class: "cosim_sliced",
        fields: format!("\"kind\":\"cosim\",\"spec\":\"{path}\",\"deadline_ms\":{SLICE_MS}"),
        expected: cosim_report_json(spec.name(), params.quantum, &outcome),
        cold_entries: 0,
    });
    Ok(Catalogue {
        jobs,
        explore: detail,
        sweeps,
    })
}

/// Jobs of each class in every block of [`BLOCK`] consecutive jobs the
/// client sends. Fixed counts keep the mix, and so the load, the same in
/// every window of the run. Within a class the block takes the class's jobs
/// in turn from a seeded starting job, so every job of a class is served
/// about equally often whatever the seed; the order within the block comes
/// from the seed.
const MIX: [(&str, usize); 6] = [
    ("partition", 88),
    ("cosim", 60),
    ("explore", 39),
    ("explore_large", 1),
    ("conform", 8),
    ("cosim_sliced", 4),
];
const BLOCK: usize = 200;

/// The client's seeded job order (indices into the catalogue).
fn sequence(jobs: &[Job], seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed, "serve_mix/client0");
    let mut seq = Vec::with_capacity(SEQUENCE);
    while seq.len() < SEQUENCE {
        let mut block = Vec::with_capacity(BLOCK);
        for (class, n) in MIX {
            let of_class: Vec<usize> = (0..jobs.len())
                .filter(|&j| jobs[j].class == class)
                .collect();
            let start = rng.range(0, of_class.len() as u64 - 1) as usize;
            block.extend((0..n).map(|i| of_class[(start + i) % of_class.len()]));
        }
        for i in (1..block.len()).rev() {
            block.swap(i, rng.range(0, i as u64) as usize);
        }
        seq.extend(block);
    }
    seq
}

/// A booted server and its connected client.
struct Running {
    client: TcpStream,
    server: JoinHandle<std::io::Result<StatsSnapshot>>,
    queue_depth: Box<dyn Fn() -> usize + Send + Sync>,
}

fn boot<R: JobRunner>(runner: R) -> Result<Running, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let server = Server::new(
        runner,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        &Tracer::off(),
    );
    let handle = server.handle();
    let server = std::thread::spawn(move || serve_tcp(server, listener));
    let client = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    Ok(Running {
        client,
        server,
        queue_depth: Box::new(move || handle.queue_depth()),
    })
}

/// Sends `shutdown` and returns the server's final counters.
fn shutdown(r: Running) -> Result<StatsSnapshot, String> {
    (&r.client)
        .write_all(b"{\"id\":\"shutdown\",\"kind\":\"shutdown\"}\n")
        .map_err(|e| format!("send shutdown: {e}"))?;
    let mut line = String::new();
    BufReader::new(&r.client)
        .read_line(&mut line)
        .map_err(|e| format!("read shutdown reply: {e}"))?;
    drop(r.client);
    r.server
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("serve_tcp: {e}"))
}

/// One set-up as `setup_s` times it: the specs read and parsed, and a
/// server booted with an empty tenant cache and connected.
fn set_up(generated: &str) -> Result<(Setup, Running), String> {
    let s = setup(generated)?;
    let r = boot(CodesignRunner::new(Arc::new(EvalCache::new()), Tracer::off()))?;
    Ok((s, r))
}

/// Sets the workload up once more between windows, timed into `setup_s`,
/// and shuts the spare server down.
fn setup_again(report: &mut Report, generated: &str) {
    let t0 = Instant::now();
    let built = set_up(generated);
    report.setup_s.push(secs(t0));
    if let Err(e) = built.and_then(|(_, r)| shutdown(r)) {
        report.fail(format!("set-up between windows: {e}"));
    }
}

/// One served job as the client saw it. The `k`-th job of a phase has id
/// [`job_id`]`(k)`.
struct Served {
    job: usize,
    latency_ms: f64,
    ok: bool,
}

fn job_id(k: usize) -> String {
    format!("c0-{k}")
}

/// What one closed-loop phase observed.
struct Phase {
    served: Vec<Served>,
    /// The timed windows of [`BLOCK`] jobs (the last may be shorter).
    windows: Vec<Round>,
    /// Seconds of all the windows together.
    busy_s: f64,
    /// Window seconds until the first `min_jobs` jobs were done.
    overhead_wall_s: f64,
    queue_depth_max: usize,
    stats: StatsSnapshot,
    /// First few mismatching replies.
    mismatches: Vec<String>,
}

/// Runs the closed loop for `seconds` of windows (and at least `min_jobs`
/// jobs), calling `between` after every window outside the timing, then
/// shuts the server down.
fn closed_loop(
    running: Running,
    jobs: &[Job],
    seq: &[usize],
    seconds: f64,
    min_jobs: usize,
    between: &mut dyn FnMut(),
) -> Result<Phase, String> {
    let mut reader = BufReader::new(&running.client);
    let mut writer = &running.client;
    let mut served = Vec::new();
    let mut windows = Vec::new();
    let mut mismatches = Vec::new();
    let mut queue_depth_max = 0;
    let mut busy_s = 0.0;
    let mut overhead_wall_s = 0.0;
    let mut window = Round::default();
    let mut t0 = Instant::now();
    let mut reply = String::new();
    let mut k = 0;
    while k < min_jobs || busy_s + secs(t0) < seconds {
        let job = seq[k % seq.len()];
        let id = job_id(k);
        let line = jobs[job].line(&id);
        queue_depth_max = queue_depth_max.max((running.queue_depth)());
        let t1 = Instant::now();
        writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        reply.clear();
        reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive: {e}"))?;
        let latency_ms = secs(t1) * 1e3;
        let ok = reply.trim_end() == reply_ok(&id, 1, &jobs[job].expected);
        if !ok && mismatches.len() < 4 {
            mismatches.push(format!(
                "{} job {id}: reply {}",
                jobs[job].class,
                reply.trim_end().chars().take(300).collect::<String>()
            ));
        }
        window.ops.push((job, latency_ms));
        window.work += f64::from(u8::from(ok));
        served.push(Served {
            job,
            latency_ms,
            ok,
        });
        k += 1;
        if k == min_jobs {
            overhead_wall_s = busy_s + secs(t0);
        }
        if k.is_multiple_of(BLOCK) {
            window.secs = secs(t0);
            busy_s += window.secs;
            windows.push(std::mem::take(&mut window));
            between();
            t0 = Instant::now();
        }
    }
    if !window.ops.is_empty() {
        window.secs = secs(t0);
        busy_s += window.secs;
        windows.push(window);
    }
    drop(reader);
    let stats = shutdown(running)?;
    Ok(Phase {
        served,
        windows,
        busy_s,
        overhead_wall_s,
        queue_depth_max,
        stats,
        mismatches,
    })
}

/// Gates a finished phase: every reply byte-identical, and the server's
/// accounting closed.
fn check_phase(report: &mut Report, phase: &Phase, jobs: &[Job]) {
    let mut bad = phase.mismatches.iter();
    for (k, s) in phase.served.iter().enumerate() {
        report.check(s.ok, || {
            bad.next()
                .cloned()
                .unwrap_or_else(|| format!("job {} mismatched", job_id(k)))
        });
    }
    let st = &phase.stats;
    report.check(st.accepted == st.ok + st.failed + st.drained, || {
        format!("accounting broken at shutdown: {st:?}")
    });
    report.check(
        st.failed == 0 && st.shed == 0 && st.ok == phase.served.len() as u64,
        || format!("{} jobs sent, server counted {st:?}", phase.served.len()),
    );
    let sliced = phase
        .served
        .iter()
        .filter(|s| jobs[s.job].class == "cosim_sliced")
        .count();
    report.check(sliced == 0 || st.preempted > 0, || {
        format!("{sliced} sliced cosim jobs ran without a single preemption")
    });
}

pub fn run(args: &Args) -> Report {
    let mut report = Report {
        work_unit: "jobs",
        ..Report::default()
    };
    let (generated, tgff_s) = match write_generated(args) {
        Ok(g) => g,
        Err(e) => {
            report.fail(format!("input: {e}"));
            return report;
        }
    };
    let mut built: Option<(Setup, Running)> = None;
    let mut parse_us = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let b = set_up(&generated);
        report.setup_s.push(secs(t0));
        match b {
            Ok(b) => {
                parse_us.extend(b.0.parse_us.iter().copied());
                // The last set-up's server serves the run.
                if let Some((_, spare)) = built.replace(b) {
                    if let Err(e) = shutdown(spare) {
                        report.fail(format!("set-up shutdown: {e}"));
                        return report;
                    }
                }
            }
            Err(e) => {
                report.fail(format!("set-up: {e}"));
                return report;
            }
        }
    }
    let (specs, running) = built.expect("set up");
    report.value("ir.parse_us", median(&parse_us), "us");
    report.value("ir.tgff_s", tgff_s, "s");
    let cat = match catalogue(&specs, args.seed) {
        Ok(c) => c,
        Err(e) => {
            report.fail(format!("expected results: {e}"));
            return report;
        }
    };
    let seq = sequence(&cat.jobs, args.seed);

    if args.trace {
        return traced(args, report, running, &generated, &specs, &cat, &seq);
    }
    let jobs = &cat.jobs;
    let phase = closed_loop(running, jobs, &seq, args.seconds, 1, &mut || {
        setup_again(&mut report, &generated);
    });
    let phase = match phase {
        Ok(p) => p,
        Err(e) => {
            report.fail(e);
            return report;
        }
    };
    check_phase(&mut report, &phase, jobs);
    report.wall_s = phase.busy_s;
    let all: Vec<f64> = phase.served.iter().map(|s| s.latency_ms).collect();
    report.value("jobs_per_s", all.len() as f64 / phase.busy_s, "1/s");
    report.value("job_p50_ms", median(&all), "ms");
    report.value("job_p99_ms", quantile(&all, 0.99), "ms");
    report.value("jobs", all.len() as f64, "count");
    for (class, _) in MIX {
        let lat: Vec<f64> = phase
            .served
            .iter()
            .filter(|s| jobs[s.job].class == class)
            .map(|s| s.latency_ms)
            .collect();
        report.value(&format!("job_p50_ms.{class}"), median(&lat), "ms");
        report.value(
            &format!("job_share.{class}"),
            lat.iter().sum::<f64>() / all.iter().sum::<f64>(),
            "ratio",
        );
    }
    report.value("replay.preemptions", phase.stats.preempted as f64, "count");
    let sliced = phase
        .served
        .iter()
        .filter(|s| jobs[s.job].class == "cosim_sliced")
        .count();
    report.value(
        "preemptions_per_sliced_job",
        phase.stats.preempted as f64 / sliced.max(1) as f64,
        "ratio",
    );
    report.rounds = phase.windows;
    report
}

fn traced(
    args: &Args,
    mut report: Report,
    running: Running,
    generated: &str,
    specs: &Setup,
    cat: &Catalogue,
    seq: &[usize],
) -> Report {
    let jobs = &cat.jobs;
    // Untraced pass: the same first jobs on the plain runner.
    let untraced = closed_loop(running, jobs, seq, 0.0, OVERHEAD_JOBS, &mut || {
        setup_again(&mut report, generated);
    });
    let untraced = match untraced {
        Ok(p) => p,
        Err(e) => {
            report.fail(e);
            return report;
        }
    };
    check_phase(&mut report, &untraced, jobs);

    let store = Arc::new(EvalCache::new());
    let log = Arc::new(RunnerLog::default());
    let runner = TimedRunner::new(
        CodesignRunner::new(Arc::clone(&store), Tracer::off()),
        Arc::clone(&log),
    );
    let phase = boot(runner).and_then(|r| {
        trace::set_enabled(true);
        let p = closed_loop(r, jobs, seq, args.seconds, OVERHEAD_JOBS, &mut || {
            trace::set_enabled(false);
            setup_again(&mut report, generated);
            trace::set_enabled(true);
        });
        trace::set_enabled(false);
        p
    });
    let phase = match phase {
        Ok(p) => p,
        Err(e) => {
            report.fail(e);
            return report;
        }
    };
    check_phase(&mut report, &phase, jobs);

    let log = log.by_id.lock().expect("runner log");
    let mut overhead = Vec::new();
    let mut by_class: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for (k, s) in phase.served.iter().enumerate() {
        if let Some((class, ns)) = log.get(&job_id(k)) {
            let run_ms = *ns as f64 / 1e6;
            overhead.push(s.latency_ms - run_ms);
            by_class.entry(class.clone()).or_default().push(run_ms);
        }
    }
    for (class, runs) in &by_class {
        report.value(&format!("serve.run_ms_p50.{class}"), median(runs), "ms");
    }
    report.value("serve.overhead_ms_p50", median(&overhead), "ms");
    report.value("serve.overhead_ms_p99", quantile(&overhead, 0.99), "ms");
    report.value(
        "serve.queue_depth_max",
        phase.queue_depth_max as f64,
        "count",
    );
    let st = phase.stats;
    report.value("serve.accepted", st.accepted as f64, "count");
    report.value("serve.ok", st.ok as f64, "count");
    report.value("serve.failed", st.failed as f64, "count");
    report.value("serve.shed", st.shed as f64, "count");
    report.value("serve.retried", st.retried as f64, "count");
    report.value("replay.preemptions", st.preempted as f64, "count");

    // The shared tenant cache: entries a cold run of every served explore
    // job would have created, against the entries the store holds.
    let needed: usize = phase.served.iter().map(|s| jobs[s.job].cold_entries).sum();
    report.value(
        "explore.tenant_hit_rate",
        1.0 - store.len() as f64 / needed.max(1) as f64,
        "ratio",
    );

    // Request parsing, on the workload's own lines.
    let mut parse = Vec::new();
    for (k, &job) in seq.iter().take(2000).enumerate() {
        let id = job_id(k);
        let line = jobs[job].line(&id);
        let t0 = Instant::now();
        let ok = parse_request(line.trim_end()).is_ok_and(|r| r.id == id);
        parse.push(secs(t0) * 1e6);
        if !ok {
            report.fail(format!("request line does not parse back: {line}"));
        }
    }
    report.value("serve.parse_us", median(&parse), "us");

    explore_layer(&mut report, &cat.explore);
    conform_layer(&mut report, &cat.sweeps);
    partition_kl(&mut report, specs);
    replay_costs(&mut report, specs);

    report.value("round.untraced_s", untraced.overhead_wall_s, "s");
    report.value("round.traced_s", phase.overhead_wall_s, "s");
    report.value(
        "trace.overhead_s",
        phase.overhead_wall_s - untraced.overhead_wall_s,
        "s",
    );
    report.value(
        "trace.overhead_pct",
        (phase.overhead_wall_s / untraced.overhead_wall_s - 1.0) * 100.0,
        "%",
    );
    report.value("trace.rounds", phase.windows.len() as f64, "count");
    report.value("setup.untraced_s", fastest(&report.setup_s), "s");
    report.wall_s = phase.busy_s;
    report.rounds = phase.windows;
    report
}

/// The `explore` layer, from the direct explorations behind the explore
/// jobs' expected replies.
fn explore_layer(report: &mut Report, d: &ExploreDetail) {
    let sum = |f: fn(&ExploreStats) -> u64| d.stats.iter().map(f).sum::<u64>();
    let unique = sum(|s| s.unique_points);
    let gated = sum(|s| s.gated);
    let (hits, misses) = (sum(|s| s.delta_hits), sum(|s| s.delta_misses));
    report.value("explore.unique_points", unique as f64, "count");
    report.value(
        "explore.evaluations",
        sum(|s| s.evaluations) as f64,
        "count",
    );
    report.value("explore.gated", gated as f64, "count");
    report.value(
        "explore.dedup_skips",
        sum(|s| s.dedup_skips) as f64,
        "count",
    );
    report.value(
        "explore.delta_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    report.value(
        "explore.gate_ratio",
        gated as f64 / unique.max(1) as f64,
        "ratio",
    );
    report.value("explore.eval_p50_us", median(&d.eval_us), "us");
    report.value("explore.eval_p99_us", quantile(&d.eval_us, 0.99), "us");
    report.value("sim.message_s", d.sim_s, "s");
}

/// One conform sweep replayed system by system through the public
/// functions, each stage in its own span.
fn replay_sweep(cfg: &SweepConfig, op: u64) -> Result<Counts, String> {
    let mut c = Counts::default();
    for index in 0..cfg.systems {
        let sys = sys_config(cfg.seed, index);
        let spec = span("conform.generate", op, || random_system(&sys))
            .map_err(|e| format!("generate: {e}"))?;
        let run = span("conform.realize", op, || run_system(&spec))
            .map_err(|e| format!("realize: {e}"))?;
        let divergences = span("conform.check", op, || check(&spec, &run));
        c.divergences += divergences.len() as u64;
        c.bytes += run.pin.per_channel_bytes.iter().sum::<u64>();
        c.irqs += run.pin.irqs.unwrap_or(0);
        c.messages += run.message.messages.unwrap_or(0);
        if cfg.lockstep && index.is_multiple_of(cfg.lockstep_every) {
            let lk = LockstepConfig {
                seed: splitmix64(sys.seed ^ 0x10C2_57E9),
                instructions: 150,
                enabled: true,
                fault_after: None,
            };
            match span("conform.lockstep", op, || run_lockstep(&lk)) {
                Ok(LockstepOutcome::Agreed { instructions }) => {
                    c.lockstep_runs += 1;
                    c.lockstep_instructions += instructions;
                }
                other => return Err(format!("lockstep: {other:?}")),
            }
        }
    }
    Ok(c)
}

/// Conform stage spans.
const STAGES: [&str; 4] = [
    "conform.generate",
    "conform.realize",
    "conform.check",
    "conform.lockstep",
];

/// The `conform` layer: the conform jobs' sweeps replayed stage by stage.
/// The replay only observes, so its exact counts must equal what
/// `run_sweep` reported for the same sweep.
fn conform_layer(report: &mut Report, sweeps: &[(SweepConfig, Counts)]) {
    let mut per_pass: Vec<[f64; 4]> = Vec::new();
    let mut lockstep_instructions = 0;
    for pass in 0..CONFORM_PASSES {
        trace::set_enabled(true);
        let before: Vec<_> = STAGES.iter().map(|n| trace::totals(n)).collect();
        lockstep_instructions = 0;
        for (i, (cfg, want)) in sweeps.iter().enumerate() {
            let got = replay_sweep(cfg, ((pass as u64) << 32) | i as u64);
            report.check(got.as_ref().is_ok_and(|c| c == want), || {
                format!("conform replay of sweep {}: {got:?} vs {want:?}", cfg.seed)
            });
            lockstep_instructions += got.map_or(0, |c| c.lockstep_instructions);
        }
        let after: Vec<_> = STAGES.iter().map(|n| trace::totals(n)).collect();
        trace::set_enabled(false);
        let mut d = [0.0; 4];
        for k in 0..4 {
            d[k] = (after[k].total_ns - before[k].total_ns) as f64 / 1e9;
        }
        per_pass.push(d);
    }
    let col = |k: usize| median(&per_pass.iter().map(|d| d[k]).collect::<Vec<_>>());
    report.value("conform.generate_s", col(0), "s");
    report.value("conform.realize_s", col(1), "s");
    report.value("conform.check_s", col(2), "s");
    report.value("conform.lockstep_s", col(3), "s");
    report.value(
        "conform.lockstep_instructions",
        lockstep_instructions as f64,
        "count",
    );
}

/// Direct `kernighan_lin` calls on the specs the partition jobs use.
fn partition_kl(report: &mut Report, specs: &Setup) {
    let mut us = Vec::new();
    for (_, spec) in &specs.specs {
        let Some(graph) = spec.task_graph() else {
            continue;
        };
        let (objective, _) = objective_for(graph);
        let config = EvalConfig::new(objective, &NaiveArea);
        for _ in 0..50 {
            let t0 = Instant::now();
            let ok = kernighan_lin(graph, &config).is_ok();
            us.push(secs(t0) * 1e6);
            report.check(ok, || format!("kernighan_lin failed on {}", spec.name()));
        }
    }
    report.value("partition.kl_us_p50", median(&us), "us");
}

/// Snapshot and restore of the long cosim job's coordinator, mid-run.
fn replay_costs(report: &mut Report, specs: &Setup) {
    let Some(net) = specs.specs[3].1.network() else {
        report.fail("generated spec without processes");
        return;
    };
    let build = || -> Result<Coordinator, String> {
        let placement =
            Placement::from_assignment((0..net.len()).map(|_| Resource::Software(0)).collect());
        let engine = MessageEngine::new(
            "process-net",
            net.clone(),
            placement,
            MessageConfig::default(),
        )
        .map_err(|e| format!("long cosim engine: {e}"))?;
        let mut coord = Coordinator::new(CosimParams::default().quantum);
        coord.add_engine(Box::new(engine));
        Ok(coord)
    };
    let result = (|| -> Result<(), String> {
        let mut coord = build()?;
        let budget = MessageConfig::default().budget;
        for _ in 0..200 {
            if coord.is_done() {
                break;
            }
            coord
                .run_one_round(budget)
                .map_err(|e| format!("round: {e}"))?;
        }
        let mut snap_us = Vec::new();
        let mut restore_us = Vec::new();
        let mut bytes = 0;
        for _ in 0..50 {
            let t0 = Instant::now();
            let blob = codesign::replay::snapshot(&coord, None);
            snap_us.push(secs(t0) * 1e6);
            bytes = blob.len();
            let mut fresh = build()?;
            let t0 = Instant::now();
            codesign::replay::restore(&mut fresh, None, &blob)
                .map_err(|e| format!("restore: {e}"))?;
            restore_us.push(secs(t0) * 1e6);
            if codesign::replay::snapshot(&fresh, None) != blob {
                return Err("restored coordinator snapshots differently".to_string());
            }
        }
        report.value("replay.snapshot_us", median(&snap_us), "us");
        report.value("replay.restore_us", median(&restore_us), "us");
        report.value("replay.snapshot_bytes", bytes as f64, "bytes");
        Ok(())
    })();
    report.check(result.is_ok(), || {
        format!("replay: {}", result.unwrap_err())
    });
}
