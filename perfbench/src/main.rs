//! The codesign benchmark: two workloads that drive the workspace's layers
//! from outside, through their public functions and traits.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cosim_ladder --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Every run repeats the workload's rounds for `--seconds`, and sets the
//! workload up again after every round, outside the timed rounds. A round
//! is one pass over a fixed list of operations generated from `--seed`;
//! every operation's output is checked, and every round must reproduce the
//! first one exactly.
//!
//! The end-to-end figures price each operation, and the set-up, at the
//! fastest time the run saw for it (see `main`): on a host shared with
//! other machines, whose speed swings by up to 2x for seconds to minutes,
//! the run's median time follows the host, while the fastest time of the
//! same work follows the program. The detail lines also print what the run
//! observed. Human-readable detail lines come first on stdout;
//! the last line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Every end-to-end metric is printed for every
//! workload; what an operation and a unit of work are differs per workload
//! and is documented in its module.
//!
//! `--trace 1` alternates untraced and traced rounds for a few rounds, then
//! keeps the decorators on. It checks that every exact count of a traced
//! round is identical to the untraced run's, reports the tracing overhead,
//! and writes the spans to `perfbench/out/trace-<workload>-<seed>.json`.
//!
//! `--pin FIRST..LAST` runs the set-up and first round of `cosim_ladder`,
//! with no timed phase, for a seed range and prints the first-round digests
//! it computed (the contents of `perfbench/pinned.txt`). `serve_mix` is
//! gated against the program's direct renderers instead.

mod cosim_ladder;
mod serve_mix;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Every workload, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["cosim_ladder", "serve_mix"];

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does not
/// exercise reads 0 there.
const PER_LAYER: [(&str, &str); 64] = [
    ("isa.instructions", "count"),
    ("isa.self_s", "s"),
    ("isa.mips", "Minstr/s"),
    ("isa.assemble_us", "us"),
    ("rtl.bus_transactions", "count"),
    ("rtl.phy_events", "count"),
    ("rtl.bus_s", "s"),
    ("rtl.phy_s", "s"),
    ("rtl.poll_ratio", "ratio"),
    ("rtl.fsmd_s", "s"),
    ("ladder.pin_mcycles_per_s", "Mcycles/s"),
    ("ladder.register_mcycles_per_s", "Mcycles/s"),
    ("sim.cosim_mcycles_per_s", "Mcycles/s"),
    ("sim.sync_rounds", "count"),
    ("sim.rounds_skipped", "count"),
    ("sim.cycles_leapt", "count"),
    ("sim.coord_self_s", "s"),
    ("sim.coord_us_per_round", "us"),
    ("sim.message_events", "count"),
    ("sim.message_s", "s"),
    ("partition.kl_us_p50", "us"),
    ("explore.unique_points", "count"),
    ("explore.evaluations", "count"),
    ("explore.gated", "count"),
    ("explore.dedup_skips", "count"),
    ("explore.delta_hit_rate", "ratio"),
    ("explore.gate_ratio", "ratio"),
    ("explore.eval_p50_us", "us"),
    ("explore.eval_p99_us", "us"),
    ("explore.tenant_hit_rate", "ratio"),
    ("conform.generate_s", "s"),
    ("conform.realize_s", "s"),
    ("conform.check_s", "s"),
    ("conform.lockstep_s", "s"),
    ("conform.lockstep_instructions", "count"),
    ("serve.run_ms_p50.partition", "ms"),
    ("serve.run_ms_p50.cosim", "ms"),
    ("serve.run_ms_p50.cosim_sliced", "ms"),
    ("serve.run_ms_p50.explore", "ms"),
    ("serve.run_ms_p50.conform", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.overhead_ms_p99", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.parse_us", "us"),
    ("serve.accepted", "count"),
    ("serve.ok", "count"),
    ("serve.failed", "count"),
    ("serve.shed", "count"),
    ("serve.retried", "count"),
    ("replay.preemptions", "count"),
    ("replay.snapshot_us", "us"),
    ("replay.restore_us", "us"),
    ("replay.snapshot_bytes", "bytes"),
    ("ir.parse_us", "us"),
    ("ir.tgff_s", "s"),
    ("setup.untraced_s", "s"),
    ("round.untraced_s", "s"),
    ("round.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.rounds", "count"),
    ("failed_frac", "ratio"),
    ("attempted", "count"),
    ("host_cores", "count"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Stop after the first round's gate, with no timed phase (`--pin`).
    pub gate_only: bool,
    pub out_dir: PathBuf,
}

/// One round of the timed phase: every operation of the workload's list
/// once (or, for the served workload, one window of jobs).
#[derive(Debug, Default)]
pub struct Round {
    /// Work units completed.
    pub work: f64,
    /// Seconds the round took, on the workload's clock.
    pub secs: f64,
    /// Each operation as `(key, host latency in milliseconds)`. Operations
    /// with the same key do the same work: the same item of a round, or the
    /// same served job.
    pub ops: Vec<(usize, f64)>,
}

/// What one workload run measured.
#[derive(Debug)]
pub struct Report {
    /// Seconds of each set-up repetition, on the workload's clock.
    pub setup_s: Vec<f64>,
    /// The timed phase, round by round (or window by window).
    pub rounds: Vec<Round>,
    /// Wall seconds of the whole timed phase.
    pub wall_s: f64,
    /// The clock rounds and operations are timed on: process CPU time for
    /// the single-threaded ladder, wall time for the served workload, which
    /// waits on the server's threads.
    pub clock: &'static str,
    /// What one work unit is, for the detail lines.
    pub work_unit: &'static str,
    /// Operations attempted / failed their correctness check.
    pub attempted: u64,
    pub failed: u64,
    /// The first round's digest, compared with `pinned.txt`.
    pub digest: Option<u64>,
    /// The first few correctness failures, verbatim.
    pub errors: Vec<String>,
    /// Named values for the detail lines (and, in traced runs, the
    /// per-layer metrics), with units.
    pub values: Vec<(String, f64, String)>,
}

impl Default for Report {
    fn default() -> Self {
        Report {
            setup_s: Vec::new(),
            rounds: Vec::new(),
            wall_s: 0.0,
            clock: "wall",
            work_unit: "ops",
            attempted: 0,
            failed: 0,
            digest: None,
            errors: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl Report {
    /// Records one operation's correctness verdict.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }

    /// Records a failure that is not tied to one operation (a run-level
    /// gate).
    pub fn fail(&mut self, what: impl Into<String>) {
        self.check(false, || what.into());
    }

    pub fn value(&mut self, name: &str, value: f64, unit: &str) {
        self.values
            .push((name.to_string(), value, unit.to_string()));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .rev()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --pin <first>..<last>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
        gate_only: false,
        out_dir: PathBuf::from("perfbench/out"),
    })
}

/// `(workload, seed) -> digest` lines pinned for the seeds they cover.
fn pinned(workload: &str, seed: u64) -> Option<u64> {
    include_str!("../pinned.txt").lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok())
            .flatten()
    })
}

/// Records a workload's first-round digest and checks it against the
/// pinned table.
pub fn check_pinned(report: &mut Report, workload: &str, seed: u64, digest: u64) {
    report.digest = Some(digest);
    match pinned(workload, seed) {
        Some(want) => report.check(want == digest, || {
            format!("{workload} seed {seed}: digest {digest:#018x}, pinned {want:#018x}")
        }),
        None => println!("# {workload} seed {seed}: no pinned digest; digest {digest:#018x}"),
    }
}

/// The percentile `op_tail_ms` reports. A run's operations leave at least
/// ten beyond it; the detail line says if they did not.
const TAIL_PCT: f64 = 99.0;

/// Set-up repetitions made before the timed phase of a run, which adds one
/// after every round.
pub const SETUPS: usize = 5;

/// Rounds at the start of a traced run that alternate untraced and traced
/// (untraced first), so the tracing overhead compares like with like.
pub const OVERHEAD_ROUNDS: u64 = 6;

/// Whether `round` of a traced run runs with the decorators off.
pub fn untraced_turn(round: u64) -> bool {
    round < OVERHEAD_ROUNDS && round.is_multiple_of(2)
}

/// Reports the tracing overhead from the alternating rounds' wall times.
pub fn overhead(report: &mut Report, untraced_s: &[f64], traced_s: &[f64], traced_rounds: usize) {
    let (u, t) = (util::median(untraced_s), util::median(traced_s));
    report.value("round.untraced_s", u, "s");
    report.value("round.traced_s", t, "s");
    report.value("trace.overhead_s", t - u, "s");
    report.value("trace.overhead_pct", (t / u - 1.0) * 100.0, "%");
    report.value("trace.rounds", traced_rounds as f64, "count");
    report.value("setup.untraced_s", util::fastest(&report.setup_s), "s");
}

fn run(args: &Args) -> Report {
    match args.workload.as_str() {
        "cosim_ladder" => cosim_ladder::run(args),
        "serve_mix" => serve_mix::run(args),
        _ => unreachable!("workload validated"),
    }
}

fn pin(range: &str) {
    let Some((a, b)) = range.split_once("..") else {
        usage()
    };
    let (Ok(a), Ok(b)) = (a.parse::<u64>(), b.parse::<u64>()) else {
        usage()
    };
    for seed in a..=b {
        let args = Args {
            workload: "cosim_ladder".to_string(),
            seed,
            seconds: 0.0,
            trace: false,
            gate_only: true,
            out_dir: PathBuf::new(),
        };
        match run(&args).digest {
            Some(d) => println!("cosim_ladder {seed} {d:#018x}"),
            None => {
                eprintln!("perfbench: cosim_ladder seed {seed} did not reach its digest");
                std::process::exit(1);
            }
        }
    }
}

fn metric_json(out: &mut String, name: &str, value: f64, unit: &str) {
    let value = if value.is_finite() { value } else { 0.0 };
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() == 3 && argv[1] == "--pin" {
        pin(&argv[2]);
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            usage();
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(1);
    }
    let mut report = run(&args);
    if report.attempted == 0 {
        report.fail("no operation completed");
    }
    report.value("host_cores", util::host_cores() as f64, "count");
    report.value("attempted", report.attempted as f64, "count");
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.value("failed_frac", failed_frac, "ratio");

    // Every key's operation does the same work each time it runs, so the
    // fastest time seen for it is its cost with the least interference
    // from the rest of the host; a shared host's slow stretches, which last
    // from seconds to minutes, only add to it. The end-to-end figures price
    // every operation of the timed phase at its key's fastest time:
    // throughput is all the work over those times, and the latencies are
    // their percentiles. Set-up is priced the same way, at the fastest of
    // the run's set-ups. What the run observed, interference included, is
    // printed as detail lines.
    let setup_s = util::fastest(&report.setup_s);
    let mut fastest: BTreeMap<usize, f64> = BTreeMap::new();
    for (key, ms) in report.rounds.iter().flat_map(|r| r.ops.iter().copied()) {
        let best = fastest.entry(key).or_insert(ms);
        *best = best.min(ms);
    }
    let priced: Vec<f64> = report
        .rounds
        .iter()
        .flat_map(|r| r.ops.iter().map(|(key, _)| fastest[key]))
        .collect();
    let observed: Vec<f64> = report
        .rounds
        .iter()
        .flat_map(|r| r.ops.iter().map(|&(_, ms)| ms))
        .collect();
    let ops = priced.len();
    let work: f64 = report.rounds.iter().map(|r| r.work).sum();
    let round_s: f64 = report.rounds.iter().map(|r| r.secs).sum();
    let throughput = work / (priced.iter().sum::<f64>() / 1e3);
    let p50 = util::median(&priced);
    let tail = util::quantile(&priced, TAIL_PCT / 100.0);
    let beyond = ops as f64 * (1.0 - TAIL_PCT / 100.0);
    let rss = util::peak_rss_mb();
    let e2e = [setup_s, throughput, p50, tail, rss];

    println!(
        "# workload {} seed {} trace {} host_cores {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        util::host_cores()
    );
    println!(
        "# setup_s {setup_s:.6} s, the fastest of {} set-ups; observed median {:.6} s",
        report.setup_s.len(),
        util::median(&report.setup_s)
    );
    // A traced run reports per-layer metrics only; it times no rounds.
    if ops > 0 {
        println!(
            "# throughput {throughput:.3} {}/s over {} rounds, each op at its fastest of the run",
            report.work_unit,
            report.rounds.len(),
        );
        println!(
            "# op_p50_ms {p50:.4} ms, op_tail_ms p{TAIL_PCT} {tail:.4} ms, each op at its fastest, \
             over {ops} ops of {} distinct{}",
            fastest.len(),
            if beyond < 10.0 {
                " (fewer than ten beyond the tail percentile)"
            } else {
                ""
            }
        );
        println!(
            "# observed_throughput {:.3} {}/s over {round_s:.3} s of {} time",
            work / round_s,
            report.work_unit,
            report.clock,
        );
        println!(
            "# observed_op_p50_ms {:.4} ms, observed_op_tail_ms p{TAIL_PCT} {:.4} ms",
            util::median(&observed),
            util::quantile(&observed, TAIL_PCT / 100.0),
        );
        if report.clock != "wall" {
            println!(
                "# observed_throughput_wall {:.3} {}/s over the whole {:.3} s of wall time",
                work / report.wall_s.max(1e-9),
                report.work_unit,
                report.wall_s
            );
        }
    }
    println!("# peak_rss_mb {rss:.2} MB");
    println!(
        "# failed_frac {failed_frac} ({} of {} operations)",
        report.failed, report.attempted
    );
    for (name, value, unit) in &report.values {
        println!("# {name} {value} {unit}");
    }
    for e in &report.errors {
        println!("# FAILED: {e}");
    }

    if args.trace {
        let path = args
            .out_dir
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) = trace::write_json(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    let correct = report.failed == 0 && report.attempted > 0;
    let mut metrics = String::from("{");
    if args.trace {
        for (name, unit) in PER_LAYER {
            metric_json(&mut metrics, name, report.get(name).unwrap_or(0.0), unit);
        }
    } else {
        for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
            metric_json(&mut metrics, name, value, unit);
        }
    }
    metrics.push('}');
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.attempted.max(1),
        report.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
