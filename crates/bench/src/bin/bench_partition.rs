//! `bench-partition` — before/after timings for the incremental
//! partition evaluator, emitted as `BENCH_partition.json`.
//!
//! "Before" is the frozen seed implementation in
//! [`codesign_bench::reference`] (clone every candidate, re-schedule
//! from scratch); "after" is the incremental
//! [`Evaluator`](codesign_partition::eval::Evaluator)-based algorithms.
//! Both are timed on identical TGFF graphs and verified to return the
//! same result, so the speedup column compares equal work.
//!
//! ```text
//! cargo run --release -p codesign-bench --bin bench-partition [out.json]
//! ```

use std::time::Instant;

use codesign_bench::jsonout;
use codesign_bench::reference;
use codesign_ir::task::TaskGraph;
use codesign_ir::workload::tgff::{random_task_graph, TgffConfig};
use codesign_partition::algorithms::{
    self, simulated_annealing, AnnealingSchedule, PartitionResult,
};
use codesign_partition::area::NaiveArea;
use codesign_partition::cost::Objective;
use codesign_partition::eval::EvalConfig;
use codesign_trace::json::Object;

static NAIVE: NaiveArea = NaiveArea;

/// Task-graph sizes measured. 256-task "before" runs take whole seconds
/// per iteration, so iteration counts shrink with size.
const SIZES: &[(usize, u32)] = &[(16, 20), (64, 5), (256, 1)];

struct Row {
    algorithm: &'static str,
    tasks: usize,
    before_ns: u128,
    after_ns: u128,
}

fn graph(tasks: usize) -> TaskGraph {
    random_task_graph(&TgffConfig {
        tasks,
        seed: 0xDAC,
        ..TgffConfig::default()
    })
}

fn time(iterations: u32, mut f: impl FnMut() -> PartitionResult) -> (u128, f64) {
    // One warm-up run, then the average of `iterations` timed runs.
    let warm = f().expect("algorithm runs");
    let start = Instant::now();
    for _ in 0..iterations {
        let (_, e) = f().expect("algorithm runs");
        assert_eq!(e, warm.1, "non-deterministic algorithm under benchmark");
    }
    (
        start.elapsed().as_nanos() / u128::from(iterations),
        warm.1.cost,
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_partition.json".to_string());
    let schedule = AnnealingSchedule::default();
    let mut rows: Vec<Row> = Vec::new();

    for &(tasks, iterations) in SIZES {
        let g = graph(tasks);
        let config = EvalConfig::new(
            Objective::performance_driven(g.total_sw_cycles() / 3),
            &NAIVE,
        );
        type Pair<'a> = (
            &'static str,
            &'a dyn Fn() -> PartitionResult,
            &'a dyn Fn() -> PartitionResult,
        );
        let pairs: [Pair<'_>; 5] = [
            ("sw_first", &|| reference::sw_first(&g, &config), &|| {
                algorithms::sw_first(&g, &config)
            }),
            ("hw_first", &|| reference::hw_first(&g, &config), &|| {
                algorithms::hw_first(&g, &config)
            }),
            (
                "kernighan_lin",
                &|| reference::kernighan_lin(&g, &config),
                &|| algorithms::kernighan_lin(&g, &config),
            ),
            ("gclp", &|| reference::gclp(&g, &config), &|| {
                algorithms::gclp(&g, &config)
            }),
            (
                "simulated_annealing",
                &|| reference::simulated_annealing(&g, &config, &schedule, 7),
                &|| simulated_annealing(&g, &config, &schedule, 7),
            ),
        ];
        for (algorithm, before, after) in pairs {
            let (before_ns, before_cost) = time(iterations, before);
            let (after_ns, after_cost) = time(iterations, after);
            assert!(
                (before_cost - after_cost).abs() <= f64::EPSILON,
                "{algorithm}/{tasks}: before cost {before_cost} != after cost {after_cost}"
            );
            eprintln!(
                "{algorithm:>20} {tasks:>4} tasks: {:>12} ns -> {:>12} ns  ({:.1}x)",
                before_ns,
                after_ns,
                before_ns as f64 / after_ns.max(1) as f64
            );
            rows.push(Row {
                algorithm,
                tasks,
                before_ns,
                after_ns,
            });
        }
    }

    let rendered = rows.iter().map(|r| {
        let speedup = r.before_ns as f64 / r.after_ns.max(1) as f64;
        Object::inline()
            .str("algorithm", r.algorithm)
            .num("tasks", r.tasks)
            .num("before_ns", r.before_ns)
            .num("after_ns", r.after_ns)
            .float("speedup", speedup, 2)
    });
    let header = jsonout::header("partition_algorithms")
        .str("units", "ns_per_run")
        .num("host_cores", jsonout::host_cores())
        .str(
            "before",
            "seed clone-and-reevaluate implementation (codesign_bench::reference)",
        )
        .str(
            "after",
            "incremental Evaluator with suffix-restart delta evaluation",
        );
    let json = jsonout::render(header, rendered);
    jsonout::write(&out_path, &json);

    let kl64 = rows
        .iter()
        .find(|r| r.algorithm == "kernighan_lin" && r.tasks == 64)
        .expect("kl at 64 tasks measured");
    let speedup = kl64.before_ns as f64 / kl64.after_ns.max(1) as f64;
    println!("kernighan_lin @ 64 tasks: {speedup:.1}x (gate: >= 5x)");
    assert!(
        speedup >= 5.0,
        "incremental KL at 64 tasks is only {speedup:.1}x faster than the seed"
    );
}
