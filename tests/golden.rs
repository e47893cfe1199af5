//! Golden outputs: the exact bytes every JSON emitter in the workspace
//! prints, checked in under `tests/golden/`. Any change to a renderer
//! that moves a byte fails here, so a refactor of the JSON layer can
//! prove it changed nothing.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use codesign::serve::protocol::{reply_draining, reply_error, reply_ok, reply_shed};
use codesign::serve::StatsSnapshot;
use codesign::trace::Tracer;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Compares `actual` with the checked-in golden file `name`.
fn golden(name: &str, actual: &str) {
    let path = root().join("tests/golden").join(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden `{}`: {e}", path.display()));
    assert!(
        actual == expected,
        "`{name}` moved from its golden bytes\n--- expected\n{expected}\n--- actual\n{actual}"
    );
}

/// Runs the CLI from the repository root and returns its stdout.
fn codesign(args: &[&str], stdin: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_codesign"))
        .args(args)
        .current_dir(root())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    std::io::Write::write_all(&mut child.stdin.take().expect("stdin"), stdin.as_bytes())
        .expect("writes stdin");
    let out = child.wait_with_output().expect("binary exits");
    assert!(
        out.status.success(),
        "codesign {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

const SPECS: [&str; 3] = ["audio_codec", "camera_node", "radio_link"];

fn spec(name: &str) -> String {
    format!("examples/specs/{name}.cds")
}

#[test]
fn partition_json() {
    for name in SPECS {
        golden(
            &format!("partition_{name}.json"),
            &codesign(&["partition", &spec(name), "--json"], ""),
        );
    }
    golden(
        "partition_radio_link_sa_cost.json",
        &codesign(
            &[
                "partition",
                &spec("radio_link"),
                "--algorithm",
                "sa",
                "--objective",
                "cost",
                "--json",
            ],
            "",
        ),
    );
}

#[test]
fn cosim_json() {
    for name in ["camera_node", "radio_link"] {
        golden(
            &format!("cosim_{name}.json"),
            &codesign(&["cosim", &spec(name), "--json"], ""),
        );
    }
    golden(
        "cosim_camera_node_budget2.json",
        &codesign(
            &["cosim", &spec("camera_node"), "--budget", "2", "--json"],
            "",
        ),
    );
}

#[test]
fn explore_report_json() {
    let dir = std::env::temp_dir().join(format!("codesign_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for name in SPECS {
        let out = dir.join(format!("{name}.json"));
        let out_arg = out.to_str().expect("UTF-8 path");
        let timed = codesign(
            &[
                "explore",
                &spec(name),
                "--budget",
                "48",
                "--json",
                "--out",
                out_arg,
            ],
            "",
        );
        let report = std::fs::read_to_string(&out).expect("report written");
        golden(&format!("explore_{name}.json"), &report);
        // The timed report is the deterministic one plus three host
        // lines after `eval_mode`.
        let timing = ["\"wall_ns\": ", "\"points_per_sec\": ", "\"host_cores\": "];
        let untimed: String = timed
            .lines()
            .filter(|l| !timing.iter().any(|t| l.trim_start().starts_with(t)))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(untimed, report);
        assert_eq!(timed.lines().count(), report.lines().count() + 3);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn conform_json() {
    golden(
        "conform_systems4.json",
        &codesign(&["conform", "--systems", "4", "--json"], ""),
    );
}

#[test]
fn fault_campaign_json() {
    let config = codesign::resilience::CampaignConfig {
        seeds: 3,
        seed_base: 7,
        ..codesign::resilience::CampaignConfig::default()
    };
    let report = codesign::resilience::run_campaign(&config).expect("campaign runs");
    golden("faults_seeds3.json", &report.to_json());
}

#[test]
fn stats_snapshot_json() {
    let stats = StatsSnapshot {
        accepted: 11,
        ok: 7,
        failed: 3,
        shed: 2,
        drained: 1,
        rejected: 4,
        retried: 5,
        panicked: 6,
        watchdogged: 8,
        deadline_expired: 9,
        preempted: 10,
    };
    golden("stats_snapshot.json", &format!("{}\n", stats.to_json()));
}

#[test]
fn protocol_replies() {
    let replies = [
        reply_ok("j1", 1, "{\n  \"x\": 1\n}\n"),
        reply_ok("q\"uo\\te\u{1}", 3, "tab\there é 😀"),
        reply_error(Some("e1"), "watchdog", "stalled\nbadly"),
        reply_error(None, "bad_json", "malformed JSON: \"x\""),
        reply_shed("s1", 64, 64),
        reply_draining("d1"),
    ];
    golden("replies.jsonl", &(replies.join("\n") + "\n"));
}

#[test]
fn served_session() {
    let lines = [
        r#"{"id":"p1","kind":"partition","spec":"examples/specs/audio_codec.cds"}"#,
        r#"{"id":"w1","kind":"wait"}"#,
        r#"{"id":"u1","kind":"mystery"}"#,
        r#"{"id":"w2","kind":"wait"}"#,
        r#"{"id":"s\"1","kind":"stats"}"#,
        r#"{"id":"z","kind":"shutdown"}"#,
    ];
    golden(
        "served_session.jsonl",
        &codesign(&["serve", "--workers", "1"], &(lines.join("\n") + "\n")),
    );
}

#[test]
fn chrome_trace_json() {
    let t = Tracer::on();
    let core = t.track("core");
    let bus = t.track("bus \"main\"");
    t.span(
        core,
        "round",
        0,
        100,
        &[
            ("engines", 2u64.into()),
            ("delta", (-3i64).into()),
            ("ratio", 0.25f64.into()),
            ("ok", true.into()),
            ("note", "tab\there\\".into()),
        ],
    );
    t.instant(bus, "irq\nraised", 40, &[("nan", f64::NAN.into())]);
    t.instant(core, "bare", 41, &[]);
    t.counter(bus, "depth", 50, 7);
    t.span(
        bus,
        "xfer",
        60,
        5,
        &[
            ("inf", f64::INFINITY.into()),
            ("neg", f64::NEG_INFINITY.into()),
        ],
    );
    golden("chrome_trace.json", &t.to_chrome_json());
    golden("chrome_trace_off.json", &Tracer::off().to_chrome_json());
}
