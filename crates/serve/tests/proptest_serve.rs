//! Property-based tests for the job server's hard contracts:
//!
//! 1. the retry/backoff schedule is a pure, bounded function of
//!    `(config, job key)` — deterministic across calls, never above
//!    the ceiling, exactly `max_attempts - 1` entries;
//! 2. the bounded queue never exceeds its bound and sheds **exactly**
//!    the excess, in agreement with a reference model, whatever the
//!    push/pop interleaving;
//! 3. drain during load loses no accepted job: every accepted job gets
//!    exactly one terminal reply (`ok`, `error`, or `draining`),
//!    whatever mix of panicking, flaky, and slow jobs is in flight when
//!    the drain lands;
//! 4. `parse_request` never panics: any line gives a request or a
//!    typed error with one of the stable codes.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::mpsc::channel;
use std::time::Duration;

use codesign_serve::parse_request;
use codesign_serve::{
    backoff_schedule, BoundedQueue, JobError, JobRunner, Priority, Request, RetryConfig, Server,
    ServerConfig, SubmitOutcome,
};
use codesign_trace::json::{self, Value};
use codesign_trace::Tracer;
use proptest::prelude::*;

/// Pieces of request lines, so random concatenations reach every
/// branch of the request mapping, not just the first syntax check.
const LINE_FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "\"id\"",
    "\"kind\"",
    "\"priority\"",
    "\"deadline_ms\"",
    "\"chaos\"",
    "\"x\"",
    "\"high\"",
    "\"urgent\"",
    "-",
    "0",
    "7",
    "1.5",
    "1e999",
    "99999999999999999999",
    "true",
    "null",
    " ",
    "\u{1}",
    "é",
    "😀",
];

fn request_line() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        (0..LINE_FRAGMENTS.len()).prop_map(|i| LINE_FRAGMENTS[i].to_string()),
        any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('?').to_string()),
    ];
    proptest::collection::vec(piece, 0..40).prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Contract 4: request parsing is total.
    #[test]
    fn parse_request_never_panics(line in request_line()) {
        if let Err(e) = parse_request(&line) {
            let codes = [
                "bad_json", "not_object", "unsupported_value", "missing_field", "bad_field",
                "bad_priority",
            ];
            prop_assert!(codes.contains(&e.code()), "{}", e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract 1: backoff schedules are deterministic and bounded.
    #[test]
    fn backoff_is_deterministic_and_bounded(
        max_attempts in 1u32..12,
        base in 1u64..50,
        max in 1u64..500,
        seed in 0u64..u64::MAX,
        key in 0u64..u64::MAX,
    ) {
        let cfg = RetryConfig { max_attempts, base_delay_ms: base, max_delay_ms: max, seed };
        let a = backoff_schedule(&cfg, key);
        let b = backoff_schedule(&cfg, key);
        prop_assert_eq!(&a, &b, "schedule must be a pure function of (config, key)");
        prop_assert_eq!(a.len(), (max_attempts - 1) as usize);
        for (i, d) in a.iter().enumerate() {
            prop_assert!(*d <= max, "retry {} delay {} exceeds ceiling {}", i, d, max);
        }
    }

    /// Contract 2: the queue honors its bound exactly, sheds exactly
    /// the excess, and dequeues in the same order as a reference model
    /// (three FIFOs scanned high→low).
    #[test]
    fn queue_matches_the_reference_model(
        cap in 1usize..12,
        ops in proptest::collection::vec((0u8..4, 0u32..1000), 1..120),
    ) {
        let mut queue = BoundedQueue::new(cap);
        let mut model: [VecDeque<u32>; 3] = Default::default();
        let mut shed = 0u32;
        let mut model_shed = 0u32;
        for (op, item) in ops {
            match op {
                // 0..=2: push at priority class `op`.
                0..=2 => {
                    let prio = [Priority::High, Priority::Normal, Priority::Low][op as usize];
                    if queue.push(item, prio).is_err() {
                        shed += 1;
                    }
                    if model.iter().map(VecDeque::len).sum::<usize>() >= cap {
                        model_shed += 1;
                    } else {
                        model[op as usize].push_back(item);
                    }
                }
                // 3: pop.
                _ => {
                    let got = queue.pop();
                    let want = model.iter_mut().find_map(VecDeque::pop_front);
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert!(queue.len() <= cap, "queue above bound");
            prop_assert_eq!(queue.len(), model.iter().map(VecDeque::len).sum::<usize>());
            prop_assert_eq!(shed, model_shed, "shed exactly the excess");
        }
    }
}

/// A runner whose behaviour is scripted by the request kind; used by
/// the drain property.
struct ChaosScript;

impl JobRunner for ChaosScript {
    fn run(&self, request: &Request, attempt: u32) -> Result<String, JobError> {
        match request.kind.as_str() {
            "ok" => Ok("done".to_string()),
            "slow" => {
                std::thread::sleep(Duration::from_millis(5));
                Ok("slow done".to_string())
            }
            "panic" => panic!("chaos panic"),
            "flaky" => {
                if attempt < 3 {
                    Err(JobError::transient("hardware_fault", "glitch"))
                } else {
                    Ok("healed".to_string())
                }
            }
            other => Err(JobError::permanent("unknown_kind", other)),
        }
    }
}

proptest! {
    // Each case spins up a real thread pool; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 3: drain-during-load loses no accepted job. Submit a
    /// random mix, drain at a random point in the stream, then check
    /// replies == accepted + rejected-with-reason for every submission.
    #[test]
    fn drain_during_load_loses_no_accepted_job(
        kinds in proptest::collection::vec(0u8..4, 1..40),
        drain_at in 0usize..40,
        workers in 1usize..4,
        cap in 1usize..16,
    ) {
        let server = Server::new(
            ChaosScript,
            ServerConfig {
                workers,
                queue_capacity: cap,
                retry: RetryConfig {
                    max_attempts: 3,
                    base_delay_ms: 1,
                    max_delay_ms: 2,
                    seed: 11,
                },
                max_preemptions: 64,
            },
            &Tracer::off(),
        );
        let (tx, rx) = channel();
        let mut accepted = 0u64;
        let mut not_accepted = 0u64; // shed or rejected-while-draining
        for (i, k) in kinds.iter().enumerate() {
            if i == drain_at {
                server.drain();
            }
            let kind = ["ok", "slow", "panic", "flaky"][*k as usize];
            let req = Request {
                id: format!("p{i}"),
                kind: kind.to_string(),
                priority: [Priority::High, Priority::Normal, Priority::Low][i % 3],
                deadline_ms: None,
                chaos: None,
                params: BTreeMap::new(),
            };
            match server.submit(req, &tx) {
                SubmitOutcome::Accepted => accepted += 1,
                SubmitOutcome::Shed | SubmitOutcome::Draining => not_accepted += 1,
            }
        }
        let stats = server.shutdown();
        prop_assert_eq!(stats.accepted, accepted);
        // Exactly one terminal reply per accepted job...
        prop_assert_eq!(stats.terminal(), accepted, "stats: {:?}", stats);
        // ...and one rejection reply per non-accepted submission, so the
        // channel holds exactly one reply per submission overall.
        drop(tx);
        let replies: Vec<String> = rx.into_iter().collect();
        prop_assert_eq!(replies.len() as u64, accepted + not_accepted);
        // No reply id appears twice (no duplicated results).
        let mut ids: Vec<String> = replies
            .iter()
            .map(|r| {
                let reply = json::parse(r).expect("replies are JSON");
                reply.get("id").and_then(Value::as_str).expect("id field").to_string()
            })
            .collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "duplicated reply ids");
    }
}
