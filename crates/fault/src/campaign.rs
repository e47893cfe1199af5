//! Campaign bookkeeping: classifying seeded runs against a golden
//! reference and rendering the totals.
//!
//! A campaign runs each scenario once fault-free (the *golden* run,
//! fingerprinting every observable end-state) and then once per seed
//! with a [`FaultPlan`](crate::plan::FaultPlan) armed. Every seeded run
//! lands in exactly one [`RunClass`]:
//!
//! | class | meaning |
//! |---|---|
//! | `Masked` | finished with the golden fingerprint, no retries — the faults (if any struck) were absorbed by the system's own structure |
//! | `Recovered` | finished with the golden fingerprint after the coordinator's retry policy absorbed transient faults |
//! | `Detected` | a structured error surfaced (deadlock, bus fault, budget/timeout) — the system *noticed* |
//! | `Watchdog` | the run would have hung; the coordinator's no-progress watchdog converted it into a structured error |
//! | `Corrupted` | finished "successfully" but with a non-golden fingerprint — silent data corruption, the class fault campaigns exist to find |
//!
//! Per-scenario counts always sum to the number of seeded runs, which
//! the campaign gates assert.

use codesign_sim::error::SimError;
use codesign_trace::json::{self, Object};

/// The outcome class of one seeded run (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunClass {
    /// Golden fingerprint, no retries needed.
    Masked,
    /// Golden fingerprint after retried transient faults.
    Recovered,
    /// A structured error other than the watchdog.
    Detected,
    /// Hang caught by the coordinator's no-progress watchdog.
    Watchdog,
    /// Completed with a non-golden fingerprint (silent corruption).
    Corrupted,
}

impl RunClass {
    /// Stable lowercase label, used in reports and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RunClass::Masked => "masked",
            RunClass::Recovered => "recovered",
            RunClass::Detected => "detected",
            RunClass::Watchdog => "watchdog",
            RunClass::Corrupted => "corrupted",
        }
    }
}

/// Whether an error is *transient* — the class the coordinator's
/// [`RetryPolicy`](codesign_sim::engine::RetryPolicy) retries with
/// backoff: hardware faults model recoverable bus glitches, while
/// software errors, deadlocks, budget exhaustion, and watchdog trips
/// are deterministic properties of the run and would only recur.
///
/// The job server reuses this exact classification for *job-level*
/// retry: a job that failed with a transient error is re-queued on a
/// seeded backoff schedule; any other failure is final.
#[must_use]
pub fn retryable(err: &SimError) -> bool {
    matches!(err, SimError::Hardware(_))
}

/// A stable, machine-readable code naming an error's class, for
/// structured replies (`codesign serve`) and reports. One code per
/// [`SimError`] variant.
#[must_use]
pub fn error_code(err: &SimError) -> &'static str {
    match err {
        SimError::Deadlock { .. } => "deadlock",
        SimError::Budget { .. } => "budget",
        SimError::BadPlacement { .. } => "bad_placement",
        SimError::Software(_) => "software_fault",
        SimError::Hardware(_) => "hardware_fault",
        SimError::Watchdog { .. } => "watchdog",
        _ => "sim_error",
    }
}

/// Classifies one seeded run: its result (fingerprint on success),
/// the scenario's golden fingerprint, and how many coordinator retries
/// the run consumed.
#[must_use]
pub fn classify(result: &Result<String, SimError>, golden: &str, retries: u64) -> RunClass {
    match result {
        Err(SimError::Watchdog { .. }) => RunClass::Watchdog,
        Err(_) => RunClass::Detected,
        Ok(fp) if fp == golden => {
            if retries > 0 {
                RunClass::Recovered
            } else {
                RunClass::Masked
            }
        }
        Ok(_) => RunClass::Corrupted,
    }
}

/// Per-scenario campaign tallies.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScenarioReport {
    /// Scenario name (`"ladder_message"`, `"dsp_coprocessor"`, ...).
    pub scenario: String,
    /// Runs with the golden fingerprint and no retries.
    pub masked: u64,
    /// Runs with the golden fingerprint after retried faults.
    pub recovered: u64,
    /// Runs ending in a structured non-watchdog error.
    pub detected: u64,
    /// Hangs converted into errors by the watchdog.
    pub watchdog: u64,
    /// Runs completing with a non-golden fingerprint.
    pub corrupted: u64,
    /// Total faults injected across the scenario's seeded runs.
    pub faults_injected: u64,
}

impl ScenarioReport {
    /// An empty tally for `scenario`.
    #[must_use]
    pub fn new(scenario: impl Into<String>) -> Self {
        ScenarioReport {
            scenario: scenario.into(),
            ..ScenarioReport::default()
        }
    }

    /// Tallies one classified run.
    pub fn add(&mut self, class: RunClass) {
        match class {
            RunClass::Masked => self.masked += 1,
            RunClass::Recovered => self.recovered += 1,
            RunClass::Detected => self.detected += 1,
            RunClass::Watchdog => self.watchdog += 1,
            RunClass::Corrupted => self.corrupted += 1,
        }
    }

    /// Total classified runs (the per-class counts always sum to the
    /// seeded-run count; campaign gates assert this).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.masked + self.recovered + self.detected + self.watchdog + self.corrupted
    }
}

/// A whole campaign: every scenario's tallies plus the sweep
/// parameters, rendered as deterministic JSON (`BENCH_faults.json`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// First seed of the sweep; run `i` of each scenario uses
    /// `seed_base + i`.
    pub seed_base: u64,
    /// Seeded runs per scenario.
    pub seeds: u64,
    /// Per-scenario tallies.
    pub scenarios: Vec<ScenarioReport>,
}

impl CampaignReport {
    /// Renders the report as JSON. Deterministic: counts and seeds
    /// only, no wall-clock times, so identical campaigns produce
    /// byte-identical files.
    #[must_use]
    pub fn to_json(&self) -> String {
        let classes = ["masked", "recovered", "detected", "watchdog", "corrupted"];
        let scenarios = self.scenarios.iter().map(|s| {
            Object::inline()
                .str("scenario", &s.scenario)
                .num("runs", s.total())
                .num("masked", s.masked)
                .num("recovered", s.recovered)
                .num("detected", s.detected)
                .num("watchdog", s.watchdog)
                .num("corrupted", s.corrupted)
                .num("faults_injected", s.faults_injected)
                .finish()
        });
        Object::block()
            .str("benchmark", "fault_campaign")
            .num("seed_base", self.seed_base)
            .num("seeds_per_scenario", self.seeds)
            .raw("classes", &json::inline_array(classes.map(json::quote)))
            .raw("scenarios", &json::block_array(scenarios))
            .finish()
            + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_rtl::RtlError;
    use codesign_sim::error::WatchdogSnapshot;

    #[test]
    fn classification_covers_every_outcome_shape() {
        let golden = "t=100;a@100;";
        assert_eq!(
            classify(&Ok(golden.to_string()), golden, 0),
            RunClass::Masked
        );
        assert_eq!(
            classify(&Ok(golden.to_string()), golden, 3),
            RunClass::Recovered
        );
        assert_eq!(
            classify(&Ok("t=120;a@120;".to_string()), golden, 0),
            RunClass::Corrupted
        );
        assert_eq!(
            classify(
                &Err(SimError::Deadlock {
                    time: 5,
                    blocked: vec!["consumer".into()]
                }),
                golden,
                0
            ),
            RunClass::Detected
        );
        assert_eq!(
            classify(
                &Err(SimError::Hardware(RtlError::BusFault { addr: 1 })),
                golden,
                9
            ),
            RunClass::Detected
        );
        assert_eq!(
            classify(
                &Err(SimError::Watchdog {
                    snapshot: WatchdogSnapshot {
                        time: 0,
                        stalled_rounds: 64,
                        last_progress_round: 0,
                        engines: Vec::new()
                    }
                }),
                golden,
                0
            ),
            RunClass::Watchdog
        );
    }

    #[test]
    fn retryable_matches_the_coordinator_retry_class() {
        // Exactly the errors RetryPolicy retries are job-retryable.
        assert!(retryable(&SimError::Hardware(RtlError::BusFault {
            addr: 0xFA17
        })));
        for err in [
            SimError::Deadlock {
                time: 1,
                blocked: vec!["p".into()],
            },
            SimError::Budget { limit: 10 },
            SimError::Watchdog {
                snapshot: WatchdogSnapshot {
                    time: 0,
                    stalled_rounds: 64,
                    last_progress_round: 0,
                    engines: Vec::new(),
                },
            },
        ] {
            assert!(!retryable(&err), "{err}");
        }
    }

    #[test]
    fn error_codes_are_stable_and_distinct() {
        let codes = [
            error_code(&SimError::Deadlock {
                time: 1,
                blocked: Vec::new(),
            }),
            error_code(&SimError::Budget { limit: 1 }),
            error_code(&SimError::Hardware(RtlError::BusFault { addr: 1 })),
            error_code(&SimError::Watchdog {
                snapshot: WatchdogSnapshot {
                    time: 0,
                    stalled_rounds: 0,
                    last_progress_round: 0,
                    engines: Vec::new(),
                },
            }),
        ];
        assert_eq!(codes, ["deadlock", "budget", "hardware_fault", "watchdog"]);
    }

    #[test]
    fn tallies_sum_to_runs() {
        let mut s = ScenarioReport::new("ladder_message");
        for class in [
            RunClass::Masked,
            RunClass::Masked,
            RunClass::Recovered,
            RunClass::Detected,
            RunClass::Watchdog,
            RunClass::Corrupted,
        ] {
            s.add(class);
        }
        assert_eq!(s.total(), 6);
        assert_eq!(s.masked, 2);
    }

    #[test]
    fn json_is_deterministic_and_structured() {
        let mut s = ScenarioReport::new("ladder_message");
        s.add(RunClass::Masked);
        s.add(RunClass::Corrupted);
        s.faults_injected = 7;
        let report = CampaignReport {
            seed_base: 0xC0DE,
            seeds: 2,
            scenarios: vec![s],
        };
        let a = report.to_json();
        assert_eq!(a, report.to_json());
        assert!(a.contains("\"fault_campaign\""));
        assert!(a.contains("\"runs\": 2"));
        assert!(a.contains("\"faults_injected\": 7"));
        assert!(!a.contains("wall"), "no wall-clock times in the JSON");
    }
}
