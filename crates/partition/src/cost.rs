//! The multi-factor partitioning objective.
//!
//! Every consideration the paper's Section 3.3 enumerates is one weighted
//! term; the surveyed flows correspond to weight settings ([`Objective`]
//! provides them as presets):
//!
//! * COSYMA \[17\]: performance-driven — high `w_time`, moderate `w_area`.
//! * Vulcan \[6\]: cost-driven under a deadline — high `w_area`, hard
//!   `deadline`.
//! * The multi-threaded flow \[10\]: communication and concurrency aware —
//!   nonzero `w_comm`/`w_concurrency`.

/// Communication cost of one cross-boundary task-graph edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeCommModel {
    /// Fixed synchronization cost per transfer.
    pub setup_cycles: u64,
    /// Payload bandwidth in bytes per cycle.
    pub bytes_per_cycle: u64,
}

impl Default for EdgeCommModel {
    fn default() -> Self {
        EdgeCommModel {
            setup_cycles: 20,
            bytes_per_cycle: 4,
        }
    }
}

impl EdgeCommModel {
    /// Cycles to move `bytes` across the HW/SW boundary.
    #[must_use]
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        self.setup_cycles + bytes.div_ceil(self.bytes_per_cycle.max(1))
    }
}

/// Weights over the paper's six partitioning considerations plus an
/// optional hard deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Hard end-to-end deadline in cycles (performance *requirement*).
    pub deadline: Option<u64>,
    /// Weight of normalized makespan (performance).
    pub w_time: f64,
    /// Weight of normalized hardware area (implementation cost).
    pub w_area: f64,
    /// Weight of the modifiability penalty (modifiable tasks in HW).
    pub w_modifiability: f64,
    /// Weight of the nature-of-computation penalty (parallel tasks in SW).
    pub w_nature: f64,
    /// Weight of normalized cross-boundary traffic (communication).
    pub w_comm: f64,
    /// Weight of the *lost*-concurrency penalty (1 − overlap fraction).
    pub w_concurrency: f64,
    /// Penalty multiplier per normalized cycle of deadline overshoot.
    pub deadline_penalty: f64,
}

impl Default for Objective {
    fn default() -> Self {
        Objective {
            deadline: None,
            w_time: 1.0,
            w_area: 1.0,
            w_modifiability: 0.1,
            w_nature: 0.1,
            w_comm: 0.3,
            w_concurrency: 0.0,
            deadline_penalty: 100.0,
        }
    }
}

impl Objective {
    /// COSYMA-style: meet the deadline by accelerating critical regions;
    /// area matters but performance dominates.
    #[must_use]
    pub fn performance_driven(deadline: u64) -> Self {
        Objective {
            deadline: Some(deadline),
            w_time: 2.0,
            w_area: 0.5,
            ..Objective::default()
        }
    }

    /// Vulcan-style: minimize implementation cost subject to the
    /// deadline.
    #[must_use]
    pub fn cost_driven(deadline: u64) -> Self {
        Objective {
            deadline: Some(deadline),
            w_time: 0.2,
            w_area: 2.0,
            ..Objective::default()
        }
    }

    /// Multi-threaded co-processor style \[10\]: communication and
    /// concurrency terms switched on.
    #[must_use]
    pub fn concurrency_aware(deadline: u64) -> Self {
        Objective {
            deadline: Some(deadline),
            w_time: 1.0,
            w_area: 0.5,
            w_comm: 1.0,
            w_concurrency: 1.0,
            ..Objective::default()
        }
    }

    /// The same objective with the communication and concurrency terms
    /// removed — the ablation arm of experiment E9.
    #[must_use]
    pub fn without_comm_awareness(&self) -> Self {
        Objective {
            w_comm: 0.0,
            w_concurrency: 0.0,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_cycles_include_setup() {
        let m = EdgeCommModel::default();
        assert_eq!(m.transfer_cycles(0), 20);
        assert_eq!(m.transfer_cycles(8), 22);
        assert_eq!(m.transfer_cycles(9), 23, "partial word rounds up");
    }

    #[test]
    fn presets_reflect_their_flows() {
        let cosyma = Objective::performance_driven(1000);
        let vulcan = Objective::cost_driven(1000);
        assert!(cosyma.w_time > vulcan.w_time);
        assert!(vulcan.w_area > cosyma.w_area);
        let mt = Objective::concurrency_aware(1000);
        assert!(mt.w_comm > 0.0 && mt.w_concurrency > 0.0);
        let ablated = mt.without_comm_awareness();
        assert_eq!(ablated.w_comm, 0.0);
        assert_eq!(ablated.w_concurrency, 0.0);
        assert_eq!(ablated.w_time, mt.w_time);
    }
}
