//! # codesign-partition
//!
//! Hardware/software partitioning for the mixed HW/SW co-design framework
//! (Adams & Thomas, DAC 1996, Section 3.3).
//!
//! The paper enumerates the considerations that "may influence the HW/SW
//! partitioning problem": **performance requirements**, **implementation
//! cost**, **modifiability**, **nature of the computation**, and — for
//! Type II systems with a physical boundary — **concurrency** and
//! **communication**. This crate makes each an explicit, weighted term of
//! a single objective ([`cost::Objective`]), evaluates any partition
//! against it ([`eval::evaluate`]), and provides the partitioning
//! algorithms of the surveyed flows:
//!
//! * [`algorithms::sw_first`] — COSYMA-style \[17\]: start all-software,
//!   move "the performance-critical regions of software into hardware";
//! * [`algorithms::hw_first`] — Vulcan-style \[6\]: start all-hardware,
//!   move non-critical work to software to "minimize the implementation
//!   cost without decreasing performance";
//! * [`algorithms::kernighan_lin`] — pass-based single-move improvement
//!   with locking;
//! * [`algorithms::simulated_annealing`] — seeded stochastic search;
//! * [`algorithms::gclp`] — a global-criticality / local-phase heuristic
//!   in the style of Kalavade & Lee;
//! * [`algorithms::portfolio`] — races all of the above (plus a
//!   multi-seed annealer) on concurrent threads and deterministically
//!   keeps the best result.
//!
//! All searches share the incremental [`eval::Evaluator`], which
//! checkpoints the list scheduler at every position of the
//! partition-independent schedule order and evaluates a single-task flip
//! by replaying only the affected schedule suffix — bit-identical to
//! [`eval::evaluate`], far cheaper per probe.
//!
//! Hardware cost can be estimated naively (sum of per-task areas) or with
//! the sharing-aware estimator of Vahid & Gajski \[18\] via [`area`], which
//! experiment E8 ablates. [`reconfig`] adds the run-time repartitioning
//! model of Section 4.4, where an FPGA region lets the partition "be
//! adapted on the fly".

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algorithms;
pub mod area;
pub mod cost;
pub mod error;
pub mod eval;
pub mod reconfig;

pub use error::PartitionError;

/// Which side of the boundary a task is implemented on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Software on the instruction-set processor.
    Sw,
    /// Hardware on the co-processor.
    Hw,
}

impl Side {
    /// The opposite side.
    #[must_use]
    pub fn flipped(self) -> Side {
        match self {
            Side::Sw => Side::Hw,
            Side::Hw => Side::Sw,
        }
    }
}

/// An assignment of every task to a side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    sides: Vec<Side>,
}

impl Partition {
    /// All tasks in software.
    #[must_use]
    pub fn all_sw(n: usize) -> Self {
        Partition {
            sides: vec![Side::Sw; n],
        }
    }

    /// All tasks in hardware.
    #[must_use]
    pub fn all_hw(n: usize) -> Self {
        Partition {
            sides: vec![Side::Hw; n],
        }
    }

    /// Builds a partition from explicit sides.
    #[must_use]
    pub fn from_sides(sides: Vec<Side>) -> Self {
        Partition { sides }
    }

    /// Side of one task.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn side(&self, t: codesign_ir::task::TaskId) -> Side {
        self.sides[t.index()]
    }

    /// Moves one task to the other side.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn flip(&mut self, t: codesign_ir::task::TaskId) {
        let s = &mut self.sides[t.index()];
        *s = s.flipped();
    }

    /// Number of tasks covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sides.len()
    }

    /// Whether the partition covers no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sides.is_empty()
    }

    /// Ids of the hardware tasks.
    pub fn hw_tasks(&self) -> impl Iterator<Item = codesign_ir::task::TaskId> + '_ {
        self.sides
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == Side::Hw)
            .map(|(i, _)| codesign_ir::task::TaskId::from_index(i))
    }

    /// Number of hardware tasks.
    #[must_use]
    pub fn hw_count(&self) -> usize {
        self.sides.iter().filter(|&&s| s == Side::Hw).count()
    }
}
