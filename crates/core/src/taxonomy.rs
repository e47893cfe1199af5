//! The paper's classification vocabulary, as types.
//!
//! Section 5 summarizes the comparison criteria:
//!
//! 1. the **type** of HW/SW system (Type I, Type II);
//! 2. the **design tasks** addressed (co-simulation, co-synthesis,
//!    HW/SW partitioning);
//! 3. for co-simulation, the **abstraction level** of the HW/SW
//!    interaction;
//! 4. for partitioning, the **considerations** taken into account.
//!
//! [`Methodology`] is one approach described along those four axes, with
//! [`Methodology::validate`] enforcing the structural rules of the
//! paper's Figure 2 (partitioning is a sub-activity of co-synthesis) and
//! Section 3 (an abstraction level only makes sense for approaches that
//! co-simulate; partitioning factors only for approaches that
//! partition).

use std::collections::BTreeSet;

/// The relationship between the hardware and software components
/// (paper Section 2, Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SystemType {
    /// The boundary is a *logical* one: "the hardware is thought to be
    /// executing the software", e.g. a microprocessor plus glue logic.
    TypeI,
    /// The boundary is a *physical* one: HW and SW "are modeled at the
    /// same level of abstraction and are physically separate
    /// components", e.g. a processor plus a custom co-processor.
    TypeII,
    /// A mixture of both boundary kinds; the paper notes "no published
    /// work has addressed this situation".
    Mixed,
}

impl std::fmt::Display for SystemType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SystemType::TypeI => "Type I",
            SystemType::TypeII => "Type II",
            SystemType::Mixed => "Mixed I/II",
        };
        f.write_str(s)
    }
}

/// The system design tasks of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DesignTask {
    /// Simulating HW and SW together (Section 3.1).
    CoSimulation,
    /// Integrated synthesis of HW and SW (Section 3.2).
    CoSynthesis,
    /// Choosing what goes to hardware and what to software
    /// (Section 3.3); per Figure 2 a sub-activity of co-synthesis.
    Partitioning,
}

impl std::fmt::Display for DesignTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DesignTask::CoSimulation => "co-simulation",
            DesignTask::CoSynthesis => "co-synthesis",
            DesignTask::Partitioning => "partitioning",
        };
        f.write_str(s)
    }
}

/// The interface-abstraction ladder of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InterfaceAbstraction {
    /// Bus/CPU pin and signal activity.
    SignalActivity,
    /// Register reads and writes.
    RegisterTransfers,
    /// Device-driver calls and interrupts.
    DeviceDrivers,
    /// OS-level `send`/`receive`/`wait`.
    Messages,
}

impl std::fmt::Display for InterfaceAbstraction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            InterfaceAbstraction::SignalActivity => "signal activity",
            InterfaceAbstraction::RegisterTransfers => "register reads/writes",
            InterfaceAbstraction::DeviceDrivers => "device drivers/interrupts",
            InterfaceAbstraction::Messages => "send/receive/wait",
        };
        f.write_str(s)
    }
}

/// The partitioning considerations of Section 3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PartitioningFactor {
    /// Performance requirements.
    Performance,
    /// Implementation cost (including resource sharing).
    ImplementationCost,
    /// Modifiability of the function or algorithm.
    Modifiability,
    /// Nature of the computation (e.g. parallelism affinity).
    NatureOfComputation,
    /// Concurrency among physically separate components (Type II only).
    Concurrency,
    /// Communication overhead across the boundary (Type II only).
    Communication,
}

impl PartitioningFactor {
    /// All factors in the paper's order.
    pub const ALL: [PartitioningFactor; 6] = [
        PartitioningFactor::Performance,
        PartitioningFactor::ImplementationCost,
        PartitioningFactor::Modifiability,
        PartitioningFactor::NatureOfComputation,
        PartitioningFactor::Concurrency,
        PartitioningFactor::Communication,
    ];
}

impl std::fmt::Display for PartitioningFactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PartitioningFactor::Performance => "performance",
            PartitioningFactor::ImplementationCost => "cost",
            PartitioningFactor::Modifiability => "modifiability",
            PartitioningFactor::NatureOfComputation => "nature",
            PartitioningFactor::Concurrency => "concurrency",
            PartitioningFactor::Communication => "communication",
        };
        f.write_str(s)
    }
}

/// The system classes of the paper's Section 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SystemClass {
    /// Embedded microprocessor plus interface/glue logic (4.1).
    EmbeddedMicroprocessor,
    /// Heterogeneous distributed multiprocessor (4.2).
    HeterogeneousMultiprocessor,
    /// Application-specific instruction-set processor (4.3).
    Asip,
    /// Special-purpose functional units, possibly reconfigurable (4.4).
    SpecialFunctionalUnits,
    /// Application-specific co-processor (4.5).
    Coprocessor,
    /// Multi-threaded co-processor (4.5.1).
    MultiThreadedCoprocessor,
}

impl std::fmt::Display for SystemClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SystemClass::EmbeddedMicroprocessor => "embedded microprocessor",
            SystemClass::HeterogeneousMultiprocessor => "heterogeneous multiprocessor",
            SystemClass::Asip => "ASIP",
            SystemClass::SpecialFunctionalUnits => "special functional units",
            SystemClass::Coprocessor => "co-processor",
            SystemClass::MultiThreadedCoprocessor => "multi-threaded co-processor",
        };
        f.write_str(s)
    }
}

/// One co-design approach described along the paper's four criteria.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Methodology {
    /// Short name (e.g. `"Chinook"`).
    pub name: String,
    /// Citation or module path identifying the approach.
    pub reference: String,
    /// Which system class it targets.
    pub system_class: SystemClass,
    /// Criterion 1: the system type.
    pub system_type: SystemType,
    /// Criterion 2: the design tasks addressed.
    pub tasks: BTreeSet<DesignTask>,
    /// Criterion 3: the co-simulation abstraction level, if any.
    pub cosim_level: Option<InterfaceAbstraction>,
    /// Criterion 4: the partitioning considerations, if any.
    pub partition_factors: BTreeSet<PartitioningFactor>,
}

/// A violation of the taxonomy's structural rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaxonomyViolation {
    /// Human-readable description.
    pub reason: String,
}

impl std::fmt::Display for TaxonomyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for TaxonomyViolation {}

impl Methodology {
    /// Creates a methodology with no tasks; populate with the builder
    /// methods.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        reference: impl Into<String>,
        system_class: SystemClass,
        system_type: SystemType,
    ) -> Self {
        Methodology {
            name: name.into(),
            reference: reference.into(),
            system_class,
            system_type,
            tasks: BTreeSet::new(),
            cosim_level: None,
            partition_factors: BTreeSet::new(),
        }
    }

    /// Marks the methodology as co-simulating at the given level.
    #[must_use]
    pub fn with_cosimulation(mut self, level: InterfaceAbstraction) -> Self {
        self.tasks.insert(DesignTask::CoSimulation);
        self.cosim_level = Some(level);
        self
    }

    /// Marks the methodology as performing co-synthesis.
    #[must_use]
    pub fn with_cosynthesis(mut self) -> Self {
        self.tasks.insert(DesignTask::CoSynthesis);
        self
    }

    /// Marks the methodology as partitioning under the given factors
    /// (implies co-synthesis, per Figure 2).
    #[must_use]
    pub fn with_partitioning(
        mut self,
        factors: impl IntoIterator<Item = PartitioningFactor>,
    ) -> Self {
        self.tasks.insert(DesignTask::CoSynthesis);
        self.tasks.insert(DesignTask::Partitioning);
        self.partition_factors.extend(factors);
        self
    }

    /// Checks the structural rules of the taxonomy.
    ///
    /// # Errors
    ///
    /// Returns a [`TaxonomyViolation`] if:
    /// * partitioning is claimed without co-synthesis (Figure 2 nests
    ///   partitioning inside co-synthesis);
    /// * a co-simulation level is given without the co-simulation task,
    ///   or vice versa;
    /// * partitioning factors are given without the partitioning task,
    ///   or vice versa;
    /// * `Concurrency`/`Communication` factors are claimed for a Type I
    ///   system (the paper introduces them "for Type II systems", where
    ///   partitioning "implies physical partitioning").
    pub fn validate(&self) -> Result<(), TaxonomyViolation> {
        let fail = |reason: String| Err(TaxonomyViolation { reason });
        if self.tasks.contains(&DesignTask::Partitioning)
            && !self.tasks.contains(&DesignTask::CoSynthesis)
        {
            return fail(format!(
                "{}: partitioning without co-synthesis contradicts Figure 2",
                self.name
            ));
        }
        if self.cosim_level.is_some() != self.tasks.contains(&DesignTask::CoSimulation) {
            return fail(format!(
                "{}: co-simulation level and task must appear together",
                self.name
            ));
        }
        if self.partition_factors.is_empty() == self.tasks.contains(&DesignTask::Partitioning) {
            return fail(format!(
                "{}: partitioning factors and task must appear together",
                self.name
            ));
        }
        if self.system_type == SystemType::TypeI
            && (self
                .partition_factors
                .contains(&PartitioningFactor::Concurrency)
                || self
                    .partition_factors
                    .contains(&PartitioningFactor::Communication))
        {
            return fail(format!(
                "{}: concurrency/communication factors require a physical (Type II) boundary",
                self.name
            ));
        }
        if self.tasks.is_empty() {
            return fail(format!("{}: no design tasks addressed", self.name));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Methodology {
        Methodology::new("x", "[0]", SystemClass::Coprocessor, SystemType::TypeII)
    }

    #[test]
    fn builder_produces_valid_methodologies() {
        let m = base()
            .with_cosimulation(InterfaceAbstraction::Messages)
            .with_partitioning([
                PartitioningFactor::Performance,
                PartitioningFactor::Communication,
            ]);
        m.validate().unwrap();
        assert!(m.tasks.contains(&DesignTask::CoSynthesis), "implied");
    }

    #[test]
    fn partitioning_without_cosynthesis_rejected() {
        let mut m = base();
        m.tasks.insert(DesignTask::Partitioning);
        m.partition_factors.insert(PartitioningFactor::Performance);
        assert!(m.validate().is_err());
    }

    #[test]
    fn cosim_level_requires_cosim_task() {
        let mut m = base().with_cosynthesis();
        m.cosim_level = Some(InterfaceAbstraction::SignalActivity);
        assert!(m.validate().is_err());
    }

    #[test]
    fn factors_require_partitioning_task() {
        let mut m = base().with_cosynthesis();
        m.partition_factors.insert(PartitioningFactor::Performance);
        assert!(m.validate().is_err());
    }

    #[test]
    fn partitioning_task_requires_factors() {
        let mut m = base().with_cosynthesis();
        m.tasks.insert(DesignTask::Partitioning);
        assert!(m.validate().is_err());
    }

    #[test]
    fn type1_cannot_weigh_communication() {
        let m = Methodology::new("t1", "[x]", SystemClass::Asip, SystemType::TypeI)
            .with_partitioning([PartitioningFactor::Communication]);
        assert!(m.validate().is_err());
        let ok = Methodology::new("t1", "[x]", SystemClass::Asip, SystemType::TypeI)
            .with_partitioning([PartitioningFactor::Modifiability]);
        ok.validate().unwrap();
    }

    #[test]
    fn empty_methodology_rejected() {
        assert!(base().validate().is_err());
    }

    #[test]
    fn displays_match_paper_vocabulary() {
        assert_eq!(SystemType::TypeI.to_string(), "Type I");
        assert_eq!(
            InterfaceAbstraction::Messages.to_string(),
            "send/receive/wait"
        );
        assert_eq!(DesignTask::Partitioning.to_string(), "partitioning");
        assert_eq!(PartitioningFactor::ALL.len(), 6);
    }
}
