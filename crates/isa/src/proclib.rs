//! A parametric processor library for heterogeneous multiprocessor
//! co-synthesis.
//!
//! The paper's Section 4.2 describes flows (SOS \[12\], Beck \[13\]) where
//! "the processing elements are chosen from a library of available
//! microprocessors, each characterized in terms of processing speed and
//! cost". This module is that library: a set of [`ProcessorModel`]s whose
//! speed factors scale task software costs measured on the CR32 reference
//! core.

/// One processing-element type available to the allocator.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorModel {
    name: String,
    speed: f64,
    cost: f64,
    context_switch_cycles: u64,
}

impl ProcessorModel {
    /// Creates a model. `speed` scales throughput relative to the CR32
    /// reference core (2.0 halves every task's cycle count); `cost` is
    /// the unit price in abstract dollars.
    ///
    /// # Panics
    ///
    /// Panics if `speed <= 0` or `cost < 0`.
    #[must_use]
    pub fn new(name: impl Into<String>, speed: f64, cost: f64) -> Self {
        assert!(speed > 0.0, "speed must be positive");
        assert!(cost >= 0.0, "cost must be non-negative");
        ProcessorModel {
            name: name.into(),
            speed,
            cost,
            context_switch_cycles: 50,
        }
    }

    /// Sets the context-switch overhead in reference cycles.
    #[must_use]
    pub fn with_context_switch(mut self, cycles: u64) -> Self {
        self.context_switch_cycles = cycles;
        self
    }

    /// Model name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Throughput relative to the reference core.
    #[must_use]
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Unit cost.
    #[must_use]
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Context-switch overhead in cycles on this processor.
    #[must_use]
    pub fn context_switch_cycles(&self) -> u64 {
        self.context_switch_cycles
    }

    /// Cycles a task needs on this processor, given its cost on the
    /// reference core.
    #[must_use]
    pub fn scale_cycles(&self, reference_cycles: u64) -> u64 {
        ((reference_cycles as f64 / self.speed).ceil() as u64).max(1)
    }
}

/// The default library: five processors spanning a 12× speed range with
/// super-linear cost, the shape that makes the paper's Section 4.2
/// trade-off real — "a more highly parallel architecture allows the use
/// of slower, less-expensive processing elements".
#[must_use]
pub fn standard_library() -> Vec<ProcessorModel> {
    vec![
        ProcessorModel::new("micro8", 0.5, 1.0).with_context_switch(20),
        ProcessorModel::new("cr32", 1.0, 3.0).with_context_switch(50),
        ProcessorModel::new("cr32-turbo", 2.0, 8.0).with_context_switch(50),
        ProcessorModel::new("dsp56", 3.0, 15.0).with_context_switch(80),
        ProcessorModel::new("riscy64", 6.0, 40.0).with_context_switch(120),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_rounds_up_and_floors_at_one() {
        let p = ProcessorModel::new("x", 3.0, 1.0);
        assert_eq!(p.scale_cycles(10), 4);
        assert_eq!(p.scale_cycles(1), 1);
        assert_eq!(p.scale_cycles(0), 1);
    }

    #[test]
    fn library_spans_speed_and_cost() {
        let lib = standard_library();
        assert_eq!(lib.len(), 5);
        let speeds: Vec<f64> = lib.iter().map(ProcessorModel::speed).collect();
        assert!(speeds.windows(2).all(|w| w[0] < w[1]), "sorted by speed");
        // Cost grows super-linearly with speed: cost/speed increases.
        let ratios: Vec<f64> = lib.iter().map(|p| p.cost() / p.speed()).collect();
        assert!(ratios.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_rejected() {
        let _ = ProcessorModel::new("bad", 0.0, 1.0);
    }
}
