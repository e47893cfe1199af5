//! Finite-state-machine-with-datapath (FSMD) models.
//!
//! An [`Fsmd`] is the canonical product of behavioral synthesis: a
//! controller (the state table) driving a datapath (registers and
//! functional units executing register transfers). `codesign-hls` compiles
//! CDFG kernels into this form; [`FsmdSim`] executes it cycle-accurately
//! with a start/done handshake, so a synthesized co-processor can be
//! mounted on the system bus next to the instruction-set processor —
//! the paper's Type II configuration (Figure 8).
//!
//! Register-transfer semantics are synchronous: all micro-operations of a
//! state read the *old* register values and their writes become visible
//! together at the next clock edge.

use codesign_ir::cdfg::OpKind;

use crate::error::RtlError;

/// Identifier of a datapath register within one [`Fsmd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegId(pub u32);

impl RegId {
    /// Returns the dense index of this register.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a controller state within one [`Fsmd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// Returns the dense index of this state.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A micro-operation operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A datapath register.
    Reg(RegId),
    /// An immediate constant.
    Const(i64),
    /// An external input port, latched when the FSMD is started.
    Input(u16),
}

/// One register transfer: `dst <- op(args…)`, executed in a single state.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroOp {
    /// Destination register.
    pub dst: RegId,
    /// Operation; must be a computational [`OpKind`] (not
    /// `Input`/`Const`/`Output`, which are represented by [`Operand`]s).
    pub op: OpKind,
    /// Operands, matching [`OpKind::arity`].
    pub args: Vec<Operand>,
}

/// Controller transition out of a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Fall through to the next state in index order.
    Step,
    /// Jump to a specific state.
    Goto(StateId),
    /// Two-way branch on a register being zero.
    BranchZero {
        /// Register tested against zero.
        reg: RegId,
        /// Target when the register is zero.
        then_state: StateId,
        /// Target otherwise.
        else_state: StateId,
    },
    /// Assert `done`; outputs are valid.
    Done,
}

/// One controller state: the register transfers it performs and where it
/// goes next.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    /// Register transfers executed in parallel in this state.
    pub ops: Vec<MicroOp>,
    /// Controller transition.
    pub next: Next,
}

/// A complete FSMD: controller state table plus datapath shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Fsmd {
    name: String,
    registers: u32,
    inputs: u16,
    output_regs: Vec<RegId>,
    states: Vec<State>,
}

impl Fsmd {
    /// Creates an FSMD with the given datapath shape. States are appended
    /// with [`Fsmd::add_state`]; execution starts at state 0.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        registers: u32,
        inputs: u16,
        output_regs: Vec<RegId>,
    ) -> Self {
        Fsmd {
            name: name.into(),
            registers,
            inputs,
            output_regs,
            states: Vec::new(),
        }
    }

    /// FSMD name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of datapath registers.
    #[must_use]
    pub fn register_count(&self) -> u32 {
        self.registers
    }

    /// Number of input ports.
    #[must_use]
    pub fn input_count(&self) -> u16 {
        self.inputs
    }

    /// Registers presented as outputs when `done` is asserted.
    #[must_use]
    pub fn output_regs(&self) -> &[RegId] {
        &self.output_regs
    }

    /// Number of controller states.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// All states in index order.
    #[must_use]
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// Appends a state and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::FsmdBounds`] if a micro-op references a register
    /// or input out of range, or uses a non-computational [`OpKind`]
    /// (reported as an out-of-range `"opcode"`), or has the wrong operand
    /// count.
    pub fn add_state(&mut self, state: State) -> Result<StateId, RtlError> {
        for op in &state.ops {
            match op.op {
                OpKind::Input(_) | OpKind::Const(_) | OpKind::Output(_) => {
                    return Err(RtlError::FsmdBounds {
                        what: "opcode",
                        index: op.dst.index(),
                    })
                }
                _ => {}
            }
            if op.args.len() != op.op.arity() {
                return Err(RtlError::FsmdBounds {
                    what: "operand count",
                    index: op.args.len(),
                });
            }
            if op.dst.0 >= self.registers {
                return Err(RtlError::FsmdBounds {
                    what: "register",
                    index: op.dst.index(),
                });
            }
            for a in &op.args {
                match *a {
                    Operand::Reg(r) if r.0 >= self.registers => {
                        return Err(RtlError::FsmdBounds {
                            what: "register",
                            index: r.index(),
                        })
                    }
                    Operand::Input(i) if i >= self.inputs => {
                        return Err(RtlError::FsmdBounds {
                            what: "input",
                            index: i as usize,
                        })
                    }
                    _ => {}
                }
            }
        }
        let id = StateId(self.states.len() as u32);
        self.states.push(state);
        Ok(id)
    }

    /// Validates that every transition target exists and output registers
    /// are in range.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::FsmdBounds`] naming the offending reference.
    pub fn validate(&self) -> Result<(), RtlError> {
        for r in &self.output_regs {
            if r.0 >= self.registers {
                return Err(RtlError::FsmdBounds {
                    what: "register",
                    index: r.index(),
                });
            }
        }
        for (i, s) in self.states.iter().enumerate() {
            let targets: Vec<usize> = match s.next {
                Next::Step => vec![i + 1],
                Next::Goto(t) => vec![t.index()],
                Next::BranchZero {
                    then_state,
                    else_state,
                    reg,
                } => {
                    if reg.0 >= self.registers {
                        return Err(RtlError::FsmdBounds {
                            what: "register",
                            index: reg.index(),
                        });
                    }
                    vec![then_state.index(), else_state.index()]
                }
                Next::Done => vec![],
            };
            for t in targets {
                if t >= self.states.len() {
                    return Err(RtlError::FsmdBounds {
                        what: "state",
                        index: t,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Execution status of an [`FsmdSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsmdStatus {
    /// Waiting for [`FsmdSim::start`].
    Idle,
    /// Executing; `tick` advances one state per cycle.
    Running,
    /// `done` asserted; outputs valid.
    Done,
}

/// Cycle-accurate FSMD interpreter with a start/done handshake.
#[derive(Debug, Clone)]
pub struct FsmdSim {
    fsmd: Fsmd,
    regs: Vec<i64>,
    inputs: Vec<i64>,
    state: StateId,
    status: FsmdStatus,
    cycles: u64,
    /// Reusable write buffer for [`FsmdSim::tick`], so the per-cycle
    /// register-transfer staging does not allocate.
    scratch: Vec<(RegId, i64)>,
}

impl FsmdSim {
    /// Creates an idle simulator for a validated FSMD.
    ///
    /// # Errors
    ///
    /// Propagates [`Fsmd::validate`] failures.
    pub fn new(fsmd: Fsmd) -> Result<Self, RtlError> {
        fsmd.validate()?;
        let regs = vec![0; fsmd.register_count() as usize];
        let inputs = vec![0; fsmd.input_count() as usize];
        Ok(FsmdSim {
            fsmd,
            regs,
            inputs,
            state: StateId(0),
            status: FsmdStatus::Idle,
            cycles: 0,
            scratch: Vec::new(),
        })
    }

    /// The underlying FSMD.
    #[must_use]
    pub fn fsmd(&self) -> &Fsmd {
        &self.fsmd
    }

    /// Current status.
    #[must_use]
    pub fn status(&self) -> FsmdStatus {
        self.status
    }

    /// Cycles executed since the last [`FsmdSim::start`].
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The controller state about to execute (meaningful while running).
    #[must_use]
    pub fn current_state(&self) -> StateId {
        self.state
    }

    /// Current value of a datapath register (for controller/datapath
    /// co-verification and waveform-style debugging).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range for this FSMD.
    #[must_use]
    pub fn reg(&self, r: RegId) -> i64 {
        self.regs[r.index()]
    }

    /// Latches the inputs, clears the registers, and begins execution at
    /// state 0 on the next [`FsmdSim::tick`]. An FSMD with no states
    /// completes immediately.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the FSMD's input port count.
    pub fn start(&mut self, inputs: &[i64]) {
        assert_eq!(
            inputs.len(),
            self.fsmd.input_count() as usize,
            "input port count mismatch"
        );
        self.inputs.copy_from_slice(inputs);
        self.regs.fill(0);
        self.state = StateId(0);
        self.cycles = 0;
        self.status = if self.fsmd.state_count() == 0 {
            FsmdStatus::Done
        } else {
            FsmdStatus::Running
        };
    }

    /// Serializes the mutable execution state (registers, latched
    /// inputs, controller state, status, cycle count). The FSMD
    /// structure itself is static and not written.
    pub fn save_state(&self, w: &mut crate::state::StateWriter) {
        w.seq(self.regs.len());
        for &v in &self.regs {
            w.i64(v);
        }
        w.seq(self.inputs.len());
        for &v in &self.inputs {
            w.i64(v);
        }
        w.u32(self.state.0);
        w.u8(match self.status {
            FsmdStatus::Idle => 0,
            FsmdStatus::Running => 1,
            FsmdStatus::Done => 2,
        });
        w.u64(self.cycles);
    }

    /// Restores state captured by [`FsmdSim::save_state`] into a
    /// simulator over the same FSMD.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::State`] on truncation or a register/input
    /// count mismatch.
    pub fn restore_state(&mut self, r: &mut crate::state::StateReader<'_>) -> Result<(), RtlError> {
        let n = r.seq(Some(self.regs.len()))?;
        for i in 0..n {
            self.regs[i] = r.i64()?;
        }
        let n = r.seq(Some(self.inputs.len()))?;
        for i in 0..n {
            self.inputs[i] = r.i64()?;
        }
        self.state = StateId(r.u32()?);
        self.status = match r.u8()? {
            0 => FsmdStatus::Idle,
            1 => FsmdStatus::Running,
            2 => FsmdStatus::Done,
            other => {
                return Err(RtlError::State {
                    reason: format!("unknown fsmd status tag {other}"),
                })
            }
        };
        self.cycles = r.u64()?;
        Ok(())
    }

    fn read(&self, operand: Operand) -> i64 {
        match operand {
            Operand::Reg(r) => self.regs[r.index()],
            Operand::Const(c) => c,
            Operand::Input(i) => self.inputs[i as usize],
        }
    }

    /// Advances one clock cycle. Has no effect when idle or done.
    pub fn tick(&mut self) {
        if self.status != FsmdStatus::Running {
            return;
        }
        self.cycles += 1;
        // Take the scratch buffer so ops can read `self` while staging
        // into it; capacity is reused across ticks (no allocation on the
        // co-simulation hot path).
        let mut writes = std::mem::take(&mut self.scratch);
        writes.clear();
        let state = &self.fsmd.states[self.state.index()];
        // Synchronous register-transfer: reads see pre-edge values.
        writes.extend(state.ops.iter().map(|op| {
            let a = |k: usize| self.read(op.args[k]);
            let v = match op.op {
                OpKind::Add => a(0).wrapping_add(a(1)),
                OpKind::Sub => a(0).wrapping_sub(a(1)),
                OpKind::Mul => a(0).wrapping_mul(a(1)),
                // Hardware dividers do not trap: x/0 = 0, x%0 = x.
                OpKind::Div => a(0).checked_div(a(1)).unwrap_or(0),
                OpKind::Rem => {
                    let d = a(1);
                    if d == 0 {
                        a(0)
                    } else {
                        a(0).wrapping_rem(d)
                    }
                }
                OpKind::And => a(0) & a(1),
                OpKind::Or => a(0) | a(1),
                OpKind::Xor => a(0) ^ a(1),
                OpKind::Not => !a(0),
                OpKind::Neg => a(0).wrapping_neg(),
                OpKind::Shl => a(0).wrapping_shl((a(1) & 0x3f) as u32),
                OpKind::Shr => a(0).wrapping_shr((a(1) & 0x3f) as u32),
                OpKind::Lt => i64::from(a(0) < a(1)),
                OpKind::Le => i64::from(a(0) <= a(1)),
                OpKind::Eq => i64::from(a(0) == a(1)),
                OpKind::Ne => i64::from(a(0) != a(1)),
                OpKind::Select => {
                    if a(0) != 0 {
                        a(1)
                    } else {
                        a(2)
                    }
                }
                OpKind::Min => a(0).min(a(1)),
                OpKind::Max => a(0).max(a(1)),
                OpKind::Abs => a(0).wrapping_abs(),
                // Input/Const/Output are rejected by add_state;
                // OpKind is non-exhaustive, so future kinds also land
                // here until they get a datapath implementation.
                _ => unreachable!("structural opcode rejected by add_state"),
            };
            (op.dst, v)
        }));
        let next = state.next;
        for &(r, v) in &writes {
            self.regs[r.index()] = v;
        }
        self.scratch = writes;
        match next {
            Next::Step => {
                let n = self.state.index() + 1;
                if n >= self.fsmd.state_count() {
                    self.status = FsmdStatus::Done;
                } else {
                    self.state = StateId(n as u32);
                }
            }
            Next::Goto(t) => self.state = t,
            Next::BranchZero {
                reg,
                then_state,
                else_state,
            } => {
                self.state = if self.regs[reg.index()] == 0 {
                    then_state
                } else {
                    else_state
                };
            }
            Next::Done => self.status = FsmdStatus::Done,
        }
    }

    /// Batched clocking: ticks up to `max_ticks` cycles while running and
    /// returns the number actually executed (short only when `done` is
    /// reached). One call replaces a per-cycle check-then-tick loop on the
    /// co-simulation hot path; has no effect when idle or done.
    pub fn run_ticks(&mut self, max_ticks: u64) -> u64 {
        let mut n = 0;
        while n < max_ticks && self.status == FsmdStatus::Running {
            self.tick();
            n += 1;
        }
        n
    }

    /// Output values; meaningful once status is [`FsmdStatus::Done`].
    #[must_use]
    pub fn outputs(&self) -> Vec<i64> {
        self.fsmd
            .output_regs()
            .iter()
            .map(|r| self.regs[r.index()])
            .collect()
    }

    /// Convenience: starts on `inputs` and ticks until done.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::FsmdTimeout`] if `done` is not reached within
    /// `max_cycles`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the FSMD's input port count.
    pub fn run(&mut self, inputs: &[i64], max_cycles: u64) -> Result<Vec<i64>, RtlError> {
        self.start(inputs);
        self.run_ticks(max_cycles);
        if self.status == FsmdStatus::Running {
            return Err(RtlError::FsmdTimeout {
                cycles: self.cycles,
            });
        }
        Ok(self.outputs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FSMD computing out = (in0 + in1) * in2 over two states.
    fn mac_fsmd() -> Fsmd {
        let mut f = Fsmd::new("mac", 2, 3, vec![RegId(1)]);
        f.add_state(State {
            ops: vec![MicroOp {
                dst: RegId(0),
                op: OpKind::Add,
                args: vec![Operand::Input(0), Operand::Input(1)],
            }],
            next: Next::Step,
        })
        .unwrap();
        f.add_state(State {
            ops: vec![MicroOp {
                dst: RegId(1),
                op: OpKind::Mul,
                args: vec![Operand::Reg(RegId(0)), Operand::Input(2)],
            }],
            next: Next::Done,
        })
        .unwrap();
        f
    }

    #[test]
    fn mac_runs_in_two_cycles() {
        let mut sim = FsmdSim::new(mac_fsmd()).unwrap();
        let out = sim.run(&[3, 4, 5], 100).unwrap();
        assert_eq!(out, vec![35]);
        assert_eq!(sim.cycles(), 2);
        assert_eq!(sim.status(), FsmdStatus::Done);
    }

    #[test]
    fn restart_clears_state() {
        let mut sim = FsmdSim::new(mac_fsmd()).unwrap();
        sim.run(&[3, 4, 5], 100).unwrap();
        let out = sim.run(&[1, 1, 10], 100).unwrap();
        assert_eq!(out, vec![20]);
    }

    #[test]
    fn register_transfers_read_pre_edge_values() {
        // Swap r0 and r1 in one state; both must read old values.
        let mut f = Fsmd::new("swap", 2, 2, vec![RegId(0), RegId(1)]);
        f.add_state(State {
            ops: vec![
                MicroOp {
                    dst: RegId(0),
                    op: OpKind::Add,
                    args: vec![Operand::Input(0), Operand::Const(0)],
                },
                MicroOp {
                    dst: RegId(1),
                    op: OpKind::Add,
                    args: vec![Operand::Input(1), Operand::Const(0)],
                },
            ],
            next: Next::Step,
        })
        .unwrap();
        f.add_state(State {
            ops: vec![
                MicroOp {
                    dst: RegId(0),
                    op: OpKind::Add,
                    args: vec![Operand::Reg(RegId(1)), Operand::Const(0)],
                },
                MicroOp {
                    dst: RegId(1),
                    op: OpKind::Add,
                    args: vec![Operand::Reg(RegId(0)), Operand::Const(0)],
                },
            ],
            next: Next::Done,
        })
        .unwrap();
        let mut sim = FsmdSim::new(f).unwrap();
        assert_eq!(sim.run(&[7, 9], 10).unwrap(), vec![9, 7]);
    }

    #[test]
    fn branch_loop_counts_down() {
        // r0 = in0; while r0 != 0 { r1 += 2; r0 -= 1 }
        let mut f = Fsmd::new("loop", 2, 1, vec![RegId(1)]);
        f.add_state(State {
            ops: vec![MicroOp {
                dst: RegId(0),
                op: OpKind::Add,
                args: vec![Operand::Input(0), Operand::Const(0)],
            }],
            next: Next::Step,
        })
        .unwrap();
        f.add_state(State {
            ops: vec![],
            next: Next::BranchZero {
                reg: RegId(0),
                then_state: StateId(3),
                else_state: StateId(2),
            },
        })
        .unwrap();
        f.add_state(State {
            ops: vec![
                MicroOp {
                    dst: RegId(1),
                    op: OpKind::Add,
                    args: vec![Operand::Reg(RegId(1)), Operand::Const(2)],
                },
                MicroOp {
                    dst: RegId(0),
                    op: OpKind::Sub,
                    args: vec![Operand::Reg(RegId(0)), Operand::Const(1)],
                },
            ],
            next: Next::Goto(StateId(1)),
        })
        .unwrap();
        f.add_state(State {
            ops: vec![],
            next: Next::Done,
        })
        .unwrap();
        let mut sim = FsmdSim::new(f).unwrap();
        assert_eq!(sim.run(&[5], 1000).unwrap(), vec![10]);
    }

    #[test]
    fn timeout_detected() {
        let mut f = Fsmd::new("hang", 1, 0, vec![]);
        f.add_state(State {
            ops: vec![],
            next: Next::Goto(StateId(0)),
        })
        .unwrap();
        let mut sim = FsmdSim::new(f).unwrap();
        assert!(matches!(
            sim.run(&[], 50),
            Err(RtlError::FsmdTimeout { cycles: 50 })
        ));
    }

    #[test]
    fn bounds_validated() {
        let mut f = Fsmd::new("bad", 1, 1, vec![]);
        // Register out of range.
        assert!(f
            .add_state(State {
                ops: vec![MicroOp {
                    dst: RegId(5),
                    op: OpKind::Add,
                    args: vec![Operand::Const(0), Operand::Const(0)],
                }],
                next: Next::Done,
            })
            .is_err());
        // Input out of range.
        assert!(f
            .add_state(State {
                ops: vec![MicroOp {
                    dst: RegId(0),
                    op: OpKind::Add,
                    args: vec![Operand::Input(3), Operand::Const(0)],
                }],
                next: Next::Done,
            })
            .is_err());
        // Wrong operand count.
        assert!(f
            .add_state(State {
                ops: vec![MicroOp {
                    dst: RegId(0),
                    op: OpKind::Add,
                    args: vec![Operand::Const(0)],
                }],
                next: Next::Done,
            })
            .is_err());
        // Structural opcodes rejected.
        assert!(f
            .add_state(State {
                ops: vec![MicroOp {
                    dst: RegId(0),
                    op: OpKind::Const(3),
                    args: vec![],
                }],
                next: Next::Done,
            })
            .is_err());
    }

    #[test]
    fn dangling_goto_caught_by_validate() {
        let mut f = Fsmd::new("bad", 1, 0, vec![]);
        f.add_state(State {
            ops: vec![],
            next: Next::Goto(StateId(9)),
        })
        .unwrap();
        assert!(matches!(
            FsmdSim::new(f),
            Err(RtlError::FsmdBounds {
                what: "state",
                index: 9
            })
        ));
    }

    #[test]
    fn hardware_division_does_not_trap() {
        let mut f = Fsmd::new("div0", 1, 2, vec![RegId(0)]);
        f.add_state(State {
            ops: vec![MicroOp {
                dst: RegId(0),
                op: OpKind::Div,
                args: vec![Operand::Input(0), Operand::Input(1)],
            }],
            next: Next::Done,
        })
        .unwrap();
        let mut sim = FsmdSim::new(f).unwrap();
        assert_eq!(sim.run(&[10, 0], 10).unwrap(), vec![0]);
    }

    #[test]
    fn empty_fsmd_completes_immediately() {
        let f = Fsmd::new("empty", 0, 0, vec![]);
        let mut sim = FsmdSim::new(f).unwrap();
        sim.start(&[]);
        assert_eq!(sim.status(), FsmdStatus::Done);
        assert!(sim.outputs().is_empty());
    }
}
