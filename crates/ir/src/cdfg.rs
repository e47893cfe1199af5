//! Operation-level control/data-flow graphs.
//!
//! A [`Cdfg`] is the fine-grain behavioral view the paper's co-processor
//! and ASIP flows operate on (Sections 4.3–4.5): a pure data-flow graph of
//! word-level operations in SSA form. Construction is append-only — an
//! operation may only reference operations created before it — so every
//! graph is acyclic by construction and the insertion order is a valid
//! topological/schedulable order.
//!
//! CDFGs are executable via [`Cdfg::evaluate`], which interprets the graph
//! on concrete `i64` inputs. This gives the whole repository a single
//! functional reference: software compiled from a CDFG by `codesign-isa`
//! and hardware synthesized from it by `codesign-hls` are both verified
//! against the interpreter, which is exactly the "verifying the
//! functionality of the system" role the paper assigns to co-simulation
//! (Section 3.1).

use crate::error::IrError;

/// Identifier of an operation (and of the value it produces) within one
/// [`Cdfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub(crate) u32);

impl OpId {
    /// Creates an id from a dense index. Ids are only meaningful for the
    /// graph that has at least `index + 1` operations.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        OpId(index as u32)
    }

    /// Returns the dense index of this operation.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// The functional-unit class an operation requires when implemented in
/// hardware, and the instruction class it maps to in software.
///
/// The class drives both the HLS resource model (`codesign-hls`) and the
/// per-instruction timing model (`codesign-isa`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FuClass {
    /// Add/subtract/compare-style ALU operations.
    Alu,
    /// Multiplication.
    Multiplier,
    /// Division and remainder.
    Divider,
    /// Bitwise logic and shifts.
    Logic,
    /// Wiring only: inputs, constants, outputs, selects.
    Free,
}

impl FuClass {
    /// All classes that occupy hardware resources, in a stable order.
    pub const RESOURCE_CLASSES: [FuClass; 4] = [
        FuClass::Alu,
        FuClass::Multiplier,
        FuClass::Divider,
        FuClass::Logic,
    ];
}

impl std::fmt::Display for FuClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FuClass::Alu => "alu",
            FuClass::Multiplier => "mul",
            FuClass::Divider => "div",
            FuClass::Logic => "logic",
            FuClass::Free => "free",
        };
        f.write_str(s)
    }
}

/// The operation performed by a CDFG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum OpKind {
    /// External input with the given index.
    Input(u32),
    /// Integer constant.
    Const(i64),
    /// External output with the given index; one operand.
    Output(u32),
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division; faults on divide-by-zero.
    Div,
    /// Signed remainder; faults on divide-by-zero.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Bitwise complement; one operand.
    Not,
    /// Arithmetic negation; one operand.
    Neg,
    /// Shift left by the low 6 bits of the second operand.
    Shl,
    /// Arithmetic shift right by the low 6 bits of the second operand.
    Shr,
    /// 1 if less-than, else 0.
    Lt,
    /// 1 if less-or-equal, else 0.
    Le,
    /// 1 if equal, else 0.
    Eq,
    /// 1 if not-equal, else 0.
    Ne,
    /// `cond ? a : b`; three operands, `cond` is non-zero test.
    Select,
    /// Minimum of two values.
    Min,
    /// Maximum of two values.
    Max,
    /// Absolute value; one operand.
    Abs,
}

impl OpKind {
    /// Number of operands this operation requires.
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            OpKind::Input(_) | OpKind::Const(_) => 0,
            OpKind::Output(_) | OpKind::Not | OpKind::Neg | OpKind::Abs => 1,
            OpKind::Select => 3,
            _ => 2,
        }
    }

    /// The functional-unit class required in hardware.
    #[must_use]
    pub fn fu_class(self) -> FuClass {
        match self {
            OpKind::Input(_) | OpKind::Const(_) | OpKind::Output(_) | OpKind::Select => {
                FuClass::Free
            }
            OpKind::Add
            | OpKind::Sub
            | OpKind::Neg
            | OpKind::Abs
            | OpKind::Min
            | OpKind::Max
            | OpKind::Lt
            | OpKind::Le
            | OpKind::Eq
            | OpKind::Ne => FuClass::Alu,
            OpKind::Mul => FuClass::Multiplier,
            OpKind::Div | OpKind::Rem => FuClass::Divider,
            OpKind::And | OpKind::Or | OpKind::Xor | OpKind::Not | OpKind::Shl | OpKind::Shr => {
                FuClass::Logic
            }
        }
    }

    /// Baseline software cost in reference-processor cycles.
    ///
    /// Mirrors the CR32 timing model in `codesign-isa`: single-cycle ALU
    /// and logic, multi-cycle multiply and divide.
    #[must_use]
    pub fn sw_cycles(self) -> u64 {
        match self.fu_class() {
            FuClass::Free => 0,
            FuClass::Alu | FuClass::Logic => 1,
            FuClass::Multiplier => 3,
            FuClass::Divider => 12,
        }
    }
}

/// One node of a [`Cdfg`].
#[derive(Debug, Clone, PartialEq)]
pub struct OpNode {
    kind: OpKind,
    args: Vec<OpId>,
}

impl OpNode {
    /// The operation performed.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// Operand value ids, in operand order.
    #[must_use]
    pub fn args(&self) -> &[OpId] {
        &self.args
    }
}

/// An executable, SSA-form data-flow graph.
///
/// # Example
///
/// ```
/// use codesign_ir::cdfg::{Cdfg, OpKind};
///
/// # fn main() -> Result<(), codesign_ir::IrError> {
/// // out0 = (in0 + in1) * 3
/// let mut g = Cdfg::new("mac");
/// let a = g.input();
/// let b = g.input();
/// let sum = g.op(OpKind::Add, &[a, b])?;
/// let three = g.constant(3);
/// let prod = g.op(OpKind::Mul, &[sum, three])?;
/// g.output(prod)?;
/// assert_eq!(g.evaluate(&[2, 5])?, vec![21]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdfg {
    name: String,
    ops: Vec<OpNode>,
    inputs: u32,
    outputs: u32,
}

impl Cdfg {
    /// Creates an empty graph.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Cdfg {
            name: name.into(),
            ops: Vec::new(),
            inputs: 0,
            outputs: 0,
        }
    }

    /// Graph name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends the next external input and returns its value id.
    pub fn input(&mut self) -> OpId {
        let idx = self.inputs;
        self.inputs += 1;
        self.push(OpKind::Input(idx), Vec::new())
    }

    /// Appends an integer constant and returns its value id.
    pub fn constant(&mut self, value: i64) -> OpId {
        self.push(OpKind::Const(value), Vec::new())
    }

    /// Appends an operation over previously created values.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Invalid`] if the operand count does not match
    /// [`OpKind::arity`], if `kind` is a nullary `Input`/`Const` (use
    /// [`Cdfg::input`]/[`Cdfg::constant`]) or an `Output` (use
    /// [`Cdfg::output`]), and [`IrError::UnknownNode`] if an operand id is
    /// not an existing value of this graph.
    pub fn op(&mut self, kind: OpKind, args: &[OpId]) -> Result<OpId, IrError> {
        match kind {
            OpKind::Input(_) | OpKind::Const(_) | OpKind::Output(_) => {
                return Err(IrError::Invalid {
                    reason: format!("{kind:?} must be created via its dedicated method"),
                })
            }
            _ => {}
        }
        self.check_args(kind, args)?;
        Ok(self.push(kind, args.to_vec()))
    }

    /// Appends the next external output fed by `value` and returns the
    /// output operation's id.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnknownNode`] if `value` is not an existing value
    /// of this graph.
    pub fn output(&mut self, value: OpId) -> Result<OpId, IrError> {
        let idx = self.outputs;
        self.check_args(OpKind::Output(idx), &[value])?;
        self.outputs += 1;
        Ok(self.push(OpKind::Output(idx), vec![value]))
    }

    fn check_args(&self, kind: OpKind, args: &[OpId]) -> Result<(), IrError> {
        if args.len() != kind.arity() {
            return Err(IrError::Invalid {
                reason: format!(
                    "{kind:?} takes {} operands, got {}",
                    kind.arity(),
                    args.len()
                ),
            });
        }
        for &a in args {
            if a.index() >= self.ops.len() {
                return Err(IrError::UnknownNode {
                    kind: "cdfg",
                    index: a.index(),
                });
            }
        }
        Ok(())
    }

    fn push(&mut self, kind: OpKind, args: Vec<OpId>) -> OpId {
        let id = OpId(self.ops.len() as u32);
        self.ops.push(OpNode { kind, args });
        id
    }

    /// Number of operations, including inputs, constants, and outputs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the graph has no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of external inputs.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.inputs as usize
    }

    /// Number of external outputs.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.outputs as usize
    }

    /// The operation with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn node(&self, id: OpId) -> &OpNode {
        &self.ops[id.index()]
    }

    /// Iterates over `(id, node)` pairs in topological (insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, &OpNode)> {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, n)| (OpId(i as u32), n))
    }

    /// Ids of operations that consume the value produced by `id`.
    pub fn consumers(&self, id: OpId) -> impl Iterator<Item = OpId> + '_ {
        self.ops
            .iter()
            .enumerate()
            .filter(move |(_, n)| n.args.contains(&id))
            .map(|(i, _)| OpId(i as u32))
    }

    /// Number of operations that occupy hardware resources (i.e. whose
    /// [`FuClass`] is not [`FuClass::Free`]).
    #[must_use]
    pub fn resource_op_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|n| n.kind.fu_class() != FuClass::Free)
            .count()
    }

    /// Count of resource operations per functional-unit class, indexed in
    /// the order of [`FuClass::RESOURCE_CLASSES`].
    #[must_use]
    pub fn class_histogram(&self) -> [usize; 4] {
        let mut h = [0usize; 4];
        for n in &self.ops {
            if let Some(i) = FuClass::RESOURCE_CLASSES
                .iter()
                .position(|&c| c == n.kind.fu_class())
            {
                h[i] += 1;
            }
        }
        h
    }

    /// Depth of the graph under a per-operation delay function: the length
    /// of the longest dependence chain. With unit delays this is the
    /// data-flow critical path in steps.
    #[must_use]
    pub fn depth(&self, delay: impl Fn(OpKind) -> u64) -> u64 {
        let mut finish = vec![0u64; self.ops.len()];
        let mut best = 0;
        for (i, n) in self.ops.iter().enumerate() {
            let start = n.args.iter().map(|a| finish[a.index()]).max().unwrap_or(0);
            finish[i] = start + delay(n.kind);
            best = best.max(finish[i]);
        }
        best
    }

    /// Total software cost in reference-processor cycles (sum of
    /// [`OpKind::sw_cycles`] over all operations).
    #[must_use]
    pub fn sw_cycles(&self) -> u64 {
        self.ops.iter().map(|n| n.kind.sw_cycles()).sum()
    }

    /// Interprets the graph on the given inputs.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InputArity`] if `inputs` does not match
    /// [`Cdfg::input_count`], and [`IrError::EvalFault`] on divide or
    /// remainder by zero.
    pub fn evaluate(&self, inputs: &[i64]) -> Result<Vec<i64>, IrError> {
        if inputs.len() != self.inputs as usize {
            return Err(IrError::InputArity {
                expected: self.inputs as usize,
                actual: inputs.len(),
            });
        }
        let mut values = vec![0i64; self.ops.len()];
        let mut outputs = vec![0i64; self.outputs as usize];
        for (i, n) in self.ops.iter().enumerate() {
            let arg = |k: usize| values[n.args[k].index()];
            let v = match n.kind {
                OpKind::Input(idx) => inputs[idx as usize],
                OpKind::Const(c) => c,
                OpKind::Output(idx) => {
                    outputs[idx as usize] = arg(0);
                    arg(0)
                }
                OpKind::Add => arg(0).wrapping_add(arg(1)),
                OpKind::Sub => arg(0).wrapping_sub(arg(1)),
                OpKind::Mul => arg(0).wrapping_mul(arg(1)),
                OpKind::Div => {
                    let d = arg(1);
                    if d == 0 {
                        return Err(IrError::EvalFault {
                            op: i,
                            reason: "divide by zero".to_string(),
                        });
                    }
                    arg(0).wrapping_div(d)
                }
                OpKind::Rem => {
                    let d = arg(1);
                    if d == 0 {
                        return Err(IrError::EvalFault {
                            op: i,
                            reason: "remainder by zero".to_string(),
                        });
                    }
                    arg(0).wrapping_rem(d)
                }
                OpKind::And => arg(0) & arg(1),
                OpKind::Or => arg(0) | arg(1),
                OpKind::Xor => arg(0) ^ arg(1),
                OpKind::Not => !arg(0),
                OpKind::Neg => arg(0).wrapping_neg(),
                OpKind::Shl => arg(0).wrapping_shl((arg(1) & 0x3f) as u32),
                OpKind::Shr => arg(0).wrapping_shr((arg(1) & 0x3f) as u32),
                OpKind::Lt => i64::from(arg(0) < arg(1)),
                OpKind::Le => i64::from(arg(0) <= arg(1)),
                OpKind::Eq => i64::from(arg(0) == arg(1)),
                OpKind::Ne => i64::from(arg(0) != arg(1)),
                OpKind::Select => {
                    if arg(0) != 0 {
                        arg(1)
                    } else {
                        arg(2)
                    }
                }
                OpKind::Min => arg(0).min(arg(1)),
                OpKind::Max => arg(0).max(arg(1)),
                OpKind::Abs => arg(0).wrapping_abs(),
            };
            values[i] = v;
        }
        Ok(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac() -> Cdfg {
        let mut g = Cdfg::new("mac");
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let prod = g.op(OpKind::Mul, &[a, b]).unwrap();
        let sum = g.op(OpKind::Add, &[prod, c]).unwrap();
        g.output(sum).unwrap();
        g
    }

    #[test]
    fn evaluate_mac() {
        let g = mac();
        assert_eq!(g.evaluate(&[3, 4, 5]).unwrap(), vec![17]);
        assert_eq!(g.evaluate(&[-2, 8, 1]).unwrap(), vec![-15]);
    }

    #[test]
    fn input_arity_checked() {
        let g = mac();
        assert_eq!(
            g.evaluate(&[1, 2]),
            Err(IrError::InputArity {
                expected: 3,
                actual: 2
            })
        );
    }

    #[test]
    fn divide_by_zero_faults() {
        let mut g = Cdfg::new("div");
        let a = g.input();
        let b = g.input();
        let q = g.op(OpKind::Div, &[a, b]).unwrap();
        g.output(q).unwrap();
        assert_eq!(g.evaluate(&[10, 2]).unwrap(), vec![5]);
        assert!(matches!(
            g.evaluate(&[10, 0]),
            Err(IrError::EvalFault { .. })
        ));
    }

    #[test]
    fn wrong_arity_rejected() {
        let mut g = Cdfg::new("g");
        let a = g.input();
        assert!(matches!(
            g.op(OpKind::Add, &[a]),
            Err(IrError::Invalid { .. })
        ));
        assert!(matches!(
            g.op(OpKind::Not, &[a, a]),
            Err(IrError::Invalid { .. })
        ));
    }

    #[test]
    fn dangling_operand_rejected() {
        let mut g = Cdfg::new("g");
        let a = g.input();
        let ghost = OpId(99);
        assert!(matches!(
            g.op(OpKind::Add, &[a, ghost]),
            Err(IrError::UnknownNode { .. })
        ));
    }

    #[test]
    fn nullary_via_op_rejected() {
        let mut g = Cdfg::new("g");
        assert!(g.op(OpKind::Const(1), &[]).is_err());
        assert!(g.op(OpKind::Input(0), &[]).is_err());
    }

    #[test]
    fn select_behaves_like_ternary() {
        let mut g = Cdfg::new("sel");
        let c = g.input();
        let a = g.input();
        let b = g.input();
        let s = g.op(OpKind::Select, &[c, a, b]).unwrap();
        g.output(s).unwrap();
        assert_eq!(g.evaluate(&[1, 10, 20]).unwrap(), vec![10]);
        assert_eq!(g.evaluate(&[0, 10, 20]).unwrap(), vec![20]);
        assert_eq!(g.evaluate(&[-7, 10, 20]).unwrap(), vec![10]);
    }

    #[test]
    fn depth_with_unit_delay() {
        let g = mac();
        // input -> mul -> add is the longest chain of unit-delay ops.
        let d = g.depth(|k| u64::from(k.fu_class() != FuClass::Free));
        assert_eq!(d, 2);
    }

    #[test]
    fn class_histogram_counts_resource_ops() {
        let g = mac();
        let [alu, mul, div, logic] = g.class_histogram();
        assert_eq!((alu, mul, div, logic), (1, 1, 0, 0));
        assert_eq!(g.resource_op_count(), 2);
    }

    #[test]
    fn consumers_are_found() {
        let mut g = Cdfg::new("g");
        let a = g.input();
        let b = g.input();
        let x = g.op(OpKind::Add, &[a, b]).unwrap();
        let y = g.op(OpKind::Mul, &[x, x]).unwrap();
        g.output(y).unwrap();
        let uses: Vec<OpId> = g.consumers(x).collect();
        assert_eq!(uses, vec![y]);
    }

    #[test]
    fn comparisons_produce_flags() {
        let mut g = Cdfg::new("cmp");
        let a = g.input();
        let b = g.input();
        for kind in [OpKind::Lt, OpKind::Le, OpKind::Eq, OpKind::Ne] {
            let r = g.op(kind, &[a, b]).unwrap();
            g.output(r).unwrap();
        }
        assert_eq!(g.evaluate(&[3, 3]).unwrap(), vec![0, 1, 1, 0]);
        assert_eq!(g.evaluate(&[2, 3]).unwrap(), vec![1, 1, 0, 1]);
    }

    #[test]
    fn shifts_mask_their_amount() {
        let mut g = Cdfg::new("sh");
        let a = g.input();
        let s = g.input();
        let l = g.op(OpKind::Shl, &[a, s]).unwrap();
        let r = g.op(OpKind::Shr, &[a, s]).unwrap();
        g.output(l).unwrap();
        g.output(r).unwrap();
        assert_eq!(g.evaluate(&[1, 4]).unwrap(), vec![16, 0]);
        // Shift amount 64 wraps to 0 via the 6-bit mask.
        assert_eq!(g.evaluate(&[5, 64]).unwrap(), vec![5, 5]);
    }
}
