//! Gate-level netlists.
//!
//! A [`Netlist`] is a flat structural description: named single-bit nets,
//! combinational [`Gate`]s with propagation delays, and D flip-flops. It
//! is the representation in which interface synthesis (`codesign-synth`)
//! emits "glue logic" (paper Figure 4) and in which gate counts — the
//! *implementation cost* of Section 3.3 — are measured.

use crate::error::RtlError;

/// Identifier of a net within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Returns the dense index of this net.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Combinational gate kinds.
///
/// `And`/`Or`/`Nand`/`Nor` accept two or more inputs; `Xor`/`Xnor` exactly
/// two; `Not`/`Buf` exactly one; `Mux2` exactly three (`[sel, d0, d1]`,
/// output `d1` when `sel` is high).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Logical and.
    And,
    /// Logical or.
    Or,
    /// Negated and.
    Nand,
    /// Negated or.
    Nor,
    /// Exclusive or (2 inputs).
    Xor,
    /// Negated exclusive or (2 inputs).
    Xnor,
    /// Inverter (1 input).
    Not,
    /// Buffer (1 input).
    Buf,
    /// 2:1 multiplexer (`[sel, d0, d1]`).
    Mux2,
}

impl GateKind {
    fn name(self) -> &'static str {
        match self {
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Not => "not",
            GateKind::Buf => "buf",
            GateKind::Mux2 => "mux2",
        }
    }

    fn arity_ok(self, n: usize) -> bool {
        match self {
            GateKind::Not | GateKind::Buf => n == 1,
            GateKind::Xor | GateKind::Xnor => n == 2,
            GateKind::Mux2 => n == 3,
            _ => n >= 2,
        }
    }

    /// Evaluates the gate function over its input values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has an arity this kind does not accept; arity is
    /// validated at construction by [`Netlist::add_gate`].
    #[must_use]
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert!(self.arity_ok(inputs.len()), "bad arity for {}", self.name());
        match self {
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Xor => inputs[0] ^ inputs[1],
            GateKind::Xnor => !(inputs[0] ^ inputs[1]),
            GateKind::Not => !inputs[0],
            GateKind::Buf => inputs[0],
            GateKind::Mux2 => {
                if inputs[0] {
                    inputs[2]
                } else {
                    inputs[1]
                }
            }
        }
    }

    /// Area of one instance in NAND2-gate equivalents.
    #[must_use]
    pub fn gate_equivalents(self, inputs: usize) -> u64 {
        let base = match self {
            GateKind::Not | GateKind::Buf => 1,
            GateKind::Xor | GateKind::Xnor | GateKind::Mux2 => 3,
            _ => 2,
        };
        base + (inputs.saturating_sub(2) as u64)
    }
}

/// A combinational gate instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Gate function.
    pub kind: GateKind,
    /// Input nets, in positional order.
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
    /// Propagation delay in simulation time units.
    pub delay: u64,
}

/// A D flip-flop, clocked implicitly by [`crate::sim::Simulator::clock_cycle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dff {
    /// Data input net.
    pub d: NetId,
    /// Output net.
    pub q: NetId,
    /// Power-on value of `q`.
    pub init: bool,
}

/// A flat gate-level netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    net_names: Vec<String>,
    inputs: Vec<NetId>,
    gates: Vec<Gate>,
    dffs: Vec<Dff>,
    driven: Vec<bool>,
}

impl Netlist {
    /// Creates an empty netlist.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            net_names: Vec::new(),
            inputs: Vec::new(),
            gates: Vec::new(),
            dffs: Vec::new(),
            driven: Vec::new(),
        }
    }

    /// Netlist name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares an internal net.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId(self.net_names.len() as u32);
        self.net_names.push(name.into());
        self.driven.push(false);
        id
    }

    /// Declares a primary input net (driven from outside the netlist).
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        self.driven[id.index()] = true;
        self.inputs.push(id);
        id
    }

    /// Adds a combinational gate.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::GateArity`] for an input count the kind does not
    /// accept, [`RtlError::UnknownNet`] for dangling nets, and
    /// [`RtlError::MultipleDrivers`] if `output` already has a driver.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        output: NetId,
        delay: u64,
    ) -> Result<(), RtlError> {
        if !kind.arity_ok(inputs.len()) {
            let expected = match kind {
                GateKind::Not | GateKind::Buf => 1,
                GateKind::Xor | GateKind::Xnor => 2,
                GateKind::Mux2 => 3,
                _ => 2,
            };
            return Err(RtlError::GateArity {
                kind: kind.name(),
                expected,
                actual: inputs.len(),
            });
        }
        for &n in inputs.iter().chain(std::iter::once(&output)) {
            if n.index() >= self.net_names.len() {
                return Err(RtlError::UnknownNet { index: n.index() });
            }
        }
        self.claim(output)?;
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
            delay,
        });
        Ok(())
    }

    /// Adds a D flip-flop with the given power-on value.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnknownNet`] for dangling nets and
    /// [`RtlError::MultipleDrivers`] if `q` already has a driver.
    pub fn add_dff(&mut self, d: NetId, q: NetId, init: bool) -> Result<(), RtlError> {
        for n in [d, q] {
            if n.index() >= self.net_names.len() {
                return Err(RtlError::UnknownNet { index: n.index() });
            }
        }
        self.claim(q)?;
        self.dffs.push(Dff { d, q, init });
        Ok(())
    }

    fn claim(&mut self, net: NetId) -> Result<(), RtlError> {
        if self.driven[net.index()] {
            return Err(RtlError::MultipleDrivers { net: net.index() });
        }
        self.driven[net.index()] = true;
        Ok(())
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Name of a net.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    #[must_use]
    pub fn net_name(&self, id: NetId) -> &str {
        &self.net_names[id.index()]
    }

    /// Looks up a net id by name (first match).
    #[must_use]
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.net_names
            .iter()
            .position(|n| n == name)
            .map(|i| NetId(i as u32))
    }

    /// Primary input nets.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// All gates.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// All flip-flops.
    #[must_use]
    pub fn dffs(&self) -> &[Dff] {
        &self.dffs
    }

    /// Number of combinational gates.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Total area in NAND2-gate equivalents (gates plus 6 per flip-flop).
    #[must_use]
    pub fn gate_equivalents(&self) -> u64 {
        let comb: u64 = self
            .gates
            .iter()
            .map(|g| g.kind.gate_equivalents(g.inputs.len()))
            .sum();
        comb + 6 * self.dffs.len() as u64
    }

    /// Appends gates computing `out = 1` iff the bus `bits` (LSB first)
    /// equals `value` — the address-decode structure of interface glue
    /// logic. Returns the output net.
    ///
    /// # Errors
    ///
    /// Propagates construction errors (dangling nets).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    pub fn equals_const(&mut self, bits: &[NetId], value: u64) -> Result<NetId, RtlError> {
        assert!(!bits.is_empty(), "equals_const needs at least one bit");
        let mut terms = Vec::with_capacity(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if (value >> i) & 1 == 1 {
                terms.push(b);
            } else {
                let inv = self.add_net(format!("eq_inv{i}"));
                self.add_gate(GateKind::Not, &[b], inv, 1)?;
                terms.push(inv);
            }
        }
        if terms.len() == 1 {
            let out = self.add_net("eq_out");
            self.add_gate(GateKind::Buf, &[terms[0]], out, 1)?;
            return Ok(out);
        }
        let out = self.add_net("eq_out");
        self.add_gate(GateKind::And, &terms, out, 1)?;
        Ok(out)
    }

    /// Appends a full adder over `(a, b, cin)`; returns `(sum, cout)`.
    ///
    /// # Errors
    ///
    /// Propagates construction errors (dangling nets).
    pub fn full_adder(
        &mut self,
        a: NetId,
        b: NetId,
        cin: NetId,
    ) -> Result<(NetId, NetId), RtlError> {
        let axb = self.add_net("fa_axb");
        self.add_gate(GateKind::Xor, &[a, b], axb, 1)?;
        let sum = self.add_net("fa_sum");
        self.add_gate(GateKind::Xor, &[axb, cin], sum, 1)?;
        let t1 = self.add_net("fa_t1");
        self.add_gate(GateKind::And, &[a, b], t1, 1)?;
        let t2 = self.add_net("fa_t2");
        self.add_gate(GateKind::And, &[axb, cin], t2, 1)?;
        let cout = self.add_net("fa_cout");
        self.add_gate(GateKind::Or, &[t1, t2], cout, 1)?;
        Ok((sum, cout))
    }

    /// Appends a ripple-carry adder over equal-width buses `a` and `b`
    /// (LSB first) with carry-in `cin`; returns `(sum_bits, carry_out)`.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` differ in width or are empty.
    pub fn ripple_adder(
        &mut self,
        a: &[NetId],
        b: &[NetId],
        cin: NetId,
    ) -> Result<(Vec<NetId>, NetId), RtlError> {
        assert_eq!(a.len(), b.len(), "operand widths must match");
        assert!(!a.is_empty(), "adder width must be positive");
        let mut carry = cin;
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let (s, c) = self.full_adder(x, y, carry)?;
            sum.push(s);
            carry = c;
        }
        Ok((sum, carry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_eval_truth_tables() {
        assert!(GateKind::And.eval(&[true, true]));
        assert!(!GateKind::And.eval(&[true, false]));
        assert!(GateKind::Or.eval(&[false, true]));
        assert!(GateKind::Nand.eval(&[true, false]));
        assert!(!GateKind::Nor.eval(&[false, true]));
        assert!(GateKind::Xor.eval(&[true, false]));
        assert!(GateKind::Xnor.eval(&[true, true]));
        assert!(GateKind::Not.eval(&[false]));
        assert!(GateKind::Buf.eval(&[true]));
        assert!(GateKind::Mux2.eval(&[false, true, false]));
        assert!(GateKind::Mux2.eval(&[true, false, true]));
    }

    #[test]
    fn nary_and_works() {
        assert!(GateKind::And.eval(&[true, true, true, true]));
        assert!(!GateKind::And.eval(&[true, true, false, true]));
    }

    #[test]
    fn arity_enforced() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let o = n.add_net("o");
        assert!(matches!(
            n.add_gate(GateKind::Not, &[a, a], o, 1),
            Err(RtlError::GateArity { .. })
        ));
        assert!(matches!(
            n.add_gate(GateKind::And, &[a], o, 1),
            Err(RtlError::GateArity { .. })
        ));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let o = n.add_net("o");
        n.add_gate(GateKind::Buf, &[a], o, 1).unwrap();
        assert_eq!(
            n.add_gate(GateKind::Not, &[a], o, 1),
            Err(RtlError::MultipleDrivers { net: o.index() })
        );
    }

    #[test]
    fn driving_an_input_rejected() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        assert!(matches!(
            n.add_gate(GateKind::Buf, &[a], b, 1),
            Err(RtlError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn dangling_net_rejected() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        assert!(matches!(
            n.add_gate(GateKind::Buf, &[a], NetId(42), 1),
            Err(RtlError::UnknownNet { .. })
        ));
    }

    #[test]
    fn gate_equivalents_accumulate() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let o1 = n.add_net("o1");
        let o2 = n.add_net("o2");
        let q = n.add_net("q");
        n.add_gate(GateKind::And, &[a, b], o1, 1).unwrap();
        n.add_gate(GateKind::Xor, &[a, b], o2, 1).unwrap();
        n.add_dff(o1, q, false).unwrap();
        assert_eq!(n.gate_equivalents(), 2 + 3 + 6);
    }

    #[test]
    fn net_lookup_by_name() {
        let mut n = Netlist::new("t");
        let a = n.add_input("alpha");
        assert_eq!(n.net_by_name("alpha"), Some(a));
        assert_eq!(n.net_by_name("beta"), None);
        assert_eq!(n.net_name(a), "alpha");
    }
}
