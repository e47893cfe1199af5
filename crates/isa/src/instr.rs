//! The CR32 instruction set and its binary encoding.
//!
//! CR32 is a load/store architecture with sixteen 64-bit registers
//! (`r0` reads as zero), chosen so compiled software has exactly the
//! semantics of the CDFG interpreter in `codesign-ir`. The encoding is a
//! fixed 32-bit word format (the `li` constant-load occupies three words);
//! [`Instr::encode`] and [`decode`] round-trip every instruction.
//!
//! The per-instruction [`Instr::base_cycles`] table is the software half
//! of the timing model: single-cycle ALU, 3-cycle multiply, 12-cycle
//! divide, 2-cycle internal memory. Device accesses additionally pay bus
//! cycles at run time (see [`crate::cpu`]).

use crate::error::IsaError;

/// Number of architectural registers.
pub const NUM_REGS: usize = 16;

/// An architectural register, `r0`–`r15`; `r0` is hard-wired to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// The zero register.
    pub const ZERO: Reg = Reg(0);

    /// Creates a register.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 16`.
    #[must_use]
    pub fn new(n: u8) -> Self {
        assert!((n as usize) < NUM_REGS, "register r{n} out of range");
        Reg(n)
    }

    /// The register number.
    #[must_use]
    pub fn number(self) -> u8 {
        self.0
    }

    /// The dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A binary ALU operation (register-register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping add.
    Add,
    /// Wrapping subtract.
    Sub,
    /// Wrapping multiply.
    Mul,
    /// Signed divide (traps on zero divisor).
    Div,
    /// Signed remainder (traps on zero divisor).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Shift left logical (low 6 bits of rs2).
    Sll,
    /// Shift right arithmetic (low 6 bits of rs2).
    Sra,
    /// Set if less than (1/0).
    Slt,
    /// Set if less or equal (1/0).
    Sle,
    /// Set if equal (1/0).
    Seq,
    /// Set if not equal (1/0).
    Sne,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl AluOp {
    /// All ALU operations in encoding order.
    pub const ALL: [AluOp; 16] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sle,
        AluOp::Seq,
        AluOp::Sne,
        AluOp::Min,
        AluOp::Max,
    ];

    /// Assembly mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sle => "sle",
            AluOp::Seq => "seq",
            AluOp::Sne => "sne",
            AluOp::Min => "min",
            AluOp::Max => "max",
        }
    }
}

/// A unary ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement.
    Not,
    /// Absolute value.
    Abs,
}

impl UnaryOp {
    /// All unary operations in encoding order.
    pub const ALL: [UnaryOp; 3] = [UnaryOp::Neg, UnaryOp::Not, UnaryOp::Abs];

    /// Assembly mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnaryOp::Neg => "neg",
            UnaryOp::Not => "not",
            UnaryOp::Abs => "abs",
        }
    }
}

/// A branch condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if signed less-than.
    Lt,
    /// Branch if signed greater-or-equal.
    Ge,
}

impl BranchCond {
    /// All branch conditions in encoding order.
    pub const ALL: [BranchCond; 4] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
    ];

    /// Assembly mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
        }
    }

    /// Evaluates the condition.
    #[must_use]
    pub fn taken(self, a: i64, b: i64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => a < b,
            BranchCond::Ge => a >= b,
        }
    }
}

/// One CR32 instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `rd = rs1 <op> rs2`.
    Alu(AluOp, Reg, Reg, Reg),
    /// `rd = <op> rs1`.
    Unary(UnaryOp, Reg, Reg),
    /// `rd = if rs1 != 0 { rs2 } else { rd }` — conditional move, the
    /// branch-free select used by the code generator.
    Cmovnz(Reg, Reg, Reg),
    /// `rd = rs1 + imm` (sign-extended 16-bit immediate).
    Addi(Reg, Reg, i16),
    /// `rd = imm` — 64-bit constant load; occupies three encoding words.
    Li(Reg, i64),
    /// `rd = mem64[rs1 + imm]` (internal memory only).
    Ld(Reg, Reg, i16),
    /// `mem64[rs1 + imm] = rs2` (internal memory only).
    Sd(Reg, Reg, i16),
    /// `rd = sign_extend(mem32[rs1 + imm])`; the MMIO access width.
    Lw(Reg, Reg, i16),
    /// `mem32[rs1 + imm] = low32(rs2)`; the MMIO access width.
    Sw(Reg, Reg, i16),
    /// Conditional pc-relative branch (offset in instructions).
    Branch(BranchCond, Reg, Reg, i16),
    /// `rd = pc + 1; pc = target` (absolute instruction index).
    Jal(Reg, u32),
    /// `rd = pc + 1; pc = rs1`.
    Jalr(Reg, Reg),
    /// `rd = custom_unit[n](rs1, rs2, imm)` — ASIP extension slot with a
    /// 64-bit immediate field (fused constants such as filter
    /// coefficients); occupies three encoding words.
    Custom(u8, Reg, Reg, Reg, i64),
    /// Enable interrupts.
    Ei,
    /// Disable interrupts.
    Di,
    /// Return from interrupt (`pc = epc`, re-enable interrupts).
    Rti,
    /// No operation.
    Nop,
    /// Stop the processor.
    Halt,
}

// Opcode bytes (bits 31..24 of the first word).
const OP_ALU: u8 = 0x10; // + AluOp index
const OP_UNARY: u8 = 0x20; // + UnaryOp index
const OP_CMOVNZ: u8 = 0x28;
const OP_ADDI: u8 = 0x30;
const OP_LI: u8 = 0x31;
const OP_LD: u8 = 0x38;
const OP_SD: u8 = 0x39;
const OP_LW: u8 = 0x3A;
const OP_SW: u8 = 0x3B;
const OP_BRANCH: u8 = 0x40; // + BranchCond index
const OP_JAL: u8 = 0x48;
const OP_JALR: u8 = 0x49;
const OP_CUSTOM: u8 = 0x50;
const OP_EI: u8 = 0x60;
const OP_DI: u8 = 0x61;
const OP_RTI: u8 = 0x62;
const OP_NOP: u8 = 0x00;
const OP_HALT: u8 = 0x01;

fn pack(op: u8, rd: Reg, rs1: Reg, rs2: Reg, low: u8) -> u32 {
    (u32::from(op) << 24)
        | (u32::from(rd.0) << 20)
        | (u32::from(rs1.0) << 16)
        | (u32::from(rs2.0) << 12)
        | u32::from(low)
}

fn pack_imm(op: u8, rd: Reg, rs1: Reg, imm: i16) -> u32 {
    (u32::from(op) << 24)
        | (u32::from(rd.0) << 20)
        | (u32::from(rs1.0) << 16)
        | u32::from(imm as u16)
}

fn field_rd(w: u32) -> Reg {
    Reg(((w >> 20) & 0xF) as u8)
}

fn field_rs1(w: u32) -> Reg {
    Reg(((w >> 16) & 0xF) as u8)
}

fn field_rs2(w: u32) -> Reg {
    Reg(((w >> 12) & 0xF) as u8)
}

fn field_imm16(w: u32) -> i16 {
    (w & 0xFFFF) as u16 as i16
}

impl Instr {
    /// Encodes the instruction, appending one or more 32-bit words.
    pub fn encode(self, out: &mut Vec<u32>) {
        match self {
            Instr::Alu(op, rd, rs1, rs2) => {
                let idx = AluOp::ALL.iter().position(|&o| o == op).expect("in ALL") as u8;
                out.push(pack(OP_ALU + idx, rd, rs1, rs2, 0));
            }
            Instr::Unary(op, rd, rs1) => {
                let idx = UnaryOp::ALL.iter().position(|&o| o == op).expect("in ALL") as u8;
                out.push(pack(OP_UNARY + idx, rd, rs1, Reg::ZERO, 0));
            }
            Instr::Cmovnz(rd, rs1, rs2) => out.push(pack(OP_CMOVNZ, rd, rs1, rs2, 0)),
            Instr::Addi(rd, rs1, imm) => out.push(pack_imm(OP_ADDI, rd, rs1, imm)),
            Instr::Li(rd, imm) => {
                out.push(pack(OP_LI, rd, Reg::ZERO, Reg::ZERO, 0));
                out.push((imm as u64 & 0xFFFF_FFFF) as u32);
                out.push(((imm as u64) >> 32) as u32);
            }
            Instr::Ld(rd, rs1, imm) => out.push(pack_imm(OP_LD, rd, rs1, imm)),
            Instr::Sd(rs2, rs1, imm) => out.push(pack_imm(OP_SD, rs2, rs1, imm)),
            Instr::Lw(rd, rs1, imm) => out.push(pack_imm(OP_LW, rd, rs1, imm)),
            Instr::Sw(rs2, rs1, imm) => out.push(pack_imm(OP_SW, rs2, rs1, imm)),
            Instr::Branch(cond, rs1, rs2, off) => {
                let idx = BranchCond::ALL
                    .iter()
                    .position(|&c| c == cond)
                    .expect("in ALL") as u8;
                // rs1/rs2 live in the rd/rs1 fields; offset in imm16.
                out.push(pack_imm(OP_BRANCH + idx, rs1, rs2, off));
            }
            Instr::Jal(rd, target) => {
                assert!(target < (1 << 20), "jal target exceeds 20 bits");
                out.push((u32::from(OP_JAL) << 24) | (u32::from(rd.0) << 20) | target);
            }
            Instr::Jalr(rd, rs1) => out.push(pack(OP_JALR, rd, rs1, Reg::ZERO, 0)),
            Instr::Custom(unit, rd, rs1, rs2, imm) => {
                out.push(pack(OP_CUSTOM, rd, rs1, rs2, unit));
                out.push((imm as u64 & 0xFFFF_FFFF) as u32);
                out.push(((imm as u64) >> 32) as u32);
            }
            Instr::Ei => out.push(u32::from(OP_EI) << 24),
            Instr::Di => out.push(u32::from(OP_DI) << 24),
            Instr::Rti => out.push(u32::from(OP_RTI) << 24),
            Instr::Nop => out.push(u32::from(OP_NOP) << 24),
            Instr::Halt => out.push(u32::from(OP_HALT) << 24),
        }
    }

    /// Number of encoding words this instruction occupies.
    #[must_use]
    pub fn encoded_words(self) -> usize {
        match self {
            Instr::Li(..) | Instr::Custom(..) => 3,
            _ => 1,
        }
    }

    /// Base execution cost in cycles, excluding bus transactions.
    #[must_use]
    pub fn base_cycles(self) -> u64 {
        match self {
            Instr::Alu(AluOp::Mul, ..) => 3,
            Instr::Alu(AluOp::Div | AluOp::Rem, ..) => 12,
            Instr::Ld(..) | Instr::Sd(..) | Instr::Lw(..) | Instr::Sw(..) => 2,
            Instr::Li(..) => 2,
            Instr::Branch(..) | Instr::Jal(..) | Instr::Jalr(..) => 2,
            // Custom-unit latency is added by the CPU from the unit model.
            _ => 1,
        }
    }
}

/// Decodes one instruction starting at `words\[0\]`; returns the
/// instruction and how many words it consumed.
///
/// # Errors
///
/// Returns [`IsaError::DecodeInstr`] for an unknown opcode and a truncated
/// multi-word instruction.
pub fn decode(words: &[u32]) -> Result<(Instr, usize), IsaError> {
    let Some(&w) = words.first() else {
        return Err(IsaError::DecodeInstr { word: 0 });
    };
    let op = (w >> 24) as u8;
    let instr = match op {
        OP_NOP => Instr::Nop,
        OP_HALT => Instr::Halt,
        OP_EI => Instr::Ei,
        OP_DI => Instr::Di,
        OP_RTI => Instr::Rti,
        o if (OP_ALU..OP_ALU + 16).contains(&o) => {
            let alu = AluOp::ALL[(o - OP_ALU) as usize];
            Instr::Alu(alu, field_rd(w), field_rs1(w), field_rs2(w))
        }
        o if (OP_UNARY..OP_UNARY + 3).contains(&o) => {
            let un = UnaryOp::ALL[(o - OP_UNARY) as usize];
            Instr::Unary(un, field_rd(w), field_rs1(w))
        }
        OP_CMOVNZ => Instr::Cmovnz(field_rd(w), field_rs1(w), field_rs2(w)),
        OP_ADDI => Instr::Addi(field_rd(w), field_rs1(w), field_imm16(w)),
        OP_LI => {
            if words.len() < 3 {
                return Err(IsaError::DecodeInstr { word: w });
            }
            let imm = (u64::from(words[1]) | (u64::from(words[2]) << 32)) as i64;
            return Ok((Instr::Li(field_rd(w), imm), 3));
        }
        OP_LD => Instr::Ld(field_rd(w), field_rs1(w), field_imm16(w)),
        OP_SD => Instr::Sd(field_rd(w), field_rs1(w), field_imm16(w)),
        OP_LW => Instr::Lw(field_rd(w), field_rs1(w), field_imm16(w)),
        OP_SW => Instr::Sw(field_rd(w), field_rs1(w), field_imm16(w)),
        o if (OP_BRANCH..OP_BRANCH + 4).contains(&o) => {
            let cond = BranchCond::ALL[(o - OP_BRANCH) as usize];
            Instr::Branch(cond, field_rd(w), field_rs1(w), field_imm16(w))
        }
        OP_JAL => Instr::Jal(field_rd(w), w & 0xF_FFFF),
        OP_JALR => Instr::Jalr(field_rd(w), field_rs1(w)),
        OP_CUSTOM => {
            if words.len() < 3 {
                return Err(IsaError::DecodeInstr { word: w });
            }
            let imm = (u64::from(words[1]) | (u64::from(words[2]) << 32)) as i64;
            return Ok((
                Instr::Custom(
                    (w & 0xFF) as u8,
                    field_rd(w),
                    field_rs1(w),
                    field_rs2(w),
                    imm,
                ),
                3,
            ));
        }
        _ => return Err(IsaError::DecodeInstr { word: w }),
    };
    Ok((instr, 1))
}

/// Encodes a whole program to its binary image.
#[must_use]
pub fn encode_program(instrs: &[Instr]) -> Vec<u32> {
    let mut out = Vec::with_capacity(instrs.len());
    for &i in instrs {
        i.encode(&mut out);
    }
    out
}

/// Decodes a binary image back to instructions.
///
/// # Errors
///
/// Returns [`IsaError::DecodeInstr`] at the first undecodable word.
pub fn decode_program(words: &[u32]) -> Result<Vec<Instr>, IsaError> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < words.len() {
        let (instr, n) = decode(&words[pos..])?;
        out.push(instr);
        pos += n;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    fn sample_instrs() -> Vec<Instr> {
        let mut v = vec![
            Instr::Cmovnz(r(1), r(2), r(3)),
            Instr::Addi(r(4), r(5), -123),
            Instr::Li(r(6), -0x1234_5678_9ABC),
            Instr::Li(r(7), 0x7FFF_FFFF_FFFF_FFFF),
            Instr::Ld(r(1), r(2), 64),
            Instr::Sd(r(3), r(4), -8),
            Instr::Lw(r(5), r(6), 0x100),
            Instr::Sw(r(7), r(8), 4),
            Instr::Jal(r(15), 12345),
            Instr::Jalr(r(0), r(9)),
            Instr::Custom(7, r(10), r(11), r(12), -0x7777_1234_5678),
            Instr::Ei,
            Instr::Di,
            Instr::Rti,
            Instr::Nop,
            Instr::Halt,
        ];
        for op in AluOp::ALL {
            v.push(Instr::Alu(op, r(1), r(2), r(3)));
        }
        for op in UnaryOp::ALL {
            v.push(Instr::Unary(op, r(4), r(5)));
        }
        for cond in BranchCond::ALL {
            v.push(Instr::Branch(cond, r(1), r(2), -7));
        }
        v
    }

    #[test]
    fn every_instruction_round_trips() {
        let instrs = sample_instrs();
        let image = encode_program(&instrs);
        let back = decode_program(&image).unwrap();
        assert_eq!(instrs, back);
    }

    #[test]
    fn li_occupies_three_words() {
        let mut out = Vec::new();
        Instr::Li(r(1), i64::MIN).encode(&mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(Instr::Li(r(1), 0).encoded_words(), 3);
        assert_eq!(Instr::Nop.encoded_words(), 1);
    }

    #[test]
    fn truncated_li_rejected() {
        let mut out = Vec::new();
        Instr::Li(r(1), 42).encode(&mut out);
        out.truncate(2);
        assert!(matches!(decode(&out), Err(IsaError::DecodeInstr { .. })));
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert!(matches!(
            decode(&[0xFF00_0000]),
            Err(IsaError::DecodeInstr { word: 0xFF00_0000 })
        ));
    }

    #[test]
    fn branch_conditions_evaluate() {
        assert!(BranchCond::Eq.taken(3, 3));
        assert!(!BranchCond::Eq.taken(3, 4));
        assert!(BranchCond::Ne.taken(3, 4));
        assert!(BranchCond::Lt.taken(-1, 0));
        assert!(BranchCond::Ge.taken(0, 0));
    }

    #[test]
    fn timing_model_orders_op_classes() {
        let alu = Instr::Alu(AluOp::Add, r(1), r(1), r(1)).base_cycles();
        let mul = Instr::Alu(AluOp::Mul, r(1), r(1), r(1)).base_cycles();
        let div = Instr::Alu(AluOp::Div, r(1), r(1), r(1)).base_cycles();
        assert!(alu < mul && mul < div);
    }

    #[test]
    #[should_panic(expected = "register r16 out of range")]
    fn register_bounds_checked() {
        let _ = Reg::new(16);
    }

    #[test]
    fn negative_branch_offset_survives_encoding() {
        let i = Instr::Branch(BranchCond::Lt, r(1), r(2), -32768);
        let mut out = Vec::new();
        i.encode(&mut out);
        let (back, _) = decode(&out).unwrap();
        assert_eq!(back, i);
    }
}
