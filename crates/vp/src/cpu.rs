//! A MIPS-I-subset instruction-set CPU model.
//!
//! The paper's virtual platform runs software on "a MIPS-based CPU
//! executing assembly instructions contained in the memory" (§V-B). This
//! core executes one instruction per [`CpuCore::step`], or a whole burst
//! of clock cycles per [`CpuCore::run_cycles`], fetching and accessing
//! data through a caller-supplied [`Bus32`], so the same core drives both
//! the discrete-event platform and the fast single-loop platform.
//!
//! Instructions reach the core predecoded ([`Bus32::fetch`] returns a
//! [`Decoded`]): field extraction and opcode classification happen once
//! per word, so a bus that mirrors its firmware image in decoded form
//! (as [`PlatformBus`](crate::PlatformBus) does) decodes each image word
//! once per load instead of once per execution.
//!
//! Supported subset: the common MIPS-I ALU, shift, load/store, branch and
//! jump instructions (no FPU, no TLB, no branch delay slots — delay slots
//! are an ISA artifact irrelevant to platform-level simulation and are
//! intentionally not modeled). `break` halts the core.

#[cfg(test)]
mod oracle;

/// Word-addressable memory/peripheral interface the core executes against.
pub trait Bus32 {
    /// Reads a 32-bit word (address must be 4-aligned).
    fn read32(&mut self, addr: u32) -> u32;
    /// Writes a 32-bit word (address must be 4-aligned).
    fn write32(&mut self, addr: u32, value: u32);

    /// Fetches the instruction at `addr`, decoded; default decodes
    /// `read32(addr)`. An override must return what the default would,
    /// with the same side effects on the bus.
    fn fetch(&mut self, addr: u32) -> Decoded {
        Decoded::new(self.read32(addr))
    }

    /// Reads a byte; default goes through `read32`.
    fn read8(&mut self, addr: u32) -> u8 {
        let word = self.read32(addr & !3);
        (word >> ((addr & 3) * 8)) as u8
    }

    /// Writes a byte; default read-modify-writes through the word access.
    fn write8(&mut self, addr: u32, value: u8) {
        let aligned = addr & !3;
        let shift = (addr & 3) * 8;
        let old = self.read32(aligned);
        let mask = !(0xFFu32 << shift);
        self.write32(aligned, (old & mask) | (u32::from(value) << shift));
    }

    /// Reads a halfword (address must be 2-aligned).
    fn read16(&mut self, addr: u32) -> u16 {
        let word = self.read32(addr & !3);
        (word >> ((addr & 2) * 8)) as u16
    }

    /// Writes a halfword (address must be 2-aligned).
    fn write16(&mut self, addr: u32, value: u16) {
        let aligned = addr & !3;
        let shift = (addr & 2) * 8;
        let old = self.read32(aligned);
        let mask = !(0xFFFFu32 << shift);
        self.write32(aligned, (old & mask) | (u32::from(value) << shift));
    }
}

/// The operation of a decoded word; add/addu, sub/subu and addi/addiu
/// share one operation each (no overflow trap is modeled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Sll,
    Srl,
    Sra,
    Sllv,
    Srlv,
    Srav,
    Jr,
    Jalr,
    Break,
    Mfhi,
    Mflo,
    Mult,
    Multu,
    Div,
    Divu,
    Addu,
    Subu,
    And,
    Or,
    Xor,
    Nor,
    Slt,
    Sltu,
    Bltz,
    Bgez,
    J,
    Jal,
    Beq,
    Bne,
    Blez,
    Bgtz,
    Addiu,
    Slti,
    Sltiu,
    Andi,
    Ori,
    Xori,
    Lui,
    Lb,
    Lh,
    Lw,
    Lbu,
    Lhu,
    Sb,
    Sh,
    Sw,
    /// A reserved or unsupported encoding; `imm` holds the raw word.
    Unsupported,
}

/// One instruction word, decoded: what [`Bus32::fetch`] returns and the
/// core executes. Decoding never fails — a reserved or unsupported
/// encoding decodes to a form that panics when executed, not before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    op: Op,
    /// Destination register: `rd` for R-type words, `rt` for I-type.
    d: u8,
    /// `rs`.
    s: u8,
    /// `rt`.
    t: u8,
    /// The operand, extended once: a sign- or zero-extended immediate
    /// (as the operation reads it), `lui`'s shifted half, a shift
    /// amount, a branch offset in bytes, or a jump's 28-bit target.
    imm: u32,
}

impl Decoded {
    /// Decodes one instruction word.
    pub fn new(word: u32) -> Decoded {
        let rs = ((word >> 21) & 31) as u8;
        let rt = ((word >> 16) & 31) as u8;
        let rd = ((word >> 11) & 31) as u8;
        let shamt = (word >> 6) & 31;
        let zimm = word & 0xFFFF;
        let simm = zimm as u16 as i16 as i32 as u32;
        let offset = simm << 2;
        let r = |op, imm| Decoded {
            op,
            d: rd,
            s: rs,
            t: rt,
            imm,
        };
        let i = |op, imm| Decoded {
            op,
            d: rt,
            s: rs,
            t: rt,
            imm,
        };
        let unsupported = Decoded {
            op: Op::Unsupported,
            d: 0,
            s: 0,
            t: 0,
            imm: word,
        };
        match word >> 26 {
            0 => match word & 63 {
                0x00 => r(Op::Sll, shamt),
                0x02 => r(Op::Srl, shamt),
                0x03 => r(Op::Sra, shamt),
                0x04 => r(Op::Sllv, 0),
                0x06 => r(Op::Srlv, 0),
                0x07 => r(Op::Srav, 0),
                0x08 => r(Op::Jr, 0),
                0x09 => r(Op::Jalr, 0),
                0x0D => r(Op::Break, 0),
                0x10 => r(Op::Mfhi, 0),
                0x12 => r(Op::Mflo, 0),
                0x18 => r(Op::Mult, 0),
                0x19 => r(Op::Multu, 0),
                0x1A => r(Op::Div, 0),
                0x1B => r(Op::Divu, 0),
                0x20 | 0x21 => r(Op::Addu, 0),
                0x22 | 0x23 => r(Op::Subu, 0),
                0x24 => r(Op::And, 0),
                0x25 => r(Op::Or, 0),
                0x26 => r(Op::Xor, 0),
                0x27 => r(Op::Nor, 0),
                0x2A => r(Op::Slt, 0),
                0x2B => r(Op::Sltu, 0),
                _ => unsupported,
            },
            0x01 => match rt {
                0 => i(Op::Bltz, offset),
                1 => i(Op::Bgez, offset),
                _ => unsupported,
            },
            0x02 => i(Op::J, (word & 0x03FF_FFFF) << 2),
            0x03 => i(Op::Jal, (word & 0x03FF_FFFF) << 2),
            0x04 => i(Op::Beq, offset),
            0x05 => i(Op::Bne, offset),
            0x06 => i(Op::Blez, offset),
            0x07 => i(Op::Bgtz, offset),
            0x08 | 0x09 => i(Op::Addiu, simm),
            0x0A => i(Op::Slti, simm),
            0x0B => i(Op::Sltiu, simm),
            0x0C => i(Op::Andi, zimm),
            0x0D => i(Op::Ori, zimm),
            0x0E => i(Op::Xori, zimm),
            0x0F => i(Op::Lui, zimm << 16),
            0x20 => i(Op::Lb, simm),
            0x21 => i(Op::Lh, simm),
            0x23 => i(Op::Lw, simm),
            0x24 => i(Op::Lbu, simm),
            0x25 => i(Op::Lhu, simm),
            0x28 => i(Op::Sb, simm),
            0x29 => i(Op::Sh, simm),
            0x2B => i(Op::Sw, simm),
            _ => unsupported,
        }
    }
}

/// Panics with the message for an unsupported `word` at `pc`.
#[cold]
#[inline(never)]
fn unsupported(word: u32, pc: u32) -> ! {
    match word >> 26 {
        0 => panic!("unsupported R-type funct {:#x} at pc {pc:#010x}", word & 63),
        0x01 => panic!(
            "unsupported REGIMM rt {} at pc {pc:#010x}",
            (word >> 16) & 31
        ),
        op => panic!("unsupported opcode {op:#x} at pc {pc:#010x}"),
    }
}

/// The architectural state of the core.
#[derive(Debug, Clone)]
pub struct CpuCore {
    /// General-purpose registers; `r[0]` is zero between instructions.
    regs: [u32; 32],
    /// Program counter (byte address of the next instruction).
    pub pc: u32,
    hi: u32,
    lo: u32,
    halted: bool,
    retired: u64,
}

impl Default for CpuCore {
    fn default() -> Self {
        CpuCore::new()
    }
}

/// A [`CpuCore::run_cycles`] burst in progress: the pc, the retired
/// count and the cycles spent live here, in registers, and are written
/// back to the core and the debt when the burst ends, by return or by
/// panic.
struct Burst<'a> {
    cpu: &'a mut CpuCore,
    debt: &'a mut f64,
    pc: u32,
    retired: u64,
    spent: u64,
}

impl Drop for Burst<'_> {
    fn drop(&mut self) {
        self.cpu.pc = self.pc;
        self.cpu.retired = self.retired;
        *self.debt -= self.spent as f64;
    }
}

impl CpuCore {
    /// Creates a core with zeroed registers and `pc = 0`.
    pub fn new() -> Self {
        CpuCore {
            regs: [0; 32],
            pc: 0,
            hi: 0,
            lo: 0,
            halted: false,
            retired: 0,
        }
    }

    /// Reads a register (`$0` is hardwired to zero).
    pub fn reg(&self, i: usize) -> u32 {
        if i == 0 {
            0
        } else {
            self.regs[i]
        }
    }

    /// Writes a register (writes to `$0` are discarded).
    pub fn set_reg(&mut self, i: usize, v: u32) {
        if i != 0 {
            self.regs[i] = v;
        }
    }

    /// Whether the core has executed `break`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Executes a single instruction. Does nothing once halted.
    ///
    /// # Panics
    ///
    /// Panics on a reserved/unsupported encoding, identifying the opcode
    /// and address — in a virtual platform that is always a firmware or
    /// toolchain bug worth failing loudly on.
    pub fn step(&mut self, bus: &mut impl Bus32) {
        if !self.halted {
            let instr = bus.fetch(self.pc);
            self.pc = self.execute(self.pc, instr, bus);
            self.retired += 1;
        }
    }

    /// Runs the whole cycles of `debt` — one instruction per cycle — and
    /// leaves the fraction in `debt`: exactly what
    ///
    /// ```text
    /// while *debt >= 1.0 {
    ///     *debt -= 1.0;
    ///     if self.halted() { break; }
    ///     self.step(bus);
    /// }
    /// ```
    ///
    /// does, remaining debt bit for bit included, without carrying the
    /// floating-point subtraction through every instruction. As in that
    /// loop, a halted core spends one cycle of a burst and no more, so a
    /// halt before the burst's last cycle costs one extra cycle.
    ///
    /// The burst is `n = ⌊debt⌋` cycles, counted in integers; `debt − k`
    /// is exact for every integer `k ≤ n < 2⁵³`, so one subtraction at
    /// the end leaves what `k` subtractions of 1.0 would.
    ///
    /// # Panics
    ///
    /// As [`step`](CpuCore::step). The core and `debt` are then left as
    /// that loop leaves them: the faulting instruction is not retired,
    /// and its cycle is spent.
    pub fn run_cycles(&mut self, bus: &mut impl Bus32, debt: &mut f64) {
        let n = *debt as u64;
        let mut burst = Burst {
            pc: self.pc,
            retired: self.retired,
            spent: 0,
            cpu: self,
            debt,
        };
        while burst.spent < n && !burst.cpu.halted {
            burst.spent += 1;
            let instr = bus.fetch(burst.pc);
            burst.pc = burst.cpu.execute(burst.pc, instr, bus);
            burst.retired += 1;
        }
        if burst.spent < n {
            // Halted: the burst spends one more cycle and stops.
            burst.spent += 1;
        }
    }

    /// A load/store's effective address.
    fn ea(&self, i: Decoded) -> u32 {
        self.r(i.s).wrapping_add(i.imm)
    }

    fn r(&self, i: u8) -> u32 {
        self.regs[usize::from(i) & 31]
    }

    /// Writes register `i`; a write to `$0` is undone at once, so every
    /// read sees `$0` as zero without a branch.
    fn w(&mut self, i: u8, v: u32) {
        self.regs[usize::from(i) & 31] = v;
        self.regs[0] = 0;
    }

    /// Executes `i`, fetched at `pc`, and returns the next pc; the caller
    /// stores it and counts the instruction retired.
    #[inline(always)]
    fn execute(&mut self, pc: u32, i: Decoded, bus: &mut impl Bus32) -> u32 {
        let next_pc = pc.wrapping_add(4);
        let mut new_pc = next_pc;
        match i.op {
            Op::Sll => self.w(i.d, self.r(i.t) << i.imm),
            Op::Srl => self.w(i.d, self.r(i.t) >> i.imm),
            Op::Sra => self.w(i.d, ((self.r(i.t) as i32) >> i.imm) as u32),
            Op::Sllv => self.w(i.d, self.r(i.t) << (self.r(i.s) & 31)),
            Op::Srlv => self.w(i.d, self.r(i.t) >> (self.r(i.s) & 31)),
            Op::Srav => self.w(i.d, ((self.r(i.t) as i32) >> (self.r(i.s) & 31)) as u32),
            Op::Jr => new_pc = self.r(i.s),
            Op::Jalr => {
                // Link first: with rd == rs the jump lands on the link.
                self.w(i.d, next_pc);
                new_pc = self.r(i.s);
            }
            Op::Break => self.halted = true,
            Op::Mfhi => self.w(i.d, self.hi),
            Op::Mflo => self.w(i.d, self.lo),
            Op::Mult => {
                let p = i64::from(self.r(i.s) as i32) * i64::from(self.r(i.t) as i32);
                self.lo = p as u32;
                self.hi = (p >> 32) as u32;
            }
            Op::Multu => {
                let p = u64::from(self.r(i.s)) * u64::from(self.r(i.t));
                self.lo = p as u32;
                self.hi = (p >> 32) as u32;
            }
            Op::Div => {
                // Division by zero leaves hi/lo unchanged: on real MIPS
                // the result is unpredictable.
                let (a, b) = (self.r(i.s) as i32, self.r(i.t) as i32);
                if b != 0 {
                    self.lo = a.wrapping_div(b) as u32;
                    self.hi = a.wrapping_rem(b) as u32;
                }
            }
            Op::Divu => {
                let (a, b) = (self.r(i.s), self.r(i.t));
                if let (Some(q), Some(r)) = (a.checked_div(b), a.checked_rem(b)) {
                    self.lo = q;
                    self.hi = r;
                }
            }
            Op::Addu => self.w(i.d, self.r(i.s).wrapping_add(self.r(i.t))),
            Op::Subu => self.w(i.d, self.r(i.s).wrapping_sub(self.r(i.t))),
            Op::And => self.w(i.d, self.r(i.s) & self.r(i.t)),
            Op::Or => self.w(i.d, self.r(i.s) | self.r(i.t)),
            Op::Xor => self.w(i.d, self.r(i.s) ^ self.r(i.t)),
            Op::Nor => self.w(i.d, !(self.r(i.s) | self.r(i.t))),
            Op::Slt => self.w(i.d, u32::from((self.r(i.s) as i32) < (self.r(i.t) as i32))),
            Op::Sltu => self.w(i.d, u32::from(self.r(i.s) < self.r(i.t))),
            Op::Bltz => {
                if (self.r(i.s) as i32) < 0 {
                    new_pc = next_pc.wrapping_add(i.imm);
                }
            }
            Op::Bgez => {
                if (self.r(i.s) as i32) >= 0 {
                    new_pc = next_pc.wrapping_add(i.imm);
                }
            }
            Op::J => new_pc = (next_pc & 0xF000_0000) | i.imm,
            Op::Jal => {
                self.w(31, next_pc);
                new_pc = (next_pc & 0xF000_0000) | i.imm;
            }
            Op::Beq => {
                if self.r(i.s) == self.r(i.t) {
                    new_pc = next_pc.wrapping_add(i.imm);
                }
            }
            Op::Bne => {
                if self.r(i.s) != self.r(i.t) {
                    new_pc = next_pc.wrapping_add(i.imm);
                }
            }
            Op::Blez => {
                if (self.r(i.s) as i32) <= 0 {
                    new_pc = next_pc.wrapping_add(i.imm);
                }
            }
            Op::Bgtz => {
                if (self.r(i.s) as i32) > 0 {
                    new_pc = next_pc.wrapping_add(i.imm);
                }
            }
            Op::Addiu => self.w(i.d, self.r(i.s).wrapping_add(i.imm)),
            Op::Slti => self.w(i.d, u32::from((self.r(i.s) as i32) < i.imm as i32)),
            Op::Sltiu => self.w(i.d, u32::from(self.r(i.s) < i.imm)),
            Op::Andi => self.w(i.d, self.r(i.s) & i.imm),
            Op::Ori => self.w(i.d, self.r(i.s) | i.imm),
            Op::Xori => self.w(i.d, self.r(i.s) ^ i.imm),
            Op::Lui => self.w(i.d, i.imm),
            Op::Lb => {
                let v = bus.read8(self.ea(i));
                self.w(i.d, v as i8 as i32 as u32);
            }
            Op::Lh => {
                let v = bus.read16(self.ea(i));
                self.w(i.d, v as i16 as i32 as u32);
            }
            Op::Lw => {
                let v = bus.read32(self.ea(i));
                self.w(i.d, v);
            }
            Op::Lbu => {
                let v = bus.read8(self.ea(i));
                self.w(i.d, u32::from(v));
            }
            Op::Lhu => {
                let v = bus.read16(self.ea(i));
                self.w(i.d, u32::from(v));
            }
            Op::Sb => bus.write8(self.ea(i), self.r(i.t) as u8),
            Op::Sh => bus.write16(self.ea(i), self.r(i.t) as u16),
            Op::Sw => bus.write32(self.ea(i), self.r(i.t)),
            Op::Unsupported => unsupported(i.imm, pc),
        }
        new_pc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    struct RamBus(Vec<u8>);

    impl Bus32 for RamBus {
        fn read32(&mut self, addr: u32) -> u32 {
            let a = addr as usize;
            u32::from_le_bytes(self.0[a..a + 4].try_into().expect("aligned"))
        }
        fn write32(&mut self, addr: u32, value: u32) {
            let a = addr as usize;
            self.0[a..a + 4].copy_from_slice(&value.to_le_bytes());
        }
    }

    fn run(src: &str, max_steps: usize) -> (CpuCore, RamBus) {
        let words = assemble(src).expect("assembles");
        let mut mem = vec![0u8; 64 * 1024];
        for (i, w) in words.iter().enumerate() {
            mem[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        let mut bus = RamBus(mem);
        let mut cpu = CpuCore::new();
        for _ in 0..max_steps {
            cpu.step(&mut bus);
            if cpu.halted() {
                break;
            }
        }
        (cpu, bus)
    }

    #[test]
    fn arithmetic_and_logic() {
        let (cpu, _) = run(
            "li $t0, 7
             li $t1, 5
             addu $t2, $t0, $t1
             subu $t3, $t0, $t1
             and  $t4, $t0, $t1
             or   $t5, $t0, $t1
             xor  $t6, $t0, $t1
             slt  $t7, $t1, $t0
             break",
            64,
        );
        assert_eq!(cpu.reg(10), 12); // $t2
        assert_eq!(cpu.reg(11), 2); // $t3
        assert_eq!(cpu.reg(12), 5); // $t4
        assert_eq!(cpu.reg(13), 7); // $t5
        assert_eq!(cpu.reg(14), 2); // $t6
        assert_eq!(cpu.reg(15), 1); // $t7
        assert!(cpu.halted());
    }

    #[test]
    fn shifts_and_immediates() {
        let (cpu, _) = run(
            "li $t0, 0x00F0
             sll $t1, $t0, 4
             srl $t2, $t1, 8
             li $t3, -16
             sra $t4, $t3, 2
             lui $t5, 0x1234
             ori $t5, $t5, 0x5678
             break",
            64,
        );
        assert_eq!(cpu.reg(9), 0xF00);
        assert_eq!(cpu.reg(10), 0xF);
        assert_eq!(cpu.reg(12) as i32, -4);
        assert_eq!(cpu.reg(13), 0x1234_5678);
    }

    #[test]
    fn li_loads_every_value_exactly() {
        let values: [i64; 7] = [0x7FFF, 0x8000, 40000, 0xFFFF, 0x10000, -1, -32768];
        let src: String = values
            .iter()
            .enumerate()
            .map(|(k, v)| format!("li ${}, {v}\n", 8 + k))
            .chain(["break".to_string()])
            .collect();
        let (cpu, _) = run(&src, 64);
        for (k, &v) in values.iter().enumerate() {
            assert_eq!(cpu.reg(8 + k), v as u32, "li {v}");
        }
    }

    #[test]
    fn loads_and_stores() {
        let (cpu, bus) = run(
            "li $t0, 0x1000
             li $t1, 0xDEADBEEF
             sw $t1, 0($t0)
             lw $t2, 0($t0)
             lbu $t3, 0($t0)
             lb  $t4, 3($t0)
             li $t5, 0x42
             sb $t5, 1($t0)
             lw $t6, 0($t0)
             break",
            64,
        );
        assert_eq!(cpu.reg(10), 0xDEAD_BEEF);
        assert_eq!(cpu.reg(11), 0xEF);
        assert_eq!(cpu.reg(12) as i32, 0xDEu8 as i8 as i32);
        assert_eq!(cpu.reg(14), 0xDEAD_42EF);
        let mut b = bus;
        assert_eq!(b.read32(0x1000), 0xDEAD_42EF);
    }

    #[test]
    fn loop_sums_one_to_ten() {
        let (cpu, _) = run(
            "li $t0, 0      # sum
             li $t1, 1      # i
             li $t2, 10
          loop:
             addu $t0, $t0, $t1
             addiu $t1, $t1, 1
             slt $t3, $t2, $t1   # 10 < i ?
             beq $t3, $zero, loop
             break",
            256,
        );
        assert_eq!(cpu.reg(8), 55);
    }

    #[test]
    fn function_call_and_return() {
        let (cpu, _) = run(
            "li $a0, 21
             jal double
             move $s0, $v0
             break
          double:
             addu $v0, $a0, $a0
             jr $ra",
            64,
        );
        assert_eq!(cpu.reg(16), 42);
    }

    #[test]
    fn mult_div_and_hilo() {
        let (cpu, _) = run(
            "li $t0, 6
             li $t1, 7
             mult $t0, $t1
             mflo $t2
             li $t3, 45
             li $t4, 7
             divu $t3, $t4
             mflo $t5
             mfhi $t6
             break",
            64,
        );
        assert_eq!(cpu.reg(10), 42);
        assert_eq!(cpu.reg(13), 6);
        assert_eq!(cpu.reg(14), 3);
    }

    #[test]
    fn branches_cover_signs() {
        let (cpu, _) = run(
            "li $t0, -5
             li $t1, 0
             bltz $t0, neg
             li $t2, 111
          neg:
             bgez $t1, nonneg
             li $t3, 222
          nonneg:
             blez $t1, le
             li $t4, 333
          le:
             li $t5, 1
             bgtz $t5, done
             li $t6, 444
          done:
             break",
            64,
        );
        assert_eq!(cpu.reg(10), 0, "skipped by bltz");
        assert_eq!(cpu.reg(11), 0, "skipped by bgez");
        assert_eq!(cpu.reg(12), 0, "skipped by blez");
        assert_eq!(cpu.reg(14), 0, "skipped by bgtz");
    }

    #[test]
    fn halted_core_stays_halted() {
        let (mut cpu, mut bus) = run("break", 4);
        let retired = cpu.retired();
        cpu.step(&mut bus);
        assert_eq!(cpu.retired(), retired);
    }

    #[test]
    #[should_panic(expected = "unsupported opcode")]
    fn unsupported_opcode_panics() {
        let mut bus = RamBus(vec![0xFF; 64]);
        let mut cpu = CpuCore::new();
        cpu.step(&mut bus);
    }
}
