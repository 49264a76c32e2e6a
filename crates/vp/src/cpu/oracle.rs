//! The per-word interpreter the predecoded core replaced, kept as the
//! test oracle: a differential test runs seeded random programs on both
//! and compares the whole machine after every step.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use amsvp_core::circuits::XorShift64;
use sweep::panic_message;

use super::{Bus32, CpuCore};
use crate::bus::{
    new_bridge, PlatformBus, SharedBridge, SharedUart, ADC_DATA, ANALOG_BASE, RAM_SIZE, UART_BASE,
};
use crate::firmware::monitor_firmware;

impl CpuCore {
    /// Executes one instruction by fetching its word through `read32`
    /// and extracting its fields on every execution.
    ///
    /// # Panics
    ///
    /// As [`CpuCore::step`].
    pub(crate) fn step_reference(&mut self, bus: &mut impl Bus32) {
        if self.halted {
            return;
        }
        let instr = bus.read32(self.pc);
        let next_pc = self.pc.wrapping_add(4);
        let op = instr >> 26;
        let rs = ((instr >> 21) & 31) as usize;
        let rt = ((instr >> 16) & 31) as usize;
        let rd = ((instr >> 11) & 31) as usize;
        let shamt = (instr >> 6) & 31;
        let funct = instr & 63;
        let imm = instr & 0xFFFF;
        let simm = imm as u16 as i16 as i32;
        let branch_target = |pc: u32| pc.wrapping_add(4).wrapping_add((simm << 2) as u32);

        let mut new_pc = next_pc;
        match op {
            0 => match funct {
                0x00 => self.set_reg(rd, self.reg(rt) << shamt), // sll
                0x02 => self.set_reg(rd, self.reg(rt) >> shamt), // srl
                0x03 => self.set_reg(rd, ((self.reg(rt) as i32) >> shamt) as u32), // sra
                0x04 => self.set_reg(rd, self.reg(rt) << (self.reg(rs) & 31)), // sllv
                0x06 => self.set_reg(rd, self.reg(rt) >> (self.reg(rs) & 31)), // srlv
                0x07 => {
                    // srav
                    self.set_reg(rd, ((self.reg(rt) as i32) >> (self.reg(rs) & 31)) as u32)
                }
                0x08 => new_pc = self.reg(rs), // jr
                0x09 => {
                    // jalr
                    self.set_reg(rd, next_pc);
                    new_pc = self.reg(rs);
                }
                0x0D => self.halted = true,        // break
                0x10 => self.set_reg(rd, self.hi), // mfhi
                0x12 => self.set_reg(rd, self.lo), // mflo
                0x18 => {
                    // mult
                    let p = i64::from(self.reg(rs) as i32) * i64::from(self.reg(rt) as i32);
                    self.lo = p as u32;
                    self.hi = (p >> 32) as u32;
                }
                0x19 => {
                    // multu
                    let p = u64::from(self.reg(rs)) * u64::from(self.reg(rt));
                    self.lo = p as u32;
                    self.hi = (p >> 32) as u32;
                }
                0x1A => {
                    // div (division by zero leaves hi/lo unchanged, as on
                    // real MIPS the result is unpredictable)
                    let (a, b) = (self.reg(rs) as i32, self.reg(rt) as i32);
                    if b != 0 {
                        self.lo = (a.wrapping_div(b)) as u32;
                        self.hi = (a.wrapping_rem(b)) as u32;
                    }
                }
                0x1B => {
                    // divu
                    let (a, b) = (self.reg(rs), self.reg(rt));
                    if let (Some(q), Some(r)) = (a.checked_div(b), a.checked_rem(b)) {
                        self.lo = q;
                        self.hi = r;
                    }
                }
                0x20 | 0x21 => {
                    // add/addu (no overflow trap modeled)
                    self.set_reg(rd, self.reg(rs).wrapping_add(self.reg(rt)))
                }
                0x22 | 0x23 => {
                    // sub/subu
                    self.set_reg(rd, self.reg(rs).wrapping_sub(self.reg(rt)))
                }
                0x24 => self.set_reg(rd, self.reg(rs) & self.reg(rt)), // and
                0x25 => self.set_reg(rd, self.reg(rs) | self.reg(rt)), // or
                0x26 => self.set_reg(rd, self.reg(rs) ^ self.reg(rt)), // xor
                0x27 => self.set_reg(rd, !(self.reg(rs) | self.reg(rt))), // nor
                0x2A => {
                    // slt
                    self.set_reg(rd, u32::from((self.reg(rs) as i32) < (self.reg(rt) as i32)))
                }
                0x2B => self.set_reg(rd, u32::from(self.reg(rs) < self.reg(rt))), // sltu
                other => panic!(
                    "unsupported R-type funct {other:#x} at pc {:#010x}",
                    self.pc
                ),
            },
            0x01 => {
                // REGIMM: bltz (rt=0) / bgez (rt=1)
                let taken = match rt {
                    0 => (self.reg(rs) as i32) < 0,
                    1 => (self.reg(rs) as i32) >= 0,
                    other => panic!("unsupported REGIMM rt {other} at pc {:#010x}", self.pc),
                };
                if taken {
                    new_pc = branch_target(self.pc);
                }
            }
            0x02 => new_pc = (next_pc & 0xF000_0000) | ((instr & 0x03FF_FFFF) << 2), // j
            0x03 => {
                // jal
                self.set_reg(31, next_pc);
                new_pc = (next_pc & 0xF000_0000) | ((instr & 0x03FF_FFFF) << 2);
            }
            0x04 => {
                // beq
                if self.reg(rs) == self.reg(rt) {
                    new_pc = branch_target(self.pc);
                }
            }
            0x05 => {
                // bne
                if self.reg(rs) != self.reg(rt) {
                    new_pc = branch_target(self.pc);
                }
            }
            0x06 => {
                // blez
                if (self.reg(rs) as i32) <= 0 {
                    new_pc = branch_target(self.pc);
                }
            }
            0x07 => {
                // bgtz
                if (self.reg(rs) as i32) > 0 {
                    new_pc = branch_target(self.pc);
                }
            }
            0x08 | 0x09 => {
                // addi/addiu
                self.set_reg(rt, self.reg(rs).wrapping_add(simm as u32))
            }
            0x0A => self.set_reg(rt, u32::from((self.reg(rs) as i32) < simm)), // slti
            0x0B => self.set_reg(rt, u32::from(self.reg(rs) < simm as u32)),   // sltiu
            0x0C => self.set_reg(rt, self.reg(rs) & imm),                      // andi
            0x0D => self.set_reg(rt, self.reg(rs) | imm),                      // ori
            0x0E => self.set_reg(rt, self.reg(rs) ^ imm),                      // xori
            0x0F => self.set_reg(rt, imm << 16),                               // lui
            0x20 => {
                // lb
                let v = bus.read8(self.reg(rs).wrapping_add(simm as u32));
                self.set_reg(rt, v as i8 as i32 as u32);
            }
            0x21 => {
                // lh
                let v = bus.read16(self.reg(rs).wrapping_add(simm as u32));
                self.set_reg(rt, v as i16 as i32 as u32);
            }
            0x23 => {
                // lw
                let v = bus.read32(self.reg(rs).wrapping_add(simm as u32));
                self.set_reg(rt, v);
            }
            0x24 => {
                // lbu
                let v = bus.read8(self.reg(rs).wrapping_add(simm as u32));
                self.set_reg(rt, u32::from(v));
            }
            0x25 => {
                // lhu
                let v = bus.read16(self.reg(rs).wrapping_add(simm as u32));
                self.set_reg(rt, u32::from(v));
            }
            0x28 => {
                // sb
                bus.write8(self.reg(rs).wrapping_add(simm as u32), self.reg(rt) as u8)
            }
            0x29 => {
                // sh
                bus.write16(self.reg(rs).wrapping_add(simm as u32), self.reg(rt) as u16)
            }
            0x2B => {
                // sw
                bus.write32(self.reg(rs).wrapping_add(simm as u32), self.reg(rt))
            }
            other => panic!("unsupported opcode {other:#x} at pc {:#010x}", self.pc),
        }
        self.pc = new_pc;
        self.retired += 1;
    }
}

/// Words in a generated program, loaded at address 0.
const IMAGE_WORDS: u32 = 40;
/// Words written past the image before the program starts: RAM the
/// decoded mirror does not cover.
const DATA_WORDS: u32 = 8;
/// The RAM data area, right past the image.
const DATA_BASE: u32 = IMAGE_WORDS * 4;
/// An address no window claims.
const UNMAPPED: u32 = 0x3000_0000;
/// Registers holding a window's base address, which the generator
/// points loads, stores and register jumps through: `$s0`–`$s4`.
const BASES: [(usize, u32); 5] = [
    (16, DATA_BASE),
    (17, 0),
    (18, UART_BASE),
    (19, ANALOG_BASE),
    (20, UNMAPPED),
];

struct Gen(XorShift64);

impl Gen {
    fn below(&mut self, n: u32) -> u32 {
        (self.0.next_u64() % u64::from(n)) as u32
    }

    fn pick(&mut self, from: &[u32]) -> u32 {
        from[self.below(from.len() as u32) as usize]
    }

    /// A base register half the time, so memory accesses and register
    /// jumps reach every window.
    fn reg(&mut self) -> u32 {
        if self.below(2) == 0 {
            BASES[self.below(BASES.len() as u32) as usize].0 as u32
        } else {
            self.below(32)
        }
    }

    /// A destination register: never a base register, so the windows
    /// stay reachable for the whole program.
    fn dst(&mut self) -> u32 {
        let r = self.below(32 - BASES.len() as u32);
        if r >= 16 {
            r + BASES.len() as u32
        } else {
            r
        }
    }

    /// A base register and an offset into or just past its window,
    /// unaligned now and then. Into the image, the offset points a few
    /// words past word `at`, so a rewritten word tends to run.
    fn address(&mut self, at: u32) -> (u32, u32) {
        let (reg, base) = BASES[self.below(BASES.len() as u32) as usize];
        let words = if base == 0 {
            at + 1 + self.below(4)
        } else {
            self.below(5)
        };
        let skew = if self.below(6) == 0 { self.below(4) } else { 0 };
        (reg as u32, words * 4 + skew)
    }

    /// Word `at` of a program.
    fn word(&mut self, at: u32) -> u32 {
        let r = |funct, rs, rt, rd, sa| (rs << 21) | (rt << 16) | (rd << 11) | (sa << 6) | funct;
        let i = |op: u32, rs, rt, imm: u32| (op << 26) | (rs << 21) | (rt << 16) | (imm & 0xFFFF);
        match self.below(100) {
            0..=19 => {
                let funct = self.pick(&[
                    0x00, 0x02, 0x03, 0x04, 0x06, 0x07, 0x10, 0x12, 0x18, 0x19, 0x1A, 0x1B, 0x20,
                    0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x2A, 0x2B,
                ]);
                r(funct, self.reg(), self.reg(), self.dst(), self.below(32))
            }
            20..=34 => {
                let imm = self.0.next_u64() as u32;
                i(8 + self.below(8), self.reg(), self.dst(), imm)
            }
            35..=49 => {
                // Loads, a quarter of them into $zero.
                let op = self.pick(&[0x20, 0x21, 0x23, 0x24, 0x25]);
                let rt = if self.below(4) == 0 { 0 } else { self.dst() };
                let (base, offset) = self.address(at);
                i(op, base, rt, offset)
            }
            50..=61 => {
                // Stores, the image's base among the windows.
                let op = self.pick(&[0x28, 0x29, 0x2B]);
                let (base, offset) = self.address(at);
                i(op, base, self.reg(), offset)
            }
            62..=73 => {
                // Branches up to eight words either way: before the
                // image (pc wraps) and past it.
                let offset = self.below(17).wrapping_sub(8);
                match self.below(3) {
                    0 => i(self.pick(&[4, 5]), self.reg(), self.reg(), offset),
                    1 => i(self.pick(&[6, 7]), self.reg(), 0, offset),
                    _ => i(1, self.reg(), self.below(2), offset),
                }
            }
            74..=79 => {
                // j/jal into the image, past it, or past RAM.
                let target = match self.below(3) {
                    0 => self.below(IMAGE_WORDS),
                    1 => IMAGE_WORDS + self.below(8),
                    _ => RAM_SIZE / 4 + self.below(64),
                };
                ((2 + self.below(2)) << 26) | target
            }
            80..=87 => {
                // jr/jalr, half the jalrs linking into their own target
                // register.
                let rs = self.reg();
                if self.below(2) == 0 {
                    r(0x08, rs, 0, 0, 0)
                } else {
                    let rd = if self.below(2) == 0 { rs } else { self.dst() };
                    r(0x09, rs, 0, rd, 0)
                }
            }
            88..=89 => 0x0000_000D,
            90..=92 => {
                // Unsupported: an opcode, an R-type funct, a REGIMM rt.
                match self.below(3) {
                    0 => {
                        self.pick(&[0x10, 0x11, 0x1F, 0x22, 0x2F, 0x3F]) << 26 | self.below(1 << 26)
                    }
                    1 => r(
                        self.pick(&[0x01, 0x05, 0x0C, 0x11, 0x1C, 0x3F]),
                        self.reg(),
                        self.reg(),
                        self.reg(),
                        0,
                    ),
                    _ => i(1, self.reg(), 2 + self.below(30), self.below(1 << 16)),
                }
            }
            _ => self.0.next_u64() as u32,
        }
    }
}

/// One platform for one stepper.
struct Machine {
    cpu: CpuCore,
    bus: PlatformBus,
    uart: SharedUart,
    bridge: SharedBridge,
}

impl Machine {
    fn boot(image: &[u32], data: &[u32], regs: &[u32; 32]) -> Machine {
        let uart: SharedUart = Rc::new(RefCell::new(Vec::new()));
        let bridge = new_bridge();
        let mut bus = PlatformBus::new(uart.clone(), bridge.clone());
        bus.load_words(0, image);
        for (k, &w) in data.iter().enumerate() {
            bus.write32(DATA_BASE + 4 * k as u32, w);
        }
        let mut cpu = CpuCore::new();
        for (i, &v) in regs.iter().enumerate() {
            cpu.set_reg(i, v);
        }
        Machine {
            cpu,
            bus,
            uart,
            bridge,
        }
    }

    /// What the analog side does between instructions: a new output
    /// sample (±0.0 among them, equal as volts, different as bits).
    fn publish(&self, aout: f64) {
        let mut b = self.bridge.borrow_mut();
        b.aout = aout;
        b.samples = b.samples.wrapping_add(1);
    }

    fn assert_same(&self, reference: &Machine, context: &str) {
        let (a, b) = (&self.cpu, &reference.cpu);
        assert_eq!(a.regs, b.regs, "registers, {context}");
        assert_eq!((a.hi, a.lo), (b.hi, b.lo), "hi/lo, {context}");
        assert_eq!(a.pc, b.pc, "pc, {context}");
        assert_eq!(a.retired, b.retired, "retired, {context}");
        assert_eq!(a.halted, b.halted, "halted, {context}");
        assert!(self.bus.ram() == reference.bus.ram(), "RAM, {context}");
        assert_eq!(
            self.bus.bus_errors, reference.bus.bus_errors,
            "bus errors, {context}"
        );
        assert_eq!(
            *self.uart.borrow(),
            *reference.uart.borrow(),
            "UART, {context}"
        );
    }
}

/// What the generated programs reached, so a generator change cannot
/// quietly stop covering a case.
#[derive(Default, Debug)]
struct Coverage {
    panicked: u32,
    halted: u32,
    ran_rewritten_image: u32,
    zero_rt_loads: u32,
    jalr_rd_is_rs: u32,
    ran_past_image: u32,
    ran_bridge_registers: u32,
    ran_off_ram: u32,
}

#[test]
fn predecoded_core_matches_the_reference_stepper_on_random_programs() {
    const PROGRAMS: u64 = 256;
    const STEPS: usize = 200;
    let outputs = [0.0, -0.0, 0.25, -1.5, 1e-7, 2.0e3, f64::NAN];
    let mut seen = Coverage::default();
    for seed in 1..=PROGRAMS {
        let mut g = Gen(XorShift64::new(seed));
        let image: Vec<u32> = (0..IMAGE_WORDS).map(|at| g.word(at)).collect();
        let data: Vec<u32> = (IMAGE_WORDS..IMAGE_WORDS + DATA_WORDS)
            .map(|at| g.word(at))
            .collect();
        let mut regs = [0u32; 32];
        for r in regs.iter_mut() {
            *r = if g.below(2) == 0 {
                g.below(64)
            } else {
                g.0.next_u64() as u32
            };
        }
        for &(r, base) in &BASES {
            regs[r] = base;
        }
        let mut new = Machine::boot(&image, &data, &regs);
        let mut old = Machine::boot(&image, &data, &regs);
        for step in 0..STEPS {
            if g.below(8) == 0 {
                let aout = outputs[g.below(outputs.len() as u32) as usize];
                new.publish(aout);
                old.publish(aout);
            }
            let pc = old.cpu.pc;
            if pc < RAM_SIZE {
                let a = (pc & !3) as usize;
                let word = u32::from_le_bytes(old.bus.ram()[a..a + 4].try_into().unwrap());
                let (op, rs, rt, rd) = (
                    word >> 26,
                    (word >> 21) & 31,
                    (word >> 16) & 31,
                    (word >> 11) & 31,
                );
                seen.zero_rt_loads +=
                    u32::from(matches!(op, 0x20 | 0x21 | 0x23 | 0x24 | 0x25) && rt == 0);
                seen.jalr_rd_is_rs += u32::from(op == 0 && word & 63 == 9 && rd == rs && rs != 0);
                seen.ran_past_image += u32::from(pc >= IMAGE_WORDS * 4 && word != 0);
                seen.ran_rewritten_image +=
                    u32::from(pc < IMAGE_WORDS * 4 && word != image[(pc / 4) as usize]);
            } else if (ADC_DATA..ADC_DATA + 12).contains(&pc) {
                seen.ran_bridge_registers += 1;
            } else {
                seen.ran_off_ram += 1;
            }
            let got = catch_unwind(AssertUnwindSafe(|| new.cpu.step(&mut new.bus)));
            let want = catch_unwind(AssertUnwindSafe(|| old.cpu.step_reference(&mut old.bus)));
            let context = format!("program {seed}, step {step}, pc {pc:#010x}");
            let (got, want) = (got.map_err(panic_message), want.map_err(panic_message));
            assert_eq!(got, want, "panic, {context}");
            new.assert_same(&old, &context);
            if want.is_err() || old.cpu.halted {
                seen.panicked += u32::from(want.is_err());
                seen.halted += u32::from(old.cpu.halted);
                break;
            }
        }
    }
    let c = &seen;
    for (what, n) in [
        ("panicked", c.panicked),
        ("halted", c.halted),
        ("ran_rewritten_image", c.ran_rewritten_image),
        ("zero_rt_loads", c.zero_rt_loads),
        ("jalr_rd_is_rs", c.jalr_rd_is_rs),
        ("ran_past_image", c.ran_past_image),
        ("ran_bridge_registers", c.ran_bridge_registers),
        ("ran_off_ram", c.ran_off_ram),
    ] {
        assert!(n >= 5, "{what}: only {n} cases in {c:?}");
    }
}

/// The per-cycle loop [`CpuCore::run_cycles`] replaced, on the reference
/// stepper.
fn per_cycle(cpu: &mut CpuCore, bus: &mut PlatformBus, debt: &mut f64) {
    while *debt >= 1.0 {
        *debt -= 1.0;
        if cpu.halted() {
            break;
        }
        cpu.step_reference(bus);
    }
}

#[test]
fn run_cycles_matches_the_per_cycle_loop_bit_for_bit() {
    // Halts seen at a burst's entry, mid-burst and on its last cycle,
    // and bursts ended by a panic.
    let mut halts = [0u32; 3];
    let mut panics = 0;
    for cycles in [2.5, 50.0, 1e-6 / 3e-8] {
        // The monitor firmware never halts; `nops` nops and a `break`
        // halt on each cycle of the first bursts in turn, and `nops`
        // nops and an unsupported word panic there.
        let mut images = vec![monitor_firmware()];
        for last in [0x0000_000D, 0xFC00_0000] {
            images.extend((0..60).map(|nops| {
                let mut words = vec![0; nops];
                words.push(last);
                words
            }));
        }
        for (m, image) in images.iter().enumerate() {
            let mut new = Machine::boot(image, &[], &[0; 32]);
            let mut old = Machine::boot(image, &[], &[0; 32]);
            let (mut debt_new, mut debt_old) = (0.0f64, 0.0f64);
            for k in 0..400 {
                debt_new += cycles;
                debt_old += cycles;
                let burst = debt_old as u64;
                let (was_halted, retired) = (old.cpu.halted(), old.cpu.retired());
                let got = catch_unwind(AssertUnwindSafe(|| {
                    new.cpu.run_cycles(&mut new.bus, &mut debt_new)
                }));
                let want = catch_unwind(AssertUnwindSafe(|| {
                    per_cycle(&mut old.cpu, &mut old.bus, &mut debt_old)
                }));
                let context = format!("{cycles} cycles a step, {} words, step {k}", image.len());
                let (got, want) = (got.map_err(panic_message), want.map_err(panic_message));
                assert_eq!(got, want, "panic, {context}");
                assert_eq!(debt_new.to_bits(), debt_old.to_bits(), "debt, {context}");
                new.assert_same(&old, &context);
                if want.is_err() {
                    panics += 1;
                    break;
                }
                if burst > 0 && old.cpu.halted() {
                    let ran = old.cpu.retired() - retired;
                    let case = match (was_halted, ran < burst) {
                        (true, _) => 0,
                        (false, true) => 1,
                        (false, false) => 2,
                    };
                    halts[case] += 1;
                }
                // A square wave, so the monitor crosses its threshold.
                let aout = if (k / 40) % 2 == 0 { 1.0 } else { 0.0 };
                new.publish(aout);
                old.publish(aout);
            }
            if m == 0 {
                assert!(!old.uart.borrow().is_empty(), "the monitor printed");
            }
        }
    }
    assert!(
        halts.iter().all(|&n| n > 0) && panics > 0,
        "halts at entry / mid-burst / on the last cycle: {halts:?}, panics: {panics}"
    );
}
