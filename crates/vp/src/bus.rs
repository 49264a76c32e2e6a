//! The platform memory map: RAM, APB-attached UART, and the analog bridge
//! (ADC/DAC registers) — the digital half of the paper's Figure 1
//! architecture.
//!
//! The bus performs simple address decoding in the style of an APB
//! interconnect: the CPU is the single master, each peripheral claims an
//! address window. The analog bridge registers are backed by shared state
//! ([`SharedBridge`]) that the analog integration process updates every
//! analog time step.

use std::cell::RefCell;
use std::rc::Rc;

use amsvp_core::circuits::Stimulus;

use crate::cpu::{Bus32, Decoded};

/// RAM window base (code + data).
pub const RAM_BASE: u32 = 0x0000_0000;
/// RAM window size in bytes.
pub const RAM_SIZE: u32 = 0x0001_0000;
/// UART window base.
pub const UART_BASE: u32 = 0x1000_0000;
/// UART transmit-data register (write-only): low byte is sent.
pub const UART_TX: u32 = UART_BASE;
/// UART status register (read-only): bit 0 = transmitter ready.
pub const UART_STATUS: u32 = UART_BASE + 4;
/// Analog bridge window base.
pub const ANALOG_BASE: u32 = 0x2000_0000;
/// ADC data register (read-only): last analog output sample in µV,
/// two's-complement.
pub const ADC_DATA: u32 = ANALOG_BASE;
/// DAC data register (write): CPU contribution to the analog input in µV.
pub const DAC_DATA: u32 = ANALOG_BASE + 4;
/// ADC sample counter (read-only): analog steps taken so far.
pub const ADC_COUNT: u32 = ANALOG_BASE + 8;

/// State shared between the CPU's bus and the analog integration process.
#[derive(Debug, Default)]
pub struct AnalogBridgeState {
    /// Last analog output sample (volts), written by the analog process.
    pub aout: f64,
    /// CPU-driven analog input contribution (volts), written via the DAC
    /// register.
    pub dac: f64,
    /// Analog steps taken so far.
    pub samples: u32,
}

/// Shared handle to the bridge state (single-threaded kernel ⇒ `Rc`).
pub type SharedBridge = Rc<RefCell<AnalogBridgeState>>;

/// Creates a fresh bridge.
pub fn new_bridge() -> SharedBridge {
    Rc::new(RefCell::new(AnalogBridgeState::default()))
}

/// The analog input sample at `t`: the stimulus plus the CPU's DAC
/// contribution.
pub(crate) fn input_sample<S: Stimulus + ?Sized>(stim: &S, t: f64, bridge: &SharedBridge) -> f64 {
    stim.value(t) + bridge.borrow().dac
}

/// Publishes one analog output sample: the firmware's next ADC reads see
/// it, and the sample counter advances.
pub(crate) fn publish(bridge: &SharedBridge, aout: f64) {
    let mut b = bridge.borrow_mut();
    b.aout = aout;
    b.samples = b.samples.wrapping_add(1);
}

/// Shared UART transmit log.
pub type SharedUart = Rc<RefCell<Vec<u8>>>;

/// Converts a voltage to the µV fixed-point register format.
pub fn volts_to_reg(v: f64) -> u32 {
    (v * 1e6).round().clamp(i32::MIN as f64, i32::MAX as f64) as i32 as u32
}

/// Converts the µV register format back to volts.
pub fn reg_to_volts(raw: u32) -> f64 {
    f64::from(raw as i32) * 1e-6
}

/// The platform bus: RAM + UART + analog bridge.
///
/// Instruction fetches from the words the latest
/// [`load_words`](PlatformBus::load_words) wrote come from a decoded
/// mirror of those words, kept equal to `Decoded::new` of the RAM word
/// at every mirrored address: `load_words` decodes what it writes and
/// `write32` re-decodes any word it stores into the mirrored range.
/// Fetches elsewhere decode `read32`.
pub struct PlatformBus {
    ram: Vec<u8>,
    /// Byte address of `text[0]`, 4-aligned.
    text_base: u32,
    /// The decoded mirror.
    text: Vec<Decoded>,
    uart: SharedUart,
    bridge: SharedBridge,
    /// The ADC register for the `aout` whose bits are `adc.0`: a poll
    /// converts only after the analog side published a new sample (or a
    /// caller wrote `aout` directly).
    adc: (u64, u32),
    /// Reads/writes that fell outside every window (diagnostics).
    pub bus_errors: u64,
}

impl PlatformBus {
    /// Creates a bus with zeroed RAM.
    pub fn new(uart: SharedUart, bridge: SharedBridge) -> Self {
        PlatformBus {
            ram: vec![0; RAM_SIZE as usize],
            text_base: 0,
            text: Vec::new(),
            uart,
            bridge,
            // +0.0 V reads as register 0.
            adc: (0, 0),
            bus_errors: 0,
        }
    }

    /// Loads a word image at a byte offset into RAM (firmware loading)
    /// and decodes the RAM words it covers into the fetch mirror.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit.
    pub fn load_words(&mut self, base: u32, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            let a = base as usize + i * 4;
            self.ram[a..a + 4].copy_from_slice(&w.to_le_bytes());
        }
        let start = base as usize & !3;
        let end = (base as usize + words.len() * 4 + 3) & !3;
        self.text_base = start as u32;
        self.text = self.ram[start..end]
            .chunks_exact(4)
            .map(|w| Decoded::new(u32::from_le_bytes(w.try_into().expect("4-byte chunk"))))
            .collect();
    }

    /// Index into `text` of the word holding `addr`; out of range when
    /// the word is not mirrored.
    fn text_index(&self, addr: u32) -> usize {
        ((addr & !3).wrapping_sub(self.text_base) / 4) as usize
    }

    /// The whole RAM window.
    #[cfg(test)]
    pub(crate) fn ram(&self) -> &[u8] {
        &self.ram
    }
}

impl Bus32 for PlatformBus {
    #[inline]
    fn fetch(&mut self, addr: u32) -> Decoded {
        match self.text.get(self.text_index(addr)) {
            Some(&instr) => instr,
            None => Decoded::new(self.read32(addr)),
        }
    }

    #[inline]
    fn read32(&mut self, addr: u32) -> u32 {
        if addr < RAM_BASE + RAM_SIZE {
            let a = (addr & !3) as usize;
            return u32::from_le_bytes(self.ram[a..a + 4].try_into().expect("in range"));
        }
        match addr {
            UART_STATUS => 1, // always ready
            ADC_DATA => {
                let aout = self.bridge.borrow().aout;
                if aout.to_bits() != self.adc.0 {
                    self.adc = (aout.to_bits(), volts_to_reg(aout));
                }
                self.adc.1
            }
            ADC_COUNT => self.bridge.borrow().samples,
            DAC_DATA => volts_to_reg(self.bridge.borrow().dac),
            _ => {
                self.bus_errors += 1;
                0
            }
        }
    }

    fn write32(&mut self, addr: u32, value: u32) {
        if addr < RAM_BASE + RAM_SIZE {
            let a = (addr & !3) as usize;
            self.ram[a..a + 4].copy_from_slice(&value.to_le_bytes());
            let i = self.text_index(addr);
            if let Some(instr) = self.text.get_mut(i) {
                *instr = Decoded::new(value);
            }
            return;
        }
        match addr {
            UART_TX => self.uart.borrow_mut().push(value as u8),
            DAC_DATA => self.bridge.borrow_mut().dac = reg_to_volts(value),
            _ => {
                self.bus_errors += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> (PlatformBus, SharedUart, SharedBridge) {
        let uart: SharedUart = Rc::new(RefCell::new(Vec::new()));
        let bridge = new_bridge();
        (PlatformBus::new(uart.clone(), bridge.clone()), uart, bridge)
    }

    #[test]
    fn ram_read_write_roundtrip() {
        let (mut b, _, _) = bus();
        b.write32(0x100, 0xDEAD_BEEF);
        assert_eq!(b.read32(0x100), 0xDEAD_BEEF);
        b.write8(0x101, 0x42);
        assert_eq!(b.read32(0x100), 0xDEAD_42EF);
        assert_eq!(b.read16(0x102), 0xDEAD);
    }

    #[test]
    fn firmware_loading() {
        let (mut b, _, _) = bus();
        b.load_words(0, &[1, 2, 3]);
        assert_eq!(b.read32(0), 1);
        assert_eq!(b.read32(8), 3);
    }

    #[test]
    fn uart_collects_bytes() {
        let (mut b, uart, _) = bus();
        assert_eq!(b.read32(UART_STATUS), 1);
        b.write32(UART_TX, u32::from(b'h'));
        b.write32(UART_TX, u32::from(b'i'));
        assert_eq!(&*uart.borrow(), b"hi");
    }

    #[test]
    fn analog_bridge_fixed_point() {
        let (mut b, _, bridge) = bus();
        bridge.borrow_mut().aout = 1.25;
        bridge.borrow_mut().samples = 7;
        assert_eq!(b.read32(ADC_DATA), 1_250_000);
        assert_eq!(b.read32(ADC_COUNT), 7);
        b.write32(DAC_DATA, (-500_000_i32) as u32);
        assert!((bridge.borrow().dac + 0.5).abs() < 1e-12);
        assert_eq!(b.read32(DAC_DATA), (-500_000_i32) as u32);
    }

    #[test]
    fn negative_voltages_roundtrip() {
        assert_eq!(reg_to_volts(volts_to_reg(-2.5)), -2.5);
        assert_eq!(reg_to_volts(volts_to_reg(0.0)), 0.0);
        let v = reg_to_volts(volts_to_reg(1e-6));
        assert!((v - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn unmapped_access_counts_errors() {
        let (mut b, _, _) = bus();
        assert_eq!(b.read32(0x3000_0000), 0);
        b.write32(0x3000_0000, 5);
        assert_eq!(b.bus_errors, 2);
    }
}
