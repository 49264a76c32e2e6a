//! Reference firmware for the platform experiments, and the shared
//! image handle fleets load into every device.

use std::ops::Deref;
use std::sync::Arc;

use crate::asm::assemble;

/// An assembled firmware image shared across platform instances.
///
/// Wraps the instruction words in an `Arc<[u32]>` the way
/// [`amsim::CompiledModel`] shares analog bytecode: a fleet assembles
/// the image **once** and every device's bus loads from the same
/// allocation — cloning a `Firmware` is a reference-count bump, not a
/// copy of the image. Each device's [`PlatformBus`](crate::PlatformBus)
/// then decodes the words it loaded into its own fetch mirror.
#[derive(Debug, Clone)]
pub struct Firmware(Arc<[u32]>);

impl Firmware {
    /// Wraps assembled instruction words in a shared image.
    pub fn new(words: Vec<u32>) -> Firmware {
        Firmware(words.into())
    }

    /// The instruction words, as loaded at address 0.
    pub fn words(&self) -> &[u32] {
        &self.0
    }

    /// Whether two handles share one image allocation (no per-device
    /// copies — the sharing the fleet runner relies on).
    pub fn shares_image(&self, other: &Firmware) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl From<Vec<u32>> for Firmware {
    fn from(words: Vec<u32>) -> Firmware {
        Firmware::new(words)
    }
}

impl Deref for Firmware {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.0
    }
}

/// The monitoring firmware of the Table III experiments: polls the ADC,
/// detects crossings of a 0.5 V threshold on the *magnitude* of the
/// analog output (the amplifier circuits invert), keeps a crossing count
/// in `$s3`, and transmits `'1'`/`'0'` over the UART on every state
/// change.
pub const MONITOR_FIRMWARE: &str = "
    # $s0 = analog bridge base, $s1 = uart base
    # $s2 = previous comparator state, $s3 = crossing count
    li $s0, 0x20000000
    li $s1, 0x10000000
    li $s2, 0
    li $s3, 0
loop:
    lw   $t0, 0($s0)        # ADC sample in microvolts (signed)
    bgez $t0, positive
    subu $t0, $zero, $t0    # |sample|
positive:
    li   $t1, 500000        # 0.5 V threshold
    slt  $t2, $t0, $t1      # t2 = |sample| < threshold
    xori $t2, $t2, 1        # t2 = |sample| >= threshold
    beq  $t2, $s2, loop     # no change: keep polling
    move $s2, $t2
    addiu $s3, $s3, 1
    addiu $t3, $t2, 0x30    # ASCII '0' or '1'
    sw   $t3, 0($s1)        # transmit
    b    loop
";

/// Assembles [`MONITOR_FIRMWARE`].
///
/// # Panics
///
/// Never panics in practice: the source is a compile-time constant
/// validated by this crate's tests.
pub fn monitor_firmware() -> Vec<u32> {
    assemble(MONITOR_FIRMWARE).expect("reference firmware must assemble")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_firmware_assembles() {
        let words = monitor_firmware();
        assert!(words.len() > 10);
    }

    #[test]
    fn firmware_clones_share_one_image() {
        let fw = Firmware::from(monitor_firmware());
        let other = fw.clone();
        assert!(fw.shares_image(&other));
        assert_eq!(fw.words(), other.words());
        assert!(!fw.shares_image(&Firmware::from(monitor_firmware())));
    }
}
