//! Deterministic fault injection for the bytecode VM.
//!
//! Compiled only under the `fault-inject` feature. A harness *poisons*
//! chosen lanes of the next batched evaluation on the current thread;
//! the VM then replaces those lanes' computed values with NaN — modeling
//! a residual evaluation that went non-finite — without perturbing any
//! arithmetic before or after. Take-once semantics (the poison clears as
//! it fires) plus thread-local scoping keep the injection deterministic
//! under work-stealing: exactly one evaluation is poisoned per arming,
//! and only on the arming thread.

use std::cell::Cell;

thread_local! {
    /// Bitmask of lanes to poison on the next `eval_lanes` call.
    static LANE_POISON: Cell<u64> = const { Cell::new(0) };
}

/// Poisons lane `lane` of the next
/// [`Program::eval_lanes`](crate::vm::Program::eval_lanes) on this
/// thread; every other lane's value is untouched. Multiple calls before
/// the evaluation accumulate lanes.
///
/// # Panics
///
/// Panics if `lane >= 64` (the poison mask is a single word; batched
/// callers in this workspace cap lane counts well below that).
pub fn poison_next_eval_lane(lane: usize) {
    assert!(lane < 64, "lane poison mask supports lanes 0..64");
    LANE_POISON.with(|c| c.set(c.get() | (1u64 << lane)));
}

/// Clears any pending poison on this thread.
pub fn clear_poison() {
    LANE_POISON.with(|c| c.set(0));
}

pub(crate) fn take_lane_poison() -> u64 {
    LANE_POISON.with(|c| c.take())
}
