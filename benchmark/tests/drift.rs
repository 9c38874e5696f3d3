//! Drift correction is a plain division by the calibration kernel's time.

use pmsb_benchmark::calib::{correct, CAL_NOMINAL_S};

#[test]
fn identity_at_nominal_speed_and_half_under_a_twice_slower_kernel() {
    let raw_s = 0.731;
    assert_eq!(correct(raw_s, &[CAL_NOMINAL_S, CAL_NOMINAL_S]), raw_s);
    let slow = 2.0 * CAL_NOMINAL_S;
    assert!((correct(raw_s, &[slow, slow]) - raw_s / 2.0).abs() < 1e-15);
    // Uneven samples: the mean counts, not the order.
    let mixed = correct(raw_s, &[CAL_NOMINAL_S, slow, slow, CAL_NOMINAL_S]);
    assert!((mixed - raw_s / 1.5).abs() < 1e-15);
}
