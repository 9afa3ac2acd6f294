//! Pins the §5.7 headline energy ratios to the paper's numbers within an
//! explicit tolerance band, so model changes that silently walk the
//! calibration away from the testbed fail loudly here.
//!
//! The scenarios and bands are the `headline` figure's claim rows; each
//! test checks one row at full size and also pins its band, so the band
//! cannot be widened in the figure table without failing here. The
//! simulator lands ≈3.4× and ≈2.0× against the paper's 2.85× and 2.05×
//! (its radios do not pay the testbed's idle-scanning floor); README's
//! "Known deviations" table records the residual gap.

use eesmr::bench::select;
use eesmr::driver::{Driver, DriverConfig};

/// Runs the `headline` figure and checks its claim `name`, whose band
/// must read `band`.
fn pin(name: &str, band: &str) {
    let figure = &select("headline").expect("a headline row")[0];
    let claim = figure.claims.iter().find(|c| c.name == name).expect("the claim row exists");
    let out = (figure.run)(&Driver::new(DriverConfig::default().workers(2)));
    let verdict = (claim.check)(&out);
    assert_eq!(verdict.band, band, "{name}: the calibration band moved");
    assert!(verdict.holds, "{}", claim.line(figure.name, &verdict));
}

#[test]
fn steady_state_leader_ratio_tracks_paper_within_band() {
    pin("steady-state leader ratio, SyncHS / EESMR (n=13, f=6)", "2.85× ± 25 %");
}

#[test]
fn view_change_leader_ratio_tracks_paper_within_band() {
    pin("view-change leader ratio, EESMR / SyncHS (n=13, f=6)", "2.05× ± 20 %");
}

#[test]
fn abstract_savings_at_n10_stay_in_a_sane_envelope() {
    // The abstract's 64 % is the n = 10 BLE setting; the simulator
    // overshoots (≈84 %), so this guards the envelope only.
    pin("steady-state saving vs SyncHS at n=10, k=5", "50–95 %");
}
