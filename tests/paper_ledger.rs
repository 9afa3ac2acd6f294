//! The paper ledger: every row of the figure table runs and every claim
//! on it is checked, at full size and on the quick grid. This is where
//! the §5.7 calibration bands live (headline's claim rows), where the
//! adversarial sweep's 36-cell audit gates `cargo test`, and where
//! README's "Known deviations" table is held to what the ledger measures.
//!
//! A claim that fails here prints its ledger line: what was measured and
//! the band it left. Fix the model or, if the paper's shape really does
//! not hold, record it as a `Claim::deviation` row; do not widen a band.

use eesmr::bench::{select, FIGURES};
use eesmr::driver::{Driver, DriverConfig};

fn driver(quick: bool) -> Driver {
    Driver::new(DriverConfig::default().workers(2).quick(quick))
}

/// Runs every row at one size; the ledger lines of the claims that fail.
fn failures(quick: bool) -> Vec<String> {
    let driver = driver(quick);
    let lines = FIGURES.iter().flat_map(|figure| {
        let verdicts = figure.verdicts(&(figure.run)(&driver), quick);
        let failed = verdicts.into_iter().filter(|(_, v)| !v.holds);
        failed.map(|(claim, v)| claim.line(figure.name, &v)).collect::<Vec<_>>()
    });
    lines.collect()
}

#[test]
fn every_claim_holds_on_the_full_grid() {
    let failed = failures(false);
    assert!(failed.is_empty(), "ledger claims failed:\n{}", failed.join("\n"));
}

#[test]
fn quick_claims_hold_on_the_smoke_grid() {
    let failed = failures(true);
    assert!(failed.is_empty(), "ledger claims failed on the quick grid:\n{}", failed.join("\n"));
}

#[test]
fn quick_mode_runs_the_four_block_adversarial_sweep() {
    let out = (select("fig_adversarial").expect("a row")[0].run)(&driver(true));
    let t = out.table("fig_adversarial");
    assert_eq!(t.rows.len(), 36, "4 protocols x 9 fault axes");
    assert_eq!(t.col_where("committed_height", "fault", "none"), [4.0; 4]);
    let lowest = t.col("committed_height").into_iter().fold(f64::MAX, f64::min);
    assert_eq!(lowest, 4.0, "quick mode stops every cell at 4 blocks, not 12");
}

#[test]
fn the_figure_table_is_well_formed() {
    let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), FIGURES.len(), "figure names are unique");
    assert!(std::ptr::eq(select("all").expect("`all` selects"), FIGURES), "`all` is the table");
    for figure in FIGURES {
        let picked = select(figure.name).expect("every name selects");
        assert!(
            picked.len() == 1 && std::ptr::eq(&picked[0], figure),
            "{} selects itself",
            figure.name
        );
        assert!(!figure.claims.is_empty(), "{} has a claim or deviation row", figure.name);
    }
    assert!(select("").is_none() && select("fig9").is_none());
}

/// README's "Known deviations" table is the headline claims plus every
/// deviation row, rendered from a full-size run.
#[test]
fn readme_known_deviations_table_is_the_ledgers() {
    let driver = driver(false);
    let mut rows = Vec::new();
    for figure in FIGURES.iter().filter(|f| f.claims.iter().any(|c| c.deviation)) {
        let verdicts = figure.verdicts(&(figure.run)(&driver), false).into_iter();
        let listed = verdicts.filter(|(c, _)| c.deviation || figure.name == "headline");
        rows.extend(listed.map(|(claim, v)| claim.readme_row(&v)));
    }
    let readme = include_str!("../README.md");
    assert!(
        rows.iter().all(|row| readme.contains(row.as_str())),
        "README's \"Known deviations\" table drifted from the ledger; paste these rows:\n{}",
        rows.join("\n")
    );
}
