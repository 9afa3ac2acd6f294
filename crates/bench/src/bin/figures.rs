//! `figures <name|all>`: runs one row of the figure table, or every row in
//! table order. Each figure prints its tables to stdout and writes its CSV
//! and suite files under the experiment output directory (`EESMR_OUT_DIR`);
//! each claim's verdict goes to stderr, and any failed claim makes the exit
//! status non-zero. `EESMR_WORKERS` and `EESMR_QUICK` configure the driver.

use std::process::ExitCode;

use eesmr_bench::{select, FIGURES};
use eesmr_driver::{out_dir, Driver};

fn main() -> ExitCode {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let Some(figures) = select(&arg) else {
        eprintln!("usage: figures <name|all>");
        FIGURES.iter().for_each(|f| eprintln!("  {:<28} {}", f.name, f.section));
        return ExitCode::from(2);
    };
    let driver = Driver::from_env();
    let quick = driver.config().quick_mode;
    let mut failed = 0;
    for figure in figures {
        if arg == "all" {
            println!("\n=== {} ===", figure.name);
        }
        let out = (figure.run)(&driver);
        out.emit();
        for (claim, verdict) in figure.verdicts(&out, quick) {
            eprintln!("{}", claim.line(figure.name, &verdict));
            failed += usize::from(!verdict.holds);
        }
    }
    if arg == "all" {
        println!("\nall experiments completed; CSVs in {}", out_dir().display());
    }
    if failed > 0 {
        eprintln!("\n{failed} claim(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
