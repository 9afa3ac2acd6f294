//! `figures <name|all>`: runs one row of the figure table, or every row in
//! table order. Each figure prints its tables to stdout and writes its CSV
//! and suite files under the experiment output directory; each claim's
//! verdict goes to stderr, and any failed claim makes the exit status
//! non-zero. The environment is read here, once ([`RunOptions`]):
//! `EESMR_WORKERS` and `EESMR_QUICK` configure the driver, `EESMR_OUT_DIR`
//! the output directory, and `EESMR_TRACE`, `EESMR_METRICS` and their
//! `_OUT` files the traced run that follows `headline`.

use std::process::ExitCode;

use eesmr_bench::{select, traced_run, FIGURES};
use eesmr_driver::{out_dir, Driver, DriverConfig};
use eesmr_sim::RunOptions;

fn main() -> ExitCode {
    let options = match RunOptions::from_env() {
        Ok(options) => options,
        Err(err) => {
            eprintln!("figures: {err}");
            return ExitCode::from(2);
        }
    };
    let arg = std::env::args().nth(1).unwrap_or_default();
    let Some(figures) = select(&arg) else {
        eprintln!("usage: figures <name|all>");
        FIGURES.iter().for_each(|f| eprintln!("  {:<28} {}", f.name, f.section));
        return ExitCode::from(2);
    };
    let config = DriverConfig::default().quick(options.quick);
    let driver = Driver::new(config.workers(options.workers.unwrap_or(config.workers)));
    let dir = out_dir(options.out_dir.as_deref());
    let mut failed = 0;
    for figure in figures {
        if arg == "all" {
            println!("\n=== {} ===", figure.name);
        }
        let out = (figure.run)(&driver);
        out.emit(&dir);
        if figure.name == "headline" {
            traced_run(&options).emit(&dir);
        }
        for (claim, verdict) in figure.verdicts(&out, options.quick) {
            eprintln!("{}", claim.line(figure.name, &verdict));
            failed += usize::from(!verdict.holds);
        }
    }
    if arg == "all" {
        println!("\nall experiments completed; CSVs in {}", dir.display());
    }
    if failed > 0 {
        eprintln!("\n{failed} claim(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
