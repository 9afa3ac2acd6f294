//! The environment a binary runs under, read once.
//!
//! No library constructor reads the process environment (`Scenario::new`,
//! `NetConfig::ble` and `DriverConfig::default` are pure), so a run is a
//! pure function of its scenario and seed whatever shell starts it. The
//! `figures` and `proc_headline` binaries call [`RunOptions::from_env`]
//! once and pass the values on; README's table lists the variables. An
//! empty value is the default, and any other `EESMR_*` name is an error, so
//! a mistyped or retired variable cannot pass for a setting while doing
//! nothing.

use std::ffi::OsStr;
use std::fmt;
use std::path::PathBuf;

use eesmr_metrics::MetricsConfig;
use eesmr_net::TraceLevel;

/// Every variable [`RunOptions::parse`] accepts.
pub const KNOWN: &str = "EESMR_QUICK, EESMR_WORKERS, EESMR_OUT_DIR, EESMR_TRACE, \
                         EESMR_TRACE_OUT, EESMR_METRICS, EESMR_METRICS_OUT";

/// What the `EESMR_*` variables set; the default is every one unset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// `EESMR_QUICK`: shrink every scenario to smoke-test size.
    pub quick: bool,
    /// `EESMR_WORKERS`: driver worker threads (`None`: one per core).
    pub workers: Option<usize>,
    /// `EESMR_OUT_DIR`: where `figures` writes (`None`: `target/experiments/`).
    pub out_dir: Option<PathBuf>,
    /// `EESMR_TRACE`: the level of `figures headline`'s traced run.
    pub trace: TraceLevel,
    /// `EESMR_TRACE_OUT`: where that run's Perfetto JSON goes.
    pub trace_out: Option<PathBuf>,
    /// `EESMR_METRICS`: sample that run.
    pub metrics: MetricsConfig,
    /// `EESMR_METRICS_OUT`: where that run's series and energy attribution
    /// go (Prometheus text for `.prom` or `.txt`, JSON otherwise).
    pub metrics_out: Option<PathBuf>,
}

/// Why [`RunOptions::parse`] refused the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptionsError {
    /// An `EESMR_*` name not in [`KNOWN`].
    Unknown(String),
    /// A known variable, its value, and what it accepts.
    Invalid(String, String, &'static str),
}

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptionsError::Unknown(name) => {
                write!(f, "unknown variable {name}; the known ones are {KNOWN}")
            }
            OptionsError::Invalid(name, value, accepts) => {
                write!(f, "{name} must be {accepts}, got {value:?}")
            }
        }
    }
}

impl std::error::Error for OptionsError {}

const BOOLEAN: &str = "1, true, on, 0, false or off";

impl RunOptions {
    /// The options the process environment sets.
    pub fn from_env() -> Result<RunOptions, OptionsError> {
        RunOptions::parse(std::env::vars_os())
    }

    /// The options `(name, value)` pairs set; names without the `EESMR_`
    /// prefix are ignored.
    pub fn parse<K, V>(vars: impl IntoIterator<Item = (K, V)>) -> Result<RunOptions, OptionsError>
    where
        K: AsRef<OsStr>,
        V: AsRef<OsStr>,
    {
        let mut options = RunOptions::default();
        for (name, value) in vars {
            let (name, value) = (name.as_ref().to_string_lossy(), value.as_ref());
            let path = || (!value.is_empty()).then(|| PathBuf::from(value));
            let invalid = |accepts| {
                OptionsError::Invalid(name.to_string(), value.to_string_lossy().into(), accepts)
            };
            let text = value.to_str().map(str::trim);
            match &*name {
                "EESMR_QUICK" => options.quick = text.and_then(flag).ok_or(invalid(BOOLEAN))?,
                "EESMR_WORKERS" => {
                    let count = |v: &str| v.parse().ok().filter(|&n: &usize| n > 0);
                    options.workers = match text {
                        Some("") => None,
                        text => Some(text.and_then(count).ok_or(invalid("a positive integer"))?),
                    };
                }
                "EESMR_TRACE" => {
                    use TraceLevel::*;
                    let level = |v: &str| {
                        [Off, Commit, Proto, All]
                            .into_iter()
                            .find(|l| v.is_empty() || l.name() == v)
                    };
                    options.trace =
                        text.and_then(level).ok_or(invalid("off, commit, proto or all"))?;
                }
                "EESMR_METRICS" => {
                    let on = text.and_then(flag).ok_or(invalid(BOOLEAN))?;
                    options.metrics = if on { MetricsConfig::on() } else { MetricsConfig::off() };
                }
                "EESMR_OUT_DIR" => options.out_dir = path(),
                "EESMR_TRACE_OUT" => options.trace_out = path(),
                "EESMR_METRICS_OUT" => options.metrics_out = path(),
                _ if name.starts_with("EESMR_") => {
                    return Err(OptionsError::Unknown(name.into_owned()));
                }
                _ => {}
            }
        }
        Ok(options)
    }
}

/// A boolean variable's value.
fn flag(value: &str) -> Option<bool> {
    match value {
        "1" | "true" | "on" => Some(true),
        "" | "0" | "false" | "off" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_documented_value_parses_and_nothing_else_does() {
        let set = |change: fn(&mut RunOptions)| {
            let mut options = RunOptions::default();
            change(&mut options);
            Ok(options)
        };
        let unset = || set(|_| {});
        let invalid = |name: &str, value: &str, accepts| {
            Err(OptionsError::Invalid(name.to_string(), value.to_string(), accepts))
        };
        let unknown = |name: &str| Err(OptionsError::Unknown(name.to_string()));
        let positive = "a positive integer";
        let levels = "off, commit, proto or all";
        let rows = [
            ("PATH", "/bin", unset()),
            ("EESMR_QUICK", "1", set(|o| o.quick = true)),
            ("EESMR_QUICK", "true", set(|o| o.quick = true)),
            ("EESMR_QUICK", " on ", set(|o| o.quick = true)),
            // `figures` once read `off` as on, and `proc_headline` read
            // `0` as on: both mean off, in both binaries.
            ("EESMR_QUICK", "off", unset()),
            ("EESMR_QUICK", "0", unset()),
            ("EESMR_QUICK", "false", unset()),
            ("EESMR_QUICK", "", unset()),
            ("EESMR_QUICK", "yes", invalid("EESMR_QUICK", "yes", BOOLEAN)),
            ("EESMR_METRICS", "1", set(|o| o.metrics = MetricsConfig::on())),
            ("EESMR_METRICS", "0", unset()),
            ("EESMR_METRICS", "2", invalid("EESMR_METRICS", "2", BOOLEAN)),
            ("EESMR_WORKERS", "2", set(|o| o.workers = Some(2))),
            ("EESMR_WORKERS", "", unset()),
            // Once silently ignored.
            ("EESMR_WORKERS", "abc", invalid("EESMR_WORKERS", "abc", positive)),
            ("EESMR_WORKERS", "0", invalid("EESMR_WORKERS", "0", positive)),
            ("EESMR_WORKERS", "-1", invalid("EESMR_WORKERS", "-1", positive)),
            ("EESMR_TRACE", "off", unset()),
            ("EESMR_TRACE", "", unset()),
            ("EESMR_TRACE", "commit", set(|o| o.trace = TraceLevel::Commit)),
            ("EESMR_TRACE", "proto", set(|o| o.trace = TraceLevel::Proto)),
            ("EESMR_TRACE", "all", set(|o| o.trace = TraceLevel::All)),
            ("EESMR_TRACE", "wire", invalid("EESMR_TRACE", "wire", levels)),
            ("EESMR_OUT_DIR", "/tmp/x", set(|o| o.out_dir = Some("/tmp/x".into()))),
            ("EESMR_OUT_DIR", "", unset()),
            ("EESMR_TRACE_OUT", "t.json", set(|o| o.trace_out = Some("t.json".into()))),
            ("EESMR_METRICS_OUT", "m.prom", set(|o| o.metrics_out = Some("m.prom".into()))),
            // Retired or never-read variables fail instead of doing nothing.
            ("EESMR_SHARDS", "2", unknown("EESMR_SHARDS")),
            ("EESMR_PROFILE", "1", unknown("EESMR_PROFILE")),
            ("EESMR_SCHED", "heap", unknown("EESMR_SCHED")),
            ("EESMR_METRICS_DT", "1000", unknown("EESMR_METRICS_DT")),
        ];
        for (name, value, want) in rows {
            assert_eq!(RunOptions::parse([(name, value)]), want, "{name}={value:?}");
        }
    }

    #[test]
    fn variables_combine_and_errors_name_the_fix() {
        let vars = [("EESMR_QUICK", "1"), ("HOME", "/home/user"), ("EESMR_WORKERS", "2")];
        let options = RunOptions::parse(vars).expect("all known");
        assert_eq!((options.quick, options.workers), (true, Some(2)));
        let unknown = RunOptions::parse([("EESMR_SHARDS", "2")]).unwrap_err().to_string();
        assert!(unknown.starts_with("unknown variable EESMR_SHARDS;"), "{unknown}");
        assert!(unknown.ends_with(KNOWN), "{unknown}");
        let invalid = RunOptions::parse([("EESMR_WORKERS", "abc")]).unwrap_err().to_string();
        assert_eq!(invalid, "EESMR_WORKERS must be a positive integer, got \"abc\"");
    }
}
