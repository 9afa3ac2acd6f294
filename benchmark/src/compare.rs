//! `--compare A.json B.json`: the A/B tool for two result files written
//! by a full run (`out/results.json`). Per workload and end-to-end
//! metric it prints both medians with quartiles, the bound, and one of
//! better / same / worse / unresolved; every metric that repeats exactly
//! for a seed (simulated quantities, counts) must be bit-identical.

use crate::json::Json;
use crate::stats::{verdict, Better, Summary, Verdict};

/// One metric of one run, as read back from a result file.
struct Read {
    value: f64,
    summary: Summary,
    better: Better,
    bound: Option<f64>,
    exact: bool,
    unit: String,
}

fn read_metric(m: &Json) -> Option<Read> {
    let value = m.get("value")?.as_f64()?;
    let num = |key: &str| m.get(key).and_then(Json::as_f64);
    let summary = match (num("n"), num("min"), num("q1"), num("median"), num("q3"), num("max")) {
        (Some(n), Some(min), Some(q1), Some(median), Some(q3), Some(max)) => {
            Summary { n: n as usize, min, q1, median, q3, max }
        }
        _ => Summary { n: 1, min: value, q1: value, median: value, q3: value, max: value },
    };
    Some(Read {
        value,
        summary,
        better: Better::parse(m.get("better")?.as_str()?)?,
        bound: num("bound"),
        exact: m.get("exact")?.as_bool()?,
        unit: m.get("unit")?.as_str()?.to_string(),
    })
}

fn runs(file: &Json) -> Result<&[Json], String> {
    file.get("runs").and_then(Json::as_arr).ok_or_else(|| "no \"runs\" array".to_string())
}

fn key(run: &Json) -> Option<(String, bool)> {
    Some((run.get("workload")?.as_str()?.to_string(), run.get("trace")?.as_bool()?))
}

/// The comparison's outcome: the printed report and whether anything
/// regressed (a `worse` verdict or an exact metric that changed).
pub struct Comparison {
    pub report: String,
    pub regressed: bool,
}

pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut regressed = false;
    let seeds = (a.get("seed").and_then(Json::as_f64), b.get("seed").and_then(Json::as_f64));
    let same_seed = seeds.0.is_some() && seeds.0 == seeds.1;
    if !same_seed {
        writeln!(
            out,
            "seeds differ ({:?} vs {:?}): exact metrics are not compared",
            seeds.0, seeds.1
        )
        .expect("string write");
    }
    for run_a in runs(a)? {
        let Some(k) = key(run_a) else { continue };
        let Some(run_b) = runs(b)?.iter().find(|r| key(r).as_ref() == Some(&k)) else {
            writeln!(out, "{} trace={}: missing from B", k.0, k.1 as u8).expect("string write");
            regressed = true;
            continue;
        };
        writeln!(out, "== {} ({})", k.0, if k.1 { "per-layer" } else { "end-to-end" })
            .expect("string write");
        for side in [run_a, run_b] {
            if side.get("correct").and_then(Json::as_bool) != Some(true) {
                writeln!(out, "   a run failed its correctness gate").expect("string write");
                regressed = true;
            }
        }
        let empty = Json::Obj(Vec::new());
        let metrics_b = run_b.get("metrics").unwrap_or(&empty);
        for (name, ma) in run_a.get("metrics").unwrap_or(&empty).fields() {
            let (Some(ra), Some(rb)) = (read_metric(ma), metrics_b.get(name).and_then(read_metric))
            else {
                continue;
            };
            // A layer the workload does not exercise reads 0 on both sides.
            if ra.bound.is_none() && ra.value == 0.0 && rb.value == 0.0 {
                continue;
            }
            if ra.exact && rb.exact {
                if !same_seed {
                    continue;
                }
                let same = ra.value.to_bits() == rb.value.to_bits();
                regressed |= !same;
                writeln!(
                    out,
                    "   {name:<38} {:>16.6} {:>16.6} {:<6} exact: {}",
                    ra.value,
                    rb.value,
                    ra.unit,
                    if same { "identical" } else { "CHANGED" }
                )
                .expect("string write");
            } else if let Some(bound) = ra.bound {
                let v = verdict(&ra.summary, &rb.summary, ra.better, bound);
                regressed |= v == Verdict::Worse;
                writeln!(
                    out,
                    "   {name:<38} {:>12.4} [{:.4}, {:.4}]  {:>12.4} [{:.4}, {:.4}] {:<6} bound {:.0}%: {}",
                    ra.summary.median,
                    ra.summary.q1,
                    ra.summary.q3,
                    rb.summary.median,
                    rb.summary.q1,
                    rb.summary.q3,
                    ra.unit,
                    bound * 100.0,
                    v.as_str()
                )
                .expect("string write");
            } else {
                // Timed layer metrics have no bound: show the move only.
                let change =
                    if ra.value == 0.0 { 0.0 } else { (rb.value / ra.value - 1.0) * 100.0 };
                writeln!(
                    out,
                    "   {name:<38} {:>16.4} {:>16.4} {:<6} {change:+.1}%",
                    ra.value, rb.value, ra.unit
                )
                .expect("string write");
            }
        }
    }
    Ok(Comparison { report: out, regressed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(seed: f64, wall: [f64; 3], energy: f64) -> Json {
        let s = Summary::of(&wall).unwrap();
        let metrics = Json::obj([
            (
                "wall_ms_per_block",
                Json::obj([
                    ("value", Json::Num(s.median)),
                    ("unit", Json::str("ms")),
                    ("better", Json::str("lower")),
                    ("bound", Json::Num(0.10)),
                    ("exact", Json::Bool(false)),
                    ("n", Json::Num(3.0)),
                    ("min", Json::Num(s.min)),
                    ("q1", Json::Num(s.q1)),
                    ("median", Json::Num(s.median)),
                    ("q3", Json::Num(s.q3)),
                    ("max", Json::Num(s.max)),
                ]),
            ),
            (
                "energy_mj_per_block",
                Json::obj([
                    ("value", Json::Num(energy)),
                    ("unit", Json::str("mJ")),
                    ("better", Json::str("lower")),
                    ("bound", Json::Num(0.05)),
                    ("exact", Json::Bool(true)),
                ]),
            ),
        ]);
        let run = Json::obj([
            ("workload", Json::str("sim_steady")),
            ("trace", Json::Bool(false)),
            ("correct", Json::Bool(true)),
            ("metrics", metrics),
        ]);
        Json::obj([("seed", Json::Num(seed)), ("runs", Json::Arr(vec![run]))])
    }

    #[test]
    fn identical_files_compare_clean() {
        let a = file(42.0, [0.99, 1.0, 1.01], 7.25);
        let c = compare(&a, &a).unwrap();
        assert!(!c.regressed, "{}", c.report);
        assert!(c.report.contains("same") && c.report.contains("identical"), "{}", c.report);
    }

    #[test]
    fn a_slowdown_past_the_bound_is_worse_and_a_changed_exact_metric_fails() {
        let a = file(42.0, [0.99, 1.0, 1.01], 7.25);
        let slow = compare(&a, &file(42.0, [1.29, 1.3, 1.31], 7.25)).unwrap();
        assert!(slow.regressed && slow.report.contains("worse"), "{}", slow.report);
        let drift = compare(&a, &file(42.0, [0.99, 1.0, 1.01], 7.250001)).unwrap();
        assert!(drift.regressed && drift.report.contains("CHANGED"), "{}", drift.report);
        // Another seed: exact metrics legitimately differ, so they are
        // skipped rather than failed.
        let reseeded = compare(&a, &file(43.0, [0.99, 1.0, 1.01], 7.3)).unwrap();
        assert!(!reseeded.regressed, "{}", reseeded.report);
    }

    #[test]
    fn noisy_overlapping_runs_are_unresolved() {
        let a = file(42.0, [0.8, 1.0, 1.25], 7.25);
        let b = file(42.0, [0.9, 1.15, 1.4], 7.25);
        let c = compare(&a, &b).unwrap();
        assert!(c.report.contains("unresolved"), "{}", c.report);
        assert!(!c.regressed);
    }
}
