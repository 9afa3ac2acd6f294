//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer. The program's profiler only exposes per-phase
//! totals, so the phases under a run (`net.sched_pop`, `*.replica_step`,
//! `net.transmit`) are *aggregate* spans: one span per phase whose
//! duration is the phase's accumulated nanoseconds, laid end to end from
//! the parent's start, with the entry count alongside.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Region entries folded into an aggregate span (`None` for a span
    /// timed directly).
    pub aggregate_count: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans for one workload; every span carries the workload's
/// name as its shared identifier.
pub struct Spans {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new(workload: &str) -> Spans {
        Spans {
            workload: workload.into(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a new span under the innermost open one.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            aggregate_count: None,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Adds aggregate child spans `(name, nanos, entries)` under the
    /// innermost open span, end to end from its start.
    pub fn aggregates(&mut self, phases: &[(&str, u64, u64)]) {
        let Some(&parent) = self.open.last() else { return };
        let mut cursor = self.spans[parent as usize].start_ns;
        for &(name, nanos, entries) in phases {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent: Some(parent),
                name: name.into(),
                start_ns: cursor,
                end_ns: cursor + nanos,
                aggregate_count: Some(entries),
            });
            cursor += nanos;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus its children's.
    pub fn self_ns(&self, id: u32) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::duration_ns).sum();
        self.spans[id as usize].duration_ns().saturating_sub(children)
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("id".to_string(), Json::Num(s.id as f64)),
                    ("parent".to_string(), s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("name".to_string(), Json::str(&s.name)),
                    ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                    ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                    ("self_ns".to_string(), Json::Num(self.self_ns(s.id) as f64)),
                ];
                if let Some(count) = s.aggregate_count {
                    fields.push(("aggregate_count".to_string(), Json::Num(count as f64)));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::obj([("workload", Json::str(&self.workload)), ("spans", Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut spans = Spans::new("w");
        spans.scope("outer", |s| {
            s.scope("inner", |s| {
                s.aggregates(&[("a", 30, 3), ("b", 50, 5)]);
            });
            s.scope("sibling", |_| {});
        });
        let all = spans.spans();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!((all[2].parent, all[3].parent), (Some(1), Some(1)));
        assert_eq!(all[4].parent, Some(0));
        // Aggregates sit end to end from the parent's start.
        assert_eq!(all[2].start_ns, all[1].start_ns);
        assert_eq!(all[3].start_ns, all[2].end_ns);
        assert_eq!((all[2].duration_ns(), all[3].duration_ns()), (30, 50));
        assert_eq!(all[3].aggregate_count, Some(5));
        // Self time never underflows, and excludes the children.
        let outer_children = all[1].duration_ns() + all[4].duration_ns();
        assert_eq!(spans.self_ns(0), all[0].duration_ns() - outer_children);
        assert_eq!(spans.self_ns(1), all[1].duration_ns().saturating_sub(80));
        let json = spans.to_json();
        assert_eq!(json.get("workload").and_then(Json::as_str), Some("w"));
        assert_eq!(json.get("spans").and_then(Json::as_arr).map(<[Json]>::len), Some(5));
    }
}
