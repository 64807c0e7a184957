//! In-memory spans recorded around the benchmark's own calls into the
//! workspace crates (nothing inside the crates is instrumented).
//!
//! A span is `(name, start, end, parent, job)`. Spans are kept in
//! memory and written out when the run ends. A span's *self time* is
//! its duration minus the part of its interval its children cover.

use std::time::Instant;
use taskrt::json::Value;

/// One closed span; times are seconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub job: u32,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Span recorder. When disabled, [`Spans::span`] only runs its closure,
/// so untraced jobs carry no recording cost beyond one branch.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    job: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            job: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans opened from now on belong to job `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Every span as a JSON array (with its self time), for the run's
    /// output file.
    pub fn to_value(&self) -> Value {
        let selfs = self_times(&self.spans);
        Value::Array(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, own)| {
                    Value::Object(vec![
                        ("name".into(), Value::String(s.name.into())),
                        ("job".into(), Value::Number(f64::from(s.job))),
                        ("start_s".into(), Value::Number(s.start_s)),
                        ("end_s".into(), Value::Number(s.end_s)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::Number(p as f64)),
                        ),
                        ("self_s".into(), Value::Number(own)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_s, s.end_s));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_s;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_s));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_s() - covered
        })
        .collect()
}

/// Per-job summary of the spans under one root span (the job).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobLedger {
    /// Root span duration.
    pub wall_s: f64,
    /// Summed duration of the root's descendants, per span name.
    pub by_name: Vec<(&'static str, f64)>,
    /// Share of the root's duration covered by its children, i.e.
    /// `1 - root self time / root duration`.
    pub explained_frac: f64,
}

impl JobLedger {
    pub fn get(&self, name: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .sum()
    }
}

/// Summarizes the subtree of the span at `root`.
pub fn ledger(spans: &[Span], root: usize) -> JobLedger {
    let selfs = self_times(spans);
    let in_subtree = |mut i: usize| loop {
        match spans[i].parent {
            Some(p) if p == root => return true,
            Some(p) => i = p,
            None => return false,
        }
    };
    let mut by_name: Vec<(&'static str, f64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if i == root || !in_subtree(i) {
            continue;
        }
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some(e) => e.1 += s.duration_s(),
            None => by_name.push((s.name, s.duration_s())),
        }
    }
    let wall_s = spans[root].duration_s();
    JobLedger {
        wall_s,
        by_name,
        explained_frac: if wall_s > 0.0 {
            1.0 - selfs[root] / wall_s
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_s,
            end_s,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            sp("job", 0.0, 10.0, None),
            sp("a", 1.0, 4.0, Some(0)),
            sp("b", 5.0, 9.0, Some(0)),
            sp("a.inner", 2.0, 3.0, Some(1)),
        ];
        let s = self_times(&spans);
        assert_eq!(s, vec![3.0, 2.0, 4.0, 1.0]);
        // Self times partition the root's interval.
        assert_eq!(s.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            sp("job", 0.0, 10.0, None),
            sp("x", 1.0, 5.0, Some(0)),
            sp("y", 3.0, 6.0, Some(0)),
            sp("z", 8.0, 12.0, Some(0)),
        ];
        // Covered: [1,6] + [8,10] = 7.
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn ledger_sums_descendants_by_name() {
        let spans = vec![
            sp("job", 0.0, 10.0, None),
            sp("stage", 0.5, 9.5, Some(0)),
            sp("runtime.wait", 1.0, 3.0, Some(1)),
            sp("runtime.wait", 4.0, 5.0, Some(1)),
            sp("other_job", 20.0, 30.0, None),
            sp("runtime.wait", 21.0, 29.0, Some(4)),
        ];
        let l = ledger(&spans, 0);
        assert_eq!(l.wall_s, 10.0);
        assert_eq!(l.get("runtime.wait"), 3.0);
        assert_eq!(l.get("stage"), 9.0);
        assert_eq!(l.get("missing"), 0.0);
        assert!((l.explained_frac - 0.9).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut on = Spans::new(true);
        on.set_job(3);
        let v = on.span("job", |s| s.span("inner", |_| 7));
        assert_eq!(v, 7);
        let all = on.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[1].job, 3);
        assert!(all[0].start_s <= all[1].start_s && all[1].end_s <= all[0].end_s);

        let mut off = Spans::new(false);
        assert_eq!(off.span("job", |s| s.span("inner", |_| 1)), 1);
        assert!(off.all().is_empty());
    }
}
