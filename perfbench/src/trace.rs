//! In-memory span recording around the benchmark's calls into each layer.
//!
//! Two kinds of span exist. A *stage* span (`publish`, `adapt`, `retarget`,
//! `job`) is always recorded: its duration is an end-to-end measurement.
//! A *layer* span (`dist.push`, `oci.save`, …) is recorded only when
//! tracing is on, as a child of the open stage; with tracing off the call
//! runs bare. Spans stay in memory and are written out once, at the end.

use crate::stats::self_time;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Seconds since the run's epoch.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Measured iteration (or job) the span belongs to.
    pub iter: usize,
    /// Client thread that recorded it.
    pub thread: usize,
    /// Whether layer tracing was on when it was recorded.
    pub traced: bool,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Option<usize>,
    pub iter: usize,
    thread: usize,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: usize) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: None,
            iter: 0,
            thread,
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn record(&mut self, name: &str, start: f64, end: f64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent,
            iter: self.iter,
            thread: self.thread,
            traced: self.on,
        });
        self.spans.len() - 1
    }

    /// Run `f` as stage `name`; always recorded. Layer spans opened inside
    /// become its children. Returns `f`'s result and the stage's seconds.
    pub fn stage<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = self.now();
        let idx = self.record(name, start, start, None);
        let outer = self.open.replace(idx);
        let out = f(self);
        let end = self.now();
        self.open = outer;
        self.spans[idx].end = end;
        (out, end - start)
    }

    /// Run `f` as a call into layer `name`; recorded only when tracing.
    pub fn layer<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        let parent = self.open;
        self.record(name, start, end, parent);
        out
    }

    /// Record a span measured elsewhere (e.g. inside a worker thread).
    pub fn add(&mut self, name: &str, start: Instant, end: Instant) {
        if self.on {
            let (s, e) = (
                start.duration_since(self.epoch).as_secs_f64(),
                end.duration_since(self.epoch).as_secs_f64(),
            );
            let parent = self.open;
            self.record(name, s, e, parent);
        }
    }

    /// Move another thread's spans in, re-indexing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Summed duration of this thread's spans called `name` in iteration
    /// `iter` (a layer called by several commands of one iteration).
    pub fn per_iter_totals_at(&self, name: &str, iter: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.iter == iter && s.thread == self.thread)
            .map(Span::dur)
            .sum()
    }

    /// For every traced stage span called `stage`, the share of its wall
    /// time no layer span covers (its self time over its duration), with
    /// that duration.
    pub fn untraced_shares(&self, stage: &str) -> Vec<(f64, f64)> {
        let mut children: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == stage && s.traced && s.dur() > 0.0)
            .map(|(i, s)| {
                let kids = children.get(&i).map(Vec::as_slice).unwrap_or(&[]);
                (self_time((s.start, s.end), kids) / s.dur(), s.dur())
            })
            .collect()
    }

    /// All spans as a JSON array (one object per span).
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"workload\":\"{workload}\",\"iter\":{},\"thread\":{},\"traced\":{}}}",
                s.name, s.start, s.end, s.iter, s.thread, s.traced
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_nest_under_the_open_stage_only_when_tracing() {
        let epoch = Instant::now();
        let mut on = Tracer::new(true, epoch, 0);
        let ((), _) = on.stage("publish", |tr| {
            tr.layer("dist.push", || ());
            tr.layer("oci.save", || ());
        });
        assert_eq!(on.spans.len(), 3);
        assert_eq!(on.spans[1].parent, Some(0));
        assert_eq!(on.spans[2].parent, Some(0));

        let mut off = Tracer::new(false, epoch, 0);
        let ((), _) = off.stage("publish", |tr| tr.layer("dist.push", || ()));
        assert_eq!(off.spans.len(), 1, "stage spans are always kept");
    }

    #[test]
    fn untraced_share_is_self_time_over_duration() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(true, epoch, 0);
        let span = |name: &str, start, end, parent| Span {
            name: name.into(),
            start,
            end,
            parent,
            iter: 0,
            thread: 0,
            traced: true,
        };
        tr.spans = vec![
            span("adapt", 0.0, 4.0, None),
            span("oci.load", 0.0, 1.0, Some(0)),
            span("redirect", 2.0, 3.0, Some(0)),
            span("oci.load", 3.0, 3.5, Some(0)),
        ];
        assert_eq!(tr.untraced_shares("adapt"), vec![(0.375, 4.0)]);
        assert_eq!(tr.per_iter_totals_at("oci.load", 0), 1.5);
        tr.spans[0].traced = false;
        assert!(
            tr.untraced_shares("adapt").is_empty(),
            "untraced stages have no breakdown"
        );
    }

    #[test]
    fn absorb_reindexes_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch, 0);
        a.stage("job", |tr| tr.layer("x", || ()));
        let mut b = Tracer::new(true, epoch, 1);
        b.stage("job", |tr| tr.layer("y", || ()));
        a.absorb(b);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.spans[3].thread, 1);
    }
}
