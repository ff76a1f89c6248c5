//! The benchmark's own spans around calls into the library's layers, and
//! the order statistics every metric is reported with.
//!
//! Spans live in memory. Each carries the step id it belongs to and the
//! span that was open when it started (its parent). A layer's self time
//! is its span's duration minus the time its child spans cover; all
//! spans are recorded on one thread, so children never overlap.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    step: u64,
    parent: Option<usize>,
    start: Instant,
    ns: f64,
}

/// An in-memory span recorder; a disabled one only runs the closures.
pub struct Spans {
    enabled: bool,
    spans: RefCell<Vec<Span>>,
    open: Cell<Option<usize>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            spans: RefCell::new(Vec::new()),
            open: Cell::new(None),
        }
    }

    /// Runs `f` inside a span `name` of step `step`.
    pub fn time<R>(&self, name: &'static str, step: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                step,
                parent: self.open.get(),
                start: Instant::now(),
                ns: 0.0,
            });
            spans.len() - 1
        };
        let parent = self.open.replace(Some(idx));
        let out = f();
        self.open.set(parent);
        let mut spans = self.spans.borrow_mut();
        spans[idx].ns = spans[idx].start.elapsed().as_secs_f64() * 1e9;
        out
    }

    /// Self time per span name, summed over all recorded spans, in
    /// nanoseconds, together with the number of spans of that name.
    pub fn self_ns(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, c) in spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += s.ns - c;
            e.1 += 1;
        }
        out
    }

    /// Distinct step ids among the recorded spans.
    pub fn steps(&self) -> usize {
        let mut ids: Vec<u64> = self.spans.borrow().iter().map(|s| s.step).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Mean self time of layer `name` per recorded step, in milliseconds.
    pub fn ms_per_step(&self, name: &str) -> f64 {
        let steps = self.steps().max(1) as f64;
        self.self_ns()
            .get(name)
            .map_or(0.0, |(ns, _)| ns / 1e6 / steps)
    }

    /// Mean self time of one call of `name`, in milliseconds.
    pub fn ms_per_call(&self, name: &str) -> f64 {
        self.self_ns()
            .get(name)
            .map_or(0.0, |(ns, n)| ns / 1e6 / (*n).max(1) as f64)
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median over each run of `n` consecutive values of its
/// `q`-quantile (a trailing shorter run is dropped unless it is the only
/// one): a tail percentile that a burst of interference in one part of a
/// run moves less than the percentile of the whole run.
pub fn windowed_quantile(values: &[f64], n: usize, q: f64) -> f64 {
    let per: Vec<f64> = values.chunks_exact(n).map(|c| quantile(c, q)).collect();
    if per.is_empty() {
        quantile(values, q)
    } else {
        median(&per)
    }
}
