//! Spans around the benchmark's calls into each crate.
//!
//! Every span is recorded from outside the library: the benchmark wraps its
//! own call into a crate's public function, so work a crate delegates to
//! another crate internally is charged to the outer call (a planner
//! admission's GK solve is planner time, not flowsim time). A span's layer is
//! the part of its name before the first dot.
//!
//! Coarse calls (a solve, a route precompute, a simulator run) always read
//! the clock, because their durations are also end-to-end latency samples;
//! only a tracing round keeps them as spans. Per-flow calls made from inside
//! the simulator (path selection, size and destination sampling) run
//! hundreds of thousands of times a round, so they are timed only when
//! tracing and kept as one aggregate span per name and parent.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::Timer;

/// One recorded span. An aggregate span (`count > 1`) stands for `count`
/// calls whose summed duration is `busy_ns`; its start and end are those of
/// its parent.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
    pub busy_ns: u64,
}

/// Span recorder for one round. With `on == false` it records nothing and
/// [`Tracer::span`] only times the call.
pub struct Tracer {
    on: bool,
    t0: Timer,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Timer::start(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.ns()
    }

    /// Run `f` inside a span named `name`; returns its result and its
    /// duration in milliseconds.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.on {
            let t = Timer::start();
            let r = f();
            return (r, t.ms());
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
                count: 1,
                busy_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let r = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let s = &mut spans[id];
        s.end_ns = end;
        s.busy_ns = end - s.start_ns;
        (r, s.busy_ns as f64 / 1e6)
    }

    /// Record the calls counted by `hot` as one aggregate span under the
    /// innermost open span.
    pub fn fold_hot(&self, hot: &Hot) {
        if self.on && hot.count.get() > 0 {
            let parent = self.open.borrow().last().copied();
            let now = self.now_ns();
            self.spans.borrow_mut().push(Span {
                name: hot.name,
                parent,
                start_ns: now,
                end_ns: now,
                count: hot.count.get(),
                busy_ns: hot.ns.get(),
            });
        }
    }

    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_ns as f64 / 1e6)
            .collect()
    }

    /// Summed duration (ms) and call count of spans named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(ms, n), s| {
                (ms + s.busy_ns as f64 / 1e6, n + s.count)
            })
    }

    /// Self time (ms) per layer: each span's duration minus the durations
    /// of its direct children, summed by layer.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.busy_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, &c) in spans.iter().zip(&child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += s.busy_ns.saturating_sub(c) as f64 / 1e6;
        }
        out
    }

    /// The spans as JSON Lines, each tagged with `round`.
    pub fn write_json(&self, round: usize, out: &mut String) {
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"round\": {round}, \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"count\": {}, \"busy_ns\": {}}}",
                s.name, s.start_ns, s.end_ns, s.count, s.busy_ns
            );
        }
    }
}

/// Call counter and, when tracing, summed duration of a per-flow call.
pub struct Hot {
    name: &'static str,
    on: bool,
    count: Cell<u64>,
    ns: Cell<u64>,
}

impl Hot {
    pub fn new(name: &'static str, tracer: &Tracer) -> Hot {
        Hot {
            name,
            on: tracer.on(),
            count: Cell::new(0),
            ns: Cell::new(0),
        }
    }

    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        self.count.set(self.count.get() + 1);
        if !self.on {
            return f();
        }
        let t = Timer::start();
        let r = f();
        self.ns.set(self.ns.get() + t.ns());
        r
    }

    pub fn count(&self) -> u64 {
        self.count.get()
    }
}
