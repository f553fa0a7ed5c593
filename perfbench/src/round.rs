//! One round of a workload: set-up, the fixed work, and the checks on its
//! outputs, with everything the report needs from it.

use std::collections::BTreeMap;

use pnet_routing::Fnv;

use crate::clock::Timer;
use crate::trace::Tracer;

/// What one round measured. `counters` holds deterministic work counts and
/// output digests: for one seed they must repeat exactly in every round.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    pub run_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub query_ms: Vec<f64>,
    pub reconverge_ms: Vec<f64>,
    pub counters: BTreeMap<&'static str, u64>,
    /// Per-layer values the workload computes itself: model outputs and
    /// check results that are not counts.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Round {
    /// Count one checked operation; a false `ok` is a failed operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }
}

/// Wall clock of the timed work, minus the intervals spent in checks.
pub struct Clock {
    start: Timer,
    excluded_s: f64,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            start: Timer::start(),
            excluded_s: 0.0,
        }
    }

    /// Run `f` off the clock.
    pub fn exclude<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Timer::start();
        let r = f();
        self.excluded_s += t.secs();
        r
    }

    pub fn seconds(&self) -> f64 {
        self.start.secs() - self.excluded_s
    }
}

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank `p`-quantile (0 < p ≤ 1); 0 for no samples.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// FNV-1a over a sequence of words, cut to 53 bits so that the digest is an
/// exact JSON number.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    for w in words {
        h.u64(w);
    }
    h.0 & ((1 << 53) - 1)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Set-up repetitions per round: at least `SETUP_MIN_REPS`, and more while
/// they add up to less than `SETUP_MIN_SECS`, so that a set-up of a few
/// milliseconds is still timed over many samples.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 50;
const SETUP_MIN_SECS: f64 = 0.2;

/// Run `setup` repeatedly and keep the last result, which is the only
/// traced repetition. Returns it with the median set-up time in seconds.
pub fn repeat_setup<S>(tr: &Tracer, setup: impl Fn(&Tracer) -> S) -> (S, f64) {
    let quiet = Tracer::new(false);
    let mut secs: Vec<f64> = Vec::new();
    while secs.len() + 1 < SETUP_MIN_REPS
        || (secs.iter().sum::<f64>() < SETUP_MIN_SECS && secs.len() + 1 < SETUP_MAX_REPS)
    {
        let t = Timer::start();
        let state = setup(&quiet);
        secs.push(t.secs());
        drop(state);
    }
    let t = Timer::start();
    let state = setup(tr);
    secs.push(t.secs());
    (state, median(&secs))
}
