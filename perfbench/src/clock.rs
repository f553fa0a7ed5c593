//! The benchmark's one wall-clock source. pnet-tidy's D2 rule keeps clock
//! reads out of the workspace so that runs stay reproducible; a benchmark
//! exists to read the clock, so it reads it here and nowhere else.

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Timer(
    // pnet-tidy: allow(D2) -- the benchmark's only clock; no library code reads it
    std::time::Instant,
);

impl Timer {
    pub fn start() -> Timer {
        // pnet-tidy: allow(D2) -- the benchmark's only clock; no library code reads it
        Timer(std::time::Instant::now())
    }

    pub fn secs(self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    pub fn ms(self) -> f64 {
        self.secs() * 1e3
    }

    pub fn ns(self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}
