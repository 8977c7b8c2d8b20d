//! Phase profiling: named counters with computed statistics
//! (DESIGN.md §12).
//!
//! The raw-speed work on the per-slot path needs every claim to name
//! the phase it came from: a "3× faster" row is only actionable when
//! it decomposes into *build* (action collection), *grid* (field
//! construction), *near-field* (candidate scans), *far-field-cert*
//! (ring accumulation + certification), *fallback* (exact naive
//! sums), and *merge* (outcome merge + slot bookkeeping). This module
//! is the registry those phases report into: a phase is a named
//! counter accumulating samples — one per slot, usually seconds — and
//! a finished recording computes `count`/`min`/`mean`/`max`/`total`
//! per phase for rendering as a table or emission into the `--json`
//! experiment documents.
//!
//! # Inert until started, observational when running
//!
//! The module and every emission site are always compiled. Emission
//! goes through a thread-local registry that is inert until [`start`]
//! installs one: at rest, an emission site costs one thread-local
//! [`is_active`] check and takes no `Instant`. Measured on a 2-core
//! x86-64 host, a check costs about 3 ns; the engine makes three per
//! slot, against about 15 µs per slot of a 512-node TVC run.
//! Recording only *observes* wall-clock, never a value that feeds back
//! into the run, so outputs stay byte-identical either way (same
//! contract as the `trace` recorder, sans ring buffer: a run has few
//! phases, not millions of events).
//!
//! The registry is thread-local on purpose, like the trace recorder:
//! every emission site runs on the thread that owns the trial. The
//! engine's pooled backend shards channel resolution across workers,
//! whose per-query phase time cannot reach this registry directly —
//! the workers instead *return* their accumulated counters with each
//! slot's outcomes and the driving thread records the merged sums, so
//! a parallel run's per-phase totals are CPU time across the pool,
//! not wall-clock.

use std::cell::RefCell;
use std::time::Instant;

/// Accumulated samples of one named phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseStats {
    /// Number of recorded samples.
    pub count: u64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sum of all samples.
    pub total: f64,
}

impl PhaseStats {
    /// Mean sample (`0.0` before the first record).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total / self.count as f64
        }
    }

    /// Folds one sample in.
    pub fn record(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.total += value;
    }
}

/// A finished recording: every phase in first-recorded order with its
/// computed statistics. First-recorded order is deterministic because
/// every emission site runs in the deterministic slot loop.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileReport {
    /// `(phase name, stats)` pairs, in first-recorded order.
    pub phases: Vec<(&'static str, PhaseStats)>,
}

impl ProfileReport {
    /// The stats of one phase, if it recorded any sample.
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|(n, _)| *n == name).map(|(_, s)| s)
    }
}

/// Phase names are few (≤ a dozen) and `&'static`, so a linear-scan
/// vector beats a hash map and keeps first-recorded order for free.
#[derive(Debug, Default)]
struct Registry {
    phases: Vec<(&'static str, PhaseStats)>,
}

thread_local! {
    static REGISTRY: RefCell<Option<Registry>> = const { RefCell::new(None) };
}

/// Installs a fresh registry on this thread, replacing (and
/// discarding) any previous one.
pub fn start() {
    REGISTRY.with(|r| *r.borrow_mut() = Some(Registry::default()));
}

/// Uninstalls this thread's registry and returns what it captured.
/// Returns an empty report if no registry was installed.
pub fn stop() -> ProfileReport {
    REGISTRY.with(|r| match r.borrow_mut().take() {
        Some(reg) => ProfileReport { phases: reg.phases },
        None => ProfileReport::default(),
    })
}

/// Whether a registry is installed on this thread. Emission sites
/// check this before paying for `Instant::now` pairs.
pub fn is_active() -> bool {
    REGISTRY.with(|r| r.borrow().is_some())
}

/// Records one sample into the named phase; a no-op without a
/// registry.
pub fn record(name: &'static str, value: f64) {
    REGISTRY.with(|r| {
        if let Some(reg) = r.borrow_mut().as_mut() {
            match reg.phases.iter_mut().find(|(n, _)| *n == name) {
                Some((_, stats)) => stats.record(value),
                None => {
                    let mut stats = PhaseStats::default();
                    stats.record(value);
                    reg.phases.push((name, stats));
                }
            }
        }
    });
}

/// Times `f` and records the elapsed seconds under `name` when a
/// registry is installed; otherwise just runs `f`.
pub fn time<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !is_active() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    record(name, start.elapsed().as_secs_f64());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lifecycle_and_inertness() {
        assert!(!is_active());
        record("ghost", 1.0); // no registry: dropped silently
        assert_eq!(stop(), ProfileReport::default());

        start();
        assert!(is_active());
        record("build", 2.0);
        record("grid", 5.0);
        record("build", 4.0);
        let report = stop();
        assert!(!is_active());
        assert_eq!(
            report.phases.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            vec!["build", "grid"],
            "phases keep first-recorded order"
        );
        let build = report.phase("build").unwrap();
        assert_eq!(build.count, 2);
        assert_eq!(build.min, 2.0);
        assert_eq!(build.max, 4.0);
        assert_eq!(build.total, 6.0);
        assert_eq!(build.mean(), 3.0);
        assert_eq!(report.phase("fallback"), None);
    }

    #[test]
    fn time_runs_the_closure_either_way() {
        assert_eq!(time("idle", || 7), 7);
        start();
        assert_eq!(time("busy", || 7), 7);
        let report = stop();
        let busy = report.phase("busy").unwrap();
        assert_eq!(busy.count, 1);
        assert!(busy.total >= 0.0);
    }

    #[test]
    fn stats_single_sample_degenerate() {
        let mut s = PhaseStats::default();
        assert_eq!(s.mean(), 0.0);
        s.record(3.5);
        assert_eq!(
            (s.count, s.min, s.max, s.total, s.mean()),
            (1, 3.5, 3.5, 3.5, 3.5)
        );
    }
}
