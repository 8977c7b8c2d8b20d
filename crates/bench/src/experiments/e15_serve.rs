//! E15 — the self-healing service loop under sustained Poisson churn
//! (DESIGN.md §13).
//!
//! E13 measured one-shot churn: inject a batch, recover, stop. This
//! experiment runs the [`crate::serve`] discrete-event loop instead —
//! a sustained Poisson trace of crash faults (plus a thinner join
//! stream) arriving against uniform instances at n = 4096–16384, each
//! fault batch flowing through the *full* robustness pipeline: the
//! timeout detector declares the crashed parents from missed
//! heartbeats, its suspect set is handed verbatim to
//! `repair_after_failures`, joins attach to the repaired structure,
//! and every recovery is audited end to end (bidirectional schedule
//! feasibility + the Definition 1 delivery replay) before the loop
//! accepts the next batch.
//!
//! Reported per row: recovery **throughput** (served events per
//! wall-clock second — measured, like every engineering experiment's
//! timing column) and the **detection / recovery latency distribution**
//! in slots (p50/p99/max by the deterministic nearest-rank rule,
//! pooled across the seed ensemble), plus the backpressure counters
//! (queue peak, early batch closes — each one a cancelled window
//! timer).
//!
//! Asserted per trial: every arrival served, zero skipped faults,
//! detector coverage exact (inside [`crate::serve::serve`]), and every
//! audit clean. The latency columns are deterministic; only the
//! events/sec column is wall-clock.

use crate::ensemble::Ensemble;
use crate::serve::{serve, ServeConfig, ServeReport};
use crate::stats::Stats;
use crate::table::{f2, Table};
use crate::workloads::Family;
use crate::ExpOptions;

/// `(n, events)` rungs: larger instances get shorter traces so the
/// full ladder stays tractable.
fn ladder(quick: bool) -> &'static [(usize, usize)] {
    if quick {
        &[(512, 10), (1024, 8)]
    } else {
        &[(4096, 40), (8192, 28), (16384, 16)]
    }
}

/// Runs E15.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let params = opts.params();
    let seeds = opts.ensemble_seeds();
    let driver = Ensemble::from_opts(opts);
    let specs = ladder(opts.quick);

    let results: Vec<Vec<ServeReport>> = driver.map_rows(
        opts.seed,
        specs.len(),
        seeds,
        |row, inst_seed, algo_seed| {
            let (n, events) = specs[row];
            let inst = Family::UniformSquare.instance(n, inst_seed);
            let cfg = ServeConfig {
                events,
                detect: sinr_connectivity::DetectConfig {
                    backend: opts.backend,
                    ..ServeConfig::default().detect
                },
                repack: opts.repack,
                ..ServeConfig::default()
            };
            let rep = serve(&params, &inst, &cfg, algo_seed)
                .unwrap_or_else(|e| panic!("E15 n={n} seed={algo_seed:#x}: {e}"));
            assert_eq!(rep.events, events, "E15 n={n}: arrivals dropped");
            assert_eq!(rep.skipped_faults, 0, "E15 n={n}: victim pool starved");
            assert!(rep.audits >= rep.batches, "E15 n={n}: unaudited batch");
            rep
        },
    );

    let mut table = Table::new(
        "E15: self-healing service loop under sustained Poisson churn (uniform, MST base)",
        "the loop absorbs a sustained fault/join stream: detector coverage is exact \
         (asserted per batch), every recovery passes the bidirectional feasibility + \
         delivery audits before the next batch, and detection/recovery latency stays \
         flat in slots as n grows (latency percentiles are deterministic nearest-rank \
         over the pooled ensemble; only ev/s is wall-clock — snapshot taken at \
         --threads 1)",
        &[
            "n",
            "events",
            "seeds",
            "batches",
            "early closes",
            "queue peak",
            "ev/s",
            "det p50",
            "det p99",
            "det max",
            "rec p50",
            "rec p99",
            "rec max",
            "audits",
        ],
    );
    for ((n, events), trials) in specs.iter().zip(&results) {
        let pool = |pick: fn(&ServeReport) -> &[f64]| -> Stats {
            let xs: Vec<f64> = trials
                .iter()
                .flat_map(|t| pick(t).iter().copied())
                .collect();
            Stats::of(&xs)
        };
        let det = pool(|t| &t.detection_slots);
        let rec = pool(|t| &t.recovery_slots);
        let batches: usize = trials.iter().map(|t| t.batches).sum();
        let closes: usize = trials.iter().map(|t| t.cancelled_closes).sum();
        let peak = trials.iter().map(|t| t.queue_peak).max().unwrap_or(0);
        let audits: usize = trials.iter().map(|t| t.audits).sum();
        let evs = Stats::of(
            &trials
                .iter()
                .map(ServeReport::events_per_sec)
                .collect::<Vec<_>>(),
        );
        table.push_row(vec![
            n.to_string(),
            events.to_string(),
            seeds.to_string(),
            batches.to_string(),
            closes.to_string(),
            peak.to_string(),
            f2(evs.mean),
            f2(det.p50),
            f2(det.p99),
            f2(det.max),
            f2(rec.p50),
            f2(rec.p99),
            f2(rec.max),
            audits.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_serves_and_audits_cleanly() {
        let opts = ExpOptions {
            quick: true,
            seed: 15,
            seeds: 2,
            ..Default::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), ladder(true).len());
        for row in &tables[0].rows {
            let batches: usize = row[3].parse().unwrap();
            let audits: usize = row[13].parse().unwrap();
            assert!(batches >= 1, "{row:?}");
            assert!(audits >= batches, "{row:?}");
            // Detection is never instant; recovery includes detection.
            let det_p50: f64 = row[7].parse().unwrap();
            let rec_p50: f64 = row[10].parse().unwrap();
            assert!(det_p50 > 0.0, "{row:?}");
            assert!(rec_p50 >= det_p50, "{row:?}");
        }
    }
}
