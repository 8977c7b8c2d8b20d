//! E1 — Theorem 2: `Init` builds a bi-tree in `O(log Δ · log n)` slots.
//!
//! Table E1a sweeps `n` on uniform and clustered deployments; the
//! normalized column `slots / (log Δ · log n)` should stay roughly flat
//! if the bound's shape holds. Table E1b fixes `n` and sweeps `Δ`
//! through exponential chains; slots should grow linearly in `log Δ`.
//!
//! Both tables are ensemble runs: every row aggregates `--seeds K`
//! independent trials and reports `mean ±95% CI` (Theorem 2 holds
//! w.h.p. over the random instance, so the CI — not a single draw — is
//! the reproducible object). All `(row, k)` trials of both tables fan
//! out through **one** [`crate::ensemble`] dispatch, so the whole
//! ladder shares the worker pool.

use sinr_connectivity::init::run_init;

use crate::ensemble::Ensemble;
use crate::stats::Stats;
use crate::table::{f2, Table};
use crate::workloads::{delta_sweep, Family};
use crate::ExpOptions;

/// Runs E1 and returns tables E1a and E1b.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let params = opts.params();
    let cfg = opts.init_config();
    let seeds = opts.ensemble_seeds();
    let driver = Ensemble::from_opts(opts);

    // Row specs for both tables up front: E1a rows draw a fresh
    // instance per trial; E1b rows keep the chain geometry as the
    // row's fixture (only the protocol's coin flips vary).
    let a_specs: Vec<(Family, usize)> = [Family::UniformSquare, Family::Clustered]
        .into_iter()
        .flat_map(|family| opts.sizes().iter().map(move |&n| (family, n)))
        .collect();
    let nb = if opts.quick { 16 } else { 24 };
    let b_specs = delta_sweep(nb, opts.seed);

    let rows = a_specs.len() + b_specs.len();
    // One fan-out for the whole experiment; `(slots, rounds, norm,
    // logΔ)` per trial (E1b rows only consume the slots component).
    let results = driver.map_rows(opts.seed, rows, seeds, |row, inst_seed, algo_seed| {
        if row < a_specs.len() {
            let (family, n) = a_specs[row];
            let inst = family.instance(n, inst_seed);
            let out = run_init(&params, &inst, &cfg, algo_seed).expect("init converges");
            let log_delta = inst.delta().log2().max(1.0);
            let log_n = (inst.len() as f64).log2();
            (
                out.run.slots_used as f64,
                out.run.rounds_used as f64,
                out.run.slots_used as f64 / (log_delta * log_n),
                log_delta,
            )
        } else {
            let (_, inst) = &b_specs[row - a_specs.len()];
            let out = run_init(&params, inst, &cfg, algo_seed).expect("init converges");
            (out.run.slots_used as f64, 0.0, 0.0, 0.0)
        }
    });
    let mut per_row = results.iter();

    // ---- E1a: slots vs n ------------------------------------------
    let mut t1 = Table::new(
        "E1a: Init slots vs n",
        "slots = O(log Δ · log n): the normalized column stays ~flat \
         (mean ±95% CI over the seed ensemble)",
        &[
            "family",
            "n",
            "seeds",
            "logΔ",
            "slots",
            "rounds",
            "slots/(logΔ·log n)",
        ],
    );
    for &(family, n) in &a_specs {
        let trials = per_row.next().expect("one chunk per row");
        let slots = Stats::of(&trials.iter().map(|r| r.0).collect::<Vec<_>>());
        let rounds = Stats::of(&trials.iter().map(|r| r.1).collect::<Vec<_>>());
        let norm = Stats::of(&trials.iter().map(|r| r.2).collect::<Vec<_>>());
        let logd = Stats::of(&trials.iter().map(|r| r.3).collect::<Vec<_>>());
        t1.push_row(vec![
            family.label().into(),
            n.to_string(),
            seeds.to_string(),
            f2(logd.mean),
            slots.cell(),
            rounds.cell(),
            norm.cell(),
        ]);
    }

    // ---- E1b: slots vs Δ at fixed n --------------------------------
    let mut t2 = Table::new(
        "E1b: Init slots vs Delta (exponential chains, fixed n)",
        "slots grow ~linearly in log Δ at fixed n (mean ±95% CI)",
        &["growth", "logΔ", "seeds", "slots", "slots/logΔ"],
    );
    for (growth, inst) in &b_specs {
        let trials = per_row.next().expect("one chunk per row");
        let log_delta = inst.delta().log2().max(1.0);
        let slots = Stats::of(&trials.iter().map(|r| r.0).collect::<Vec<_>>());
        let per_logd = Stats::of(&trials.iter().map(|r| r.0 / log_delta).collect::<Vec<_>>());
        t2.push_row(vec![
            f2(*growth),
            f2(log_delta),
            seeds.to_string(),
            slots.cell(),
            per_logd.cell(),
        ]);
    }

    vec![t1, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_tables() {
        let opts = ExpOptions {
            quick: true,
            seed: 1,
            ..Default::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 2);
        assert!(!tables[0].rows.is_empty());
        assert!(!tables[1].rows.is_empty());
        // Ensemble cells render as `mean ±ci`.
        for row in &tables[0].rows {
            assert_eq!(row[2], "2"); // quick default ensemble size
            assert!(row[4].contains(" ±"), "slots cell not an ensemble: {row:?}");
        }
    }

    /// The rows are byte-identical at any worker-thread count — the
    /// experiment-level version of the driver's ordered-merge contract.
    #[test]
    fn thread_count_does_not_change_row_bytes() {
        let base = ExpOptions {
            quick: true,
            seed: 3,
            seeds: 3,
            threads: 1,
            ..Default::default()
        };
        let one = run(&base);
        let four = run(&ExpOptions { threads: 4, ..base });
        assert_eq!(one, four);
    }
}
