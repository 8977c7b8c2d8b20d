//! E2 — Theorem 7: the `Init` tree's degree tail is exponential,
//! `P(deg ≥ d) ≤ e^{−p²d/8}`, so the maximum degree is `O(log n)`.
//!
//! Table E2a reports max/mean degree vs `n` (max should grow at most
//! logarithmically); E2b compares the measured tail against the
//! theorem's bound at the configured `p` (the bound is loose — the
//! shape to check is *exponential decay*).
//!
//! Both tables draw from one `--seeds K` ensemble per row through the
//! [`crate::ensemble`] driver (hierarchical seed split, one dispatch
//! for the whole ladder); E2a reports `mean ±95% CI`, E2b pools the
//! tails of every trial.

use sinr_connectivity::init::run_init;
use sinr_links::degree::DegreeStats;

use crate::ensemble::Ensemble;
use crate::stats::Stats;
use crate::table::{f2, f3, Table};
use crate::workloads::Family;
use crate::ExpOptions;

/// Runs E2 and returns tables E2a and E2b.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let params = opts.params();
    let cfg = opts.init_config();
    let seeds = opts.ensemble_seeds();
    let driver = Ensemble::from_opts(opts);

    let sizes = opts.sizes();
    let stats: Vec<Vec<DegreeStats>> = driver.map_rows(
        opts.seed,
        sizes.len(),
        seeds,
        |row, inst_seed, algo_seed| {
            let inst = Family::UniformSquare.instance(sizes[row], inst_seed);
            let out = run_init(&params, &inst, &cfg, algo_seed).expect("init converges");
            DegreeStats::of(&out.tree.aggregation_links())
        },
    );

    let mut t1 = Table::new(
        "E2a: Init tree degrees vs n",
        "max degree = O(log n); mean degree < 2 + o(1) on trees (mean ±95% CI)",
        &[
            "n",
            "log n",
            "seeds",
            "max deg",
            "max deg (worst)",
            "mean deg",
        ],
    );
    for (&n, trials) in sizes.iter().zip(&stats) {
        let maxes = Stats::of(&trials.iter().map(|s| s.max as f64).collect::<Vec<_>>());
        let means = Stats::of(&trials.iter().map(|s| s.mean).collect::<Vec<_>>());
        t1.push_row(vec![
            n.to_string(),
            f2((n as f64).log2()),
            seeds.to_string(),
            maxes.cell(),
            f2(maxes.max),
            means.cell(),
        ]);
    }

    // E2b: pooled tail over every trial of every size.
    let p = cfg.p;
    let mut t2 = Table::new(
        "E2b: degree tail P(deg >= d), pooled over all runs",
        "exponential decay; Thm 7 bound e^{-p^2 d/8} is a (loose) ceiling",
        &["d", "measured P(deg>=d)", "Thm 7 bound"],
    );
    let pooled_nodes: usize = stats.iter().flatten().map(|s| s.nodes).sum();
    let max_d = stats.iter().flatten().map(|s| s.max).max().unwrap_or(0);
    for d in 1..=max_d {
        let at_least: f64 = stats
            .iter()
            .flatten()
            .map(|s| s.tail(d) * s.nodes as f64)
            .sum::<f64>()
            / pooled_nodes.max(1) as f64;
        t2.push_row(vec![
            d.to_string(),
            f3(at_least),
            f3(DegreeStats::theorem7_bound(p, d)),
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
            seed: 2,
            ..Default::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 2);
        assert!(!tables[0].rows.is_empty());
        for row in &tables[0].rows {
            assert_eq!(row[2], "2"); // quick default ensemble size
        }
        // Tail at d=1 is 1.0 (every incident node has degree ≥ 1).
        assert_eq!(tables[1].rows[0][1], "1.000");
    }

    /// `--seeds` widens the ensemble.
    #[test]
    fn explicit_seeds_override_default_trials() {
        let opts = ExpOptions {
            quick: true,
            seed: 2,
            seeds: 3,
            ..Default::default()
        };
        let tables = run(&opts);
        for row in &tables[0].rows {
            assert_eq!(row[2], "3");
        }
    }
}
