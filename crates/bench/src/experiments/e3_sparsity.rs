//! E3 — Theorems 11 & 13: the `Init` tree is `O(log n)`-sparse and its
//! degree-capped subtree `T(M)` is `O(1)`-sparse while keeping a
//! constant fraction of the links.
//!
//! Rows aggregate a `--seeds K` ensemble through the
//! [`crate::ensemble`] driver (one dispatch for the whole ladder) and
//! report `mean ±95% CI`.

use sinr_connectivity::init::run_init;
use sinr_links::{sparsity, LinkSet};

use crate::ensemble::Ensemble;
use crate::stats::Stats;
use crate::table::Table;
use crate::workloads::Family;
use crate::ExpOptions;

/// Runs E3, reporting the degree-capped subtree at two caps (the TVC
/// default ρ = 8 and an aggressive ρ = 4 that actually prunes).
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let params = opts.params();
    let cfg = opts.init_config();
    let seeds = opts.ensemble_seeds();
    let driver = Ensemble::from_opts(opts);

    let mut t = Table::new(
        "E3: sparsity of the Init tree and its degree-capped subtree",
        "ψ(T) = O(log n) (Thm 11); ψ(T(M)) = O(1) and |T(M)|/|T| = Ω(1) (Thm 13) \
         (mean ±95% CI)",
        &[
            "n",
            "seeds",
            "ψ(T) lower",
            "ψ(T) upper",
            "ψ(T(M,8))",
            "|T(M,8)|/|T|",
            "ψ(T(M,4))",
            "|T(M,4)|/|T|",
        ],
    );

    let sizes = opts.sizes();
    let rows = driver.map_rows(
        opts.seed,
        sizes.len(),
        seeds,
        |row, inst_seed, algo_seed| {
            let inst = Family::UniformSquare.instance(sizes[row], inst_seed);
            let out = run_init(&params, &inst, &cfg, algo_seed).expect("init converges");
            let links = out.tree.aggregation_links();
            let lo = sparsity::sparsity_lower_bound(&inst, &links) as f64;
            let hi = sparsity::sparsity_upper_bound(&inst, &links) as f64;

            let degrees = links.degrees();
            let capped = |cap: usize| -> (f64, f64) {
                let sub: LinkSet = links
                    .iter()
                    .filter(|l| {
                        degrees.get(&l.sender).copied().unwrap_or(0) <= cap
                            && degrees.get(&l.receiver).copied().unwrap_or(0) <= cap
                    })
                    .collect();
                (
                    sparsity::sparsity_lower_bound(&inst, &sub) as f64,
                    sub.len() as f64 / links.len().max(1) as f64,
                )
            };
            let (psi8, frac8) = capped(8);
            let (psi4, frac4) = capped(4);
            (lo, hi, psi8, frac8, psi4, frac4)
        },
    );

    type Pick = fn(&(f64, f64, f64, f64, f64, f64)) -> f64;
    for (&n, trials) in sizes.iter().zip(&rows) {
        let col = |f: Pick| Stats::of(&trials.iter().map(f).collect::<Vec<_>>()).cell();
        t.push_row(vec![
            n.to_string(),
            seeds.to_string(),
            col(|r| r.0),
            col(|r| r.1),
            col(|r| r.2),
            col(|r| r.3),
            col(|r| r.4),
            col(|r| r.5),
        ]);
    }

    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_table() {
        let opts = ExpOptions {
            quick: true,
            seed: 3,
            ..Default::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), opts.sizes().len());
        // The capped fraction should be substantial (> 0.3 in practice);
        // the cell's leading number is the ensemble mean.
        let frac: f64 = tables[0].rows[0][5]
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(frac > 0.3, "degree cap removed too much: {frac}");
    }
}
