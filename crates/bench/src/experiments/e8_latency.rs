//! E8 — Definition 1 / §4: a bi-tree completes a converge-cast and a
//! broadcast in one schedule pass each, and any pairwise message within
//! two passes — all `O(log n)` slots for the Theorem-21 trees. The
//! passes are *replayed against the SINR channel* with the actual
//! powers, not just read off the data structure.
//!
//! Each `n` row aggregates `--seeds K` independent trees; all
//! `(row, k)` trials fan out through one [`crate::ensemble`] dispatch.
//! Delivery flags are reported as the ensemble fraction (must be 1.00
//! — every tree delivers), latencies as `mean ±95% CI`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sinr_connectivity::latency::audit_bitree;
use sinr_connectivity::selector::DistrCapSelector;
use sinr_connectivity::tvc::{tree_via_capacity, TvcConfig};

use crate::ensemble::{stream_seed, trial_streams, Ensemble};
use crate::stats::Stats;
use crate::table::{f2, Table};
use crate::workloads::Family;
use crate::ExpOptions;

/// Runs E8.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let params = opts.params();
    let seeds = opts.ensemble_seeds();
    let driver = Ensemble::from_opts(opts);

    let mut t = Table::new(
        "E8: bi-tree latency (replayed against the SINR channel)",
        "convergecast = broadcast = schedule length; pairwise ≤ 2× schedule; all O(log n) \
         (delivery columns are ensemble fractions; latencies mean ±95% CI)",
        &[
            "n",
            "log n",
            "seeds",
            "schedule slots",
            "convergecast ok",
            "broadcast ok",
            "max pairwise (sampled)",
            "2×schedule bound",
        ],
    );

    let sizes = opts.sizes();
    let jobs: Vec<(u64, u64)> = (0..sizes.len() as u64)
        .flat_map(|row| (0..seeds).map(move |k| (row, k)))
        .collect();
    let results = driver.map(jobs, |(row, k)| {
        let (inst_seed, algo_seed) = trial_streams(opts.seed, row, k);
        let n = sizes[row as usize];
        let inst = Family::UniformSquare.instance(n, inst_seed);
        let mut sel = DistrCapSelector::default();
        let out = tree_via_capacity(
            &params,
            &inst,
            &TvcConfig {
                init: opts.init_config(),
                ..Default::default()
            },
            &mut sel,
            algo_seed,
        )
        .expect("tvc converges");
        let (up, down) =
            audit_bitree(&params, &inst, &out.bitree, &out.power).expect("audit passes");

        // Sample random pairs for the pairwise bound, on a stream
        // split from the trial's algorithm stream.
        let mut rng = StdRng::seed_from_u64(stream_seed(algo_seed, 1));
        let mut worst = 0usize;
        for _ in 0..32 {
            let u = rng.gen_range(0..inst.len());
            let v = rng.gen_range(0..inst.len());
            worst = worst.max(out.bitree.pairwise_latency(u, v));
        }
        (
            out.schedule_len() as f64,
            (up.all_delivered && up.root_aggregate == inst.len() - 1) as u8 as f64,
            down.all_reached as u8 as f64,
            worst as f64,
            out.bitree.pairwise_latency_bound() as f64,
        )
    });

    for (&n, trials) in sizes.iter().zip(results.chunks(seeds as usize)) {
        let sched = Stats::of(&trials.iter().map(|r| r.0).collect::<Vec<_>>());
        let up_ok = Stats::of(&trials.iter().map(|r| r.1).collect::<Vec<_>>());
        let down_ok = Stats::of(&trials.iter().map(|r| r.2).collect::<Vec<_>>());
        let pairwise = Stats::of(&trials.iter().map(|r| r.3).collect::<Vec<_>>());
        let bound = Stats::of(&trials.iter().map(|r| r.4).collect::<Vec<_>>());
        t.push_row(vec![
            n.to_string(),
            f2((n as f64).log2()),
            seeds.to_string(),
            sched.cell(),
            f2(up_ok.mean),
            f2(down_ok.mean),
            pairwise.cell(),
            bound.cell(),
        ]);
    }

    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses the mean out of a fixed-width `mean ±ci` ensemble cell.
    fn cell_mean(cell: &str) -> f64 {
        cell.split(" ±").next().unwrap().trim().parse().unwrap()
    }

    #[test]
    fn quick_run_produces_table_with_perfect_delivery() {
        let opts = ExpOptions {
            quick: true,
            seed: 8,
            ..Default::default()
        };
        let tables = run(&opts);
        for row in &tables[0].rows {
            assert_eq!(row[4], "1.00", "convergecast must always deliver");
            assert_eq!(row[5], "1.00", "broadcast must always deliver");
            let pairwise = cell_mean(&row[6]);
            let bound = cell_mean(&row[7]);
            assert!(pairwise <= bound);
        }
    }
}
