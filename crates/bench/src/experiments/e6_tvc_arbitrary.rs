//! E6 — Theorem 21: `TreeViaCapacity` with `Distr-Cap` and power
//! control schedules a bi-tree in `O(log n)` slots. Also reports the
//! measured power-control cost `η` (slots spent in Foschini–Miljanic
//! feedback rounds) and confirms the drop-fallback never fires.
//!
//! Rows aggregate a `--seeds K` ensemble through the
//! [`crate::ensemble`] driver (one dispatch for the whole ladder) and
//! report `mean ±95% CI`.

use sinr_connectivity::selector::DistrCapSelector;
use sinr_connectivity::tvc::{tree_via_capacity, TvcConfig};

use crate::ensemble::Ensemble;
use crate::stats::Stats;
use crate::table::Table;
use crate::workloads::Family;
use crate::ExpOptions;

/// Runs E6.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let params = opts.params();
    let seeds = opts.ensemble_seeds();
    let driver = Ensemble::from_opts(opts);

    let mut t = Table::new(
        "E6: TreeViaCapacity with arbitrary power (Thm 21)",
        "schedule = O(log n) slots: normalized column ~flat; dropped links = 0 \
         (mean ±95% CI)",
        &[
            "family",
            "n",
            "seeds",
            "schedule slots",
            "slots/log n",
            "iterations",
            "selection slots (incl η)",
            "dropped",
        ],
    );

    let specs: Vec<(Family, usize)> = [Family::UniformSquare, Family::Clustered]
        .into_iter()
        .flat_map(|family| opts.sizes().iter().map(move |&n| (family, n)))
        .collect();
    let results = driver.map_rows(
        opts.seed,
        specs.len(),
        seeds,
        |row, inst_seed, algo_seed| {
            let (family, n) = specs[row];
            let inst = family.instance(n, inst_seed);
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
            let log_n = (inst.len() as f64).log2();
            let selection: u64 = out.trace.iter().map(|it| it.selection_slots).sum();
            (
                out.schedule_len() as f64,
                out.schedule_len() as f64 / log_n,
                out.iterations as f64,
                selection as f64,
                sel.total_dropped as f64,
            )
        },
    );

    for ((family, n), trials) in specs.iter().zip(&results) {
        let col = |f: fn(&(f64, f64, f64, f64, f64)) -> f64| {
            Stats::of(&trials.iter().map(f).collect::<Vec<_>>()).cell()
        };
        t.push_row(vec![
            family.label().into(),
            n.to_string(),
            seeds.to_string(),
            col(|r| r.0),
            col(|r| r.1),
            col(|r| r.2),
            col(|r| r.3),
            col(|r| r.4),
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
            seed: 6,
            ..Default::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 1);
        for row in &tables[0].rows {
            let dropped: f64 = row[7].split_whitespace().next().unwrap().parse().unwrap();
            assert_eq!(dropped, 0.0, "power-control fallback fired");
        }
    }
}
