//! E11 — engine scaling sweep: naive vs grid-indexed vs parallel
//! interference resolution.
//!
//! Measures wall-clock per simulated slot for the [`Engine`] backends
//! on a fixed contention workload ("slot soup": every node transmits
//! with probability 0.1 at a power sized to the instance's
//! nearest-neighbor spacing, otherwise listens), at n up to 16384 on
//! the uniform and clustered families plus single-slot *capability*
//! rungs at n = 65536 and 131072. The naive path is `O(listeners
//! × transmitters²)` per slot and is only timed up to n = 2048 — the
//! projected cost beyond that is minutes per slot; larger sizes
//! compare the grid engine against the pooled parallel engine
//! (`Parallel(4)`, whose wall-clock gain requires the host to actually
//! have cores — the `cores` column records what this machine offered).
//! The capability rungs additionally emit an E11c table: the grid run's per-phase breakdown (build / grid /
//! resolve / merge wall laps plus the field's near-field,
//! far-field-cert and fallback decode phases and query counters).
//!
//! Every timed row also replays the run on each backend with the same
//! seed and compares the slot reports — the table's `parity` column is
//! a live bit-identical check, not an assumption.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;

use sinr_geom::{GridIndex, Instance, NodeId};
use sinr_phy::SinrParams;
use sinr_sim::{Action, Engine, EngineBackend, Protocol, SlotOutcome, SlotReport};

use crate::table::{f2, Table};
use crate::workloads::Family;
use crate::ExpOptions;

/// Thread count of the parallel rows: the acceptance configuration of
/// the scale-out experiments (E11/E12).
pub const PARALLEL_THREADS: usize = 4;

/// The benchmark protocol: a memoryless contention soup.
#[derive(Debug)]
struct Soup {
    power: f64,
    decodes: u64,
}

impl Protocol for Soup {
    type Msg = ();
    // The soup only counts decodes — it never reads the measured SINR
    // or affectance, so the engine skips both O(transmitters)
    // per-reception instruments (the dominant cost of a dense slot at
    // capability n; decode winners are certificate-decided either way).
    const MEASURES_AFFECTANCE: bool = false;
    const MEASURES_SINR: bool = false;
    fn begin_slot(&mut self, _: NodeId, _: u64, rng: &mut StdRng) -> Action<()> {
        if rng.gen_bool(0.1) {
            Action::Transmit {
                power: self.power,
                msg: (),
            }
        } else {
            Action::Listen
        }
    }
    fn end_slot(&mut self, _: NodeId, _: u64, o: SlotOutcome<()>, _: &mut StdRng) {
        if matches!(o, SlotOutcome::Received(_)) {
            self.decodes += 1;
        }
    }
}

/// Mean nearest-neighbor distance, for sizing the soup power the way
/// the real protocols size their round powers.
pub(crate) fn mean_nn_distance(inst: &Instance) -> f64 {
    let cell = (inst.delta() / (inst.len() as f64).sqrt()).max(1.0);
    let grid = GridIndex::build(inst, cell);
    let mut total = 0.0;
    let mut count = 0usize;
    for u in 0..inst.len() {
        if let Some((_, d)) = grid.nearest_neighbor(u) {
            total += d;
            count += 1;
        }
    }
    if count == 0 {
        1.0
    } else {
        total / count as f64
    }
}

struct RunStats {
    micros_per_slot: f64,
    reports: Vec<SlotReport>,
    decodes: u64,
}

fn run_engine(
    params: &SinrParams,
    inst: &Instance,
    power: f64,
    slots: u64,
    seed: u64,
    backend: EngineBackend,
) -> RunStats {
    let mut engine =
        Engine::with_backend(params, inst, |_| Soup { power, decodes: 0 }, seed, backend);
    let start = Instant::now();
    // The batch loop is what the parallel backend pools its workers
    // under, so every backend is timed through it.
    let reports = engine.run_reports(slots);
    let elapsed = start.elapsed().as_secs_f64();
    RunStats {
        micros_per_slot: elapsed * 1e6 / slots as f64,
        reports,
        decodes: engine.nodes().iter().map(|n| n.decodes).sum(),
    }
}

/// Smallest n treated as a *capability* rung: a single-slot proof that
/// the engine completes at that scale. Capability rows additionally get
/// a per-phase breakdown from the phase registry.
pub const CAPABILITY_MIN_N: usize = 65536;

/// Sizes, per-size slot budgets, and whether the naive engine is timed
/// at that size (its per-slot cost grows super-quadratically; beyond
/// 2048 it would take minutes per slot).
///
/// Full runs always end on the capability rungs (n = 65536 and 131072,
/// one slot each, naive omitted); `capability` appends the 65536 rung
/// to the quick ladder — the CI smoke configuration.
fn ladder(quick: bool, capability: bool) -> Vec<(usize, u64, bool)> {
    if quick {
        let mut rungs = vec![(128, 24, true), (256, 12, true), (512, 6, true)];
        if capability {
            rungs.push((CAPABILITY_MIN_N, 1, false));
        }
        rungs
    } else {
        vec![
            (128, 48, true),
            (256, 24, true),
            (512, 12, true),
            (1024, 6, true),
            (2048, 3, true),
            (4096, 3, false),
            (8192, 2, false),
            (16384, 2, false),
            (65536, 1, false),
            (131072, 1, false),
        ]
    }
}

/// Phases the engine records in wall-clock seconds; everything else in
/// a [`ProfileReport`](sinr_sim::profile::ProfileReport) is a raw
/// per-slot counter (queries, certificates, fallbacks, rings).
const TIME_PHASES: &[&str] = &[
    "build",
    "grid",
    "resolve",
    "merge",
    "near-field",
    "far-field-cert",
    "fallback",
];

/// The shared shape of the phase-profile tables: E11c, E12b and the
/// `connect --profile` CLI all emit the same columns so the breakdowns
/// diff against each other.
pub fn profile_table(title: &str) -> Table {
    Table::new(
        title,
        "per-phase breakdown of the profiled grid run at the capability sizes \
         (time phases in ms; counter phases are raw per-slot samples)",
        &[
            "scope", "n", "phase", "unit", "samples", "min", "mean", "max", "total",
        ],
    )
}

/// Appends one row per recorded phase of `report` to a
/// [`profile_table`], converting time phases to milliseconds.
pub fn push_profile_rows(
    t: &mut Table,
    scope: &str,
    n: usize,
    report: &sinr_sim::profile::ProfileReport,
) {
    for (name, stats) in &report.phases {
        let time = TIME_PHASES.contains(name);
        let scale = if time { 1e3 } else { 1.0 };
        t.push_row(vec![
            scope.to_string(),
            n.to_string(),
            (*name).to_string(),
            if time { "ms" } else { "count" }.to_string(),
            stats.count.to_string(),
            f2(stats.min * scale),
            f2(stats.mean() * scale),
            f2(stats.max * scale),
            f2(stats.total * scale),
        ]);
    }
}

/// Runs E11, reporting per-slot cost, speedups, crossover and parity.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let params = SinrParams::default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut t = Table::new(
        "E11: per-slot engine cost, naive vs grid vs parallel interference",
        "indexed decode certifies from the near field (≥5x at n=1024); the pooled \
         parallel engine needs actual cores to win wall-clock, parity holds regardless",
        &[
            "family",
            "n",
            "tx/slot",
            "naive µs/slot",
            "grid µs/slot",
            "par µs/slot",
            "naive/grid",
            "grid/par",
            "cores",
            "parity",
        ],
    );
    let mut crossover = Table::new(
        "E11b: crossover",
        "smallest swept n where the indexed engine wins outright",
        &["family", "crossover n", "speedup@max naive n"],
    );

    let mut phases = profile_table("E11c: capability-row phase profile (grid engine)");

    for family in [Family::UniformSquare, Family::Clustered] {
        let mut cross: Option<usize> = None;
        let mut last_naive_speedup = 0.0;
        for &(n, slots, with_naive) in &ladder(opts.quick, opts.capability) {
            let inst = family.instance(n, opts.seed.wrapping_add(n as u64));
            let power = params.min_power_for_length(1.5 * mean_nn_distance(&inst)) * 4.0;
            let seed = opts.seed.wrapping_add(1100 + n as u64);

            // Capability rungs run the grid engine under the profiler
            // (a handful of Instant reads per slot — noise next to a
            // multi-ms slot, and bit-parity is untouched either way).
            if n >= CAPABILITY_MIN_N {
                sinr_sim::profile::start();
            }
            let grid = run_engine(&params, &inst, power, slots, seed, EngineBackend::Grid);
            if n >= CAPABILITY_MIN_N {
                push_profile_rows(&mut phases, family.label(), n, &sinr_sim::profile::stop());
            }
            let par = run_engine(
                &params,
                &inst,
                power,
                slots,
                seed,
                EngineBackend::Parallel(PARALLEL_THREADS),
            );
            let naive = with_naive
                .then(|| run_engine(&params, &inst, power, slots, seed, EngineBackend::Naive));

            let parity = grid.reports == par.reports
                && grid.decodes == par.decodes
                && naive.as_ref().map_or(true, |nv| {
                    nv.reports == grid.reports && nv.decodes == grid.decodes
                });
            // The parity column is a *gate*, not an observation: the CI
            // smoke step relies on this run failing loudly, so a
            // mismatch must not end as green text in a log table.
            assert!(
                parity,
                "E11 parity MISMATCH: engine backends diverged on {} n={n} \
                 (grid decodes {}, par decodes {}, naive decodes {:?})",
                family.label(),
                grid.decodes,
                par.decodes,
                naive.as_ref().map(|nv| nv.decodes),
            );
            let naive_speedup = naive
                .as_ref()
                .map(|nv| nv.micros_per_slot / grid.micros_per_slot.max(1e-9));
            if let Some(speedup) = naive_speedup {
                // Crossover = smallest n after which the indexed engine
                // wins at every larger swept size (revoked on regression).
                if speedup > 1.0 {
                    cross.get_or_insert(n);
                } else {
                    cross = None;
                }
                last_naive_speedup = speedup;
            }
            let tx_mean = grid.reports.iter().map(|r| r.transmissions).sum::<usize>() as f64
                / slots.max(1) as f64;
            t.push_row(vec![
                family.label().to_string(),
                n.to_string(),
                f2(tx_mean),
                naive
                    .as_ref()
                    .map_or_else(|| "-".into(), |nv| f2(nv.micros_per_slot)),
                f2(grid.micros_per_slot),
                f2(par.micros_per_slot),
                naive_speedup.map_or_else(|| "-".into(), f2),
                f2(grid.micros_per_slot / par.micros_per_slot.max(1e-9)),
                cores.to_string(),
                if parity {
                    "ok".into()
                } else {
                    "MISMATCH".into()
                },
            ]);
        }
        crossover.push_row(vec![
            family.label().to_string(),
            cross.map_or_else(|| "-".into(), |n| n.to_string()),
            f2(last_naive_speedup),
        ]);
    }

    // Only a populated breakdown is emitted: the snapshot schema gate
    // (tests/golden_json.rs) rejects empty tables, and a quick run
    // without `--capability` never reaches a profiled rung.
    let mut out = vec![t, crossover];
    if !phases.rows.is_empty() {
        out.push(phases);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_tables_with_parity() {
        let opts = ExpOptions {
            quick: true,
            seed: 11,
            ..Default::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), 2 * ladder(true, false).len());
        for row in &tables[0].rows {
            assert_eq!(row[9], "ok", "backends diverged: {row:?}");
        }
    }
}
