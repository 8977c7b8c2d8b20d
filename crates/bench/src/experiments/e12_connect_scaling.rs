//! E12 — end-to-end `connect` scaling with per-phase timings.
//!
//! Where E11 isolates the engine's per-slot cost, E12 times the whole
//! pipeline a user actually runs, phase by phase, on uniform instances
//! up to n = 8192 plus end-to-end capability rungs at n = 65536 and
//! 131072 (with per-phase engine breakdowns, table E12b):
//!
//! 1. **build** — instance construction (`extreme_distances`, grid/hull
//!    accelerated);
//! 2. **mst** — the Euclidean MST (grid-pruned lazy Prim), the backbone
//!    every centralized baseline from \[11\] schedules;
//! 3. **pack** — the centralized MST bi-tree first-fit packing
//!    (certified `SlotAuditor`);
//! 4. **connect** — the distributed `Init` pipeline end to end
//!    (schedule + simulation), once on the serial grid engine and once
//!    on the pooled parallel engine.
//!
//! The point of the table is the *shape*: no `O(n²)` phase may
//! dominate — build + mst together are expected to stay within a few
//! percent of total wall-clock (the `build+mst` column), and the
//! parallel engine must fingerprint byte-identically to the serial one
//! on every row (the `parity` column is asserted, exactly like E11's).
//! Wall-clock parallel gains require the host to have cores; the
//! `cores` column records what this machine offered.

use std::time::Instant;

use sinr_baselines::mst::{centroid_root, mst_bitree};
use sinr_connectivity::{connect_with, ConnectivityResult, Strategy};
use sinr_phy::{PowerAssignment, SinrParams};

use super::e11_scaling::{profile_table, push_profile_rows};
use super::e11_scaling::{CAPABILITY_MIN_N, PARALLEL_THREADS};
use crate::table::{f2, Table};
use crate::workloads::Family;
use crate::{EngineBackend, ExpOptions};

/// Sizes swept (uniform family). Full runs end on the capability
/// rungs (n = 65536 and 131072 — the whole distributed pipeline, not
/// just one slot); `capability` appends the 65536 rung to the quick
/// ladder, mirroring E11's CI smoke configuration.
fn ladder(quick: bool, capability: bool) -> Vec<usize> {
    if quick {
        let mut rungs = vec![256, 512];
        if capability {
            rungs.push(CAPABILITY_MIN_N);
        }
        rungs
    } else {
        vec![2048, 4096, 8192, 65536, 131072]
    }
}

/// FNV-1a over the canonical rendering of everything a connect run
/// produces — tree links, both schedules in slot order, power bits,
/// slot counts. Any decode that diverged between engines would change
/// a schedule or a power and therefore this value.
fn fingerprint(r: &ConnectivityResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&(r.schedule_len as u64).to_le_bytes());
    eat(&r.runtime_slots.to_le_bytes());
    for l in r.tree_links.iter() {
        eat(&(l.sender as u64).to_le_bytes());
        eat(&(l.receiver as u64).to_le_bytes());
    }
    for (l, s) in r.aggregation_schedule.iter() {
        eat(&(l.sender as u64).to_le_bytes());
        eat(&(l.receiver as u64).to_le_bytes());
        eat(&(s as u64).to_le_bytes());
    }
    for (l, s) in r.dissemination_schedule.iter() {
        eat(&(l.sender as u64).to_le_bytes());
        eat(&(l.receiver as u64).to_le_bytes());
        eat(&(s as u64).to_le_bytes());
    }
    if let Some(powers) = r.power.as_explicit() {
        let mut entries: Vec<_> = powers.iter().collect();
        entries.sort_by_key(|(l, _)| **l);
        for (l, p) in entries {
            eat(&(l.sender as u64).to_le_bytes());
            eat(&(l.receiver as u64).to_le_bytes());
            eat(&p.to_bits().to_le_bytes());
        }
    }
    h
}

/// Runs E12: per-phase wall-clock of the full pipeline, serial vs
/// parallel engine, with a fingerprint parity gate per size.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let params = SinrParams::default();
    let family = Family::UniformSquare;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut t = Table::new(
        "E12: end-to-end connect scaling, per-phase wall-clock (uniform)",
        "no O(n²) phase dominates: build+mst stay a sliver of total; engines \
         fingerprint identically (parallel wall-clock needs real cores)",
        &[
            "n",
            "engine",
            "threads",
            "build ms",
            "mst ms",
            "pack ms",
            "connect ms",
            "total ms",
            "build+mst",
            "slots",
            "parity",
        ],
    );

    let mut phases =
        profile_table("E12b: capability-row phase profile (grid engine, whole connect)");

    for &n in &ladder(opts.quick, opts.capability) {
        let seed = opts.seed.wrapping_add(1200 + n as u64);

        let t0 = Instant::now();
        let inst = family.instance(n, seed);
        let build_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let mst_edges = sinr_geom::mst::euclidean_mst(&inst);
        let mst_s = t1.elapsed().as_secs_f64();
        assert_eq!(mst_edges.len(), inst.len() - 1);

        let t2 = Instant::now();
        let power = PowerAssignment::mean_with_margin(&params, inst.delta());
        let baseline = mst_bitree(&params, &inst, centroid_root(&inst), &power);
        let pack_s = t2.elapsed().as_secs_f64();
        assert!(baseline.unschedulable.is_empty());

        let engines = [
            ("grid", EngineBackend::Grid),
            ("parallel", EngineBackend::Parallel(PARALLEL_THREADS)),
        ];
        let mut results: Vec<(&str, EngineBackend, f64, ConnectivityResult)> = Vec::new();
        for (label, backend) in engines {
            // The capability rungs profile the serial grid engine's
            // connect end to end (the profiler is thread-local, so the
            // parallel row would under-report its worker phases; the
            // grid row is the canonical breakdown).
            let profiled = n >= CAPABILITY_MIN_N && matches!(backend, EngineBackend::Grid);
            if profiled {
                sinr_sim::profile::start();
            }
            let t3 = Instant::now();
            let result = connect_with(&params, &inst, Strategy::InitOnly, seed, backend)
                .unwrap_or_else(|e| panic!("E12 connect n={n} {label}: {e}"));
            results.push((label, backend, t3.elapsed().as_secs_f64(), result));
            if profiled {
                push_profile_rows(&mut phases, "uniform", n, &sinr_sim::profile::stop());
            }
        }
        let fp0 = fingerprint(&results[0].3);
        let parity = results.iter().all(|(_, _, _, r)| fingerprint(r) == fp0);
        // Asserted for the same reason E11 asserts: the CI smoke run
        // must fail loudly if the engines ever diverge.
        assert!(
            parity,
            "E12 parity MISMATCH: engines diverged at n={n} \
             (fingerprints {:?})",
            results
                .iter()
                .map(|(l, _, _, r)| (*l, fingerprint(r)))
                .collect::<Vec<_>>()
        );

        for (label, backend, connect_s, result) in &results {
            let total = build_s + mst_s + pack_s + connect_s;
            t.push_row(vec![
                n.to_string(),
                label.to_string(),
                backend.worker_threads().to_string(),
                f2(build_s * 1e3),
                f2(mst_s * 1e3),
                f2(pack_s * 1e3),
                f2(connect_s * 1e3),
                f2(total * 1e3),
                format!("{:.1}%", 100.0 * (build_s + mst_s) / total),
                result.runtime_slots.to_string(),
                if parity {
                    "ok".into()
                } else {
                    "MISMATCH".into()
                },
            ]);
        }
    }

    // Record the host parallelism next to the data so saved snapshots
    // are interpretable.
    t.expectation = format!("{} (this host: {} core(s))", t.expectation, cores);
    // As in E11: empty tables never ship (the snapshot schema gate
    // rejects them), and only capability rungs record phases.
    let mut out = vec![t];
    if !phases.rows.is_empty() {
        out.push(phases);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_parity_clean() {
        let opts = ExpOptions {
            quick: true,
            seed: 5,
            ..Default::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 1);
        // Two engine rows per swept size.
        assert_eq!(tables[0].rows.len(), 2 * ladder(true, false).len());
        for row in &tables[0].rows {
            assert_eq!(row[10], "ok", "engines diverged: {row:?}");
        }
    }
}
