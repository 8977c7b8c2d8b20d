//! High-level one-call API over the paper's algorithm suite.

use sinr_geom::Instance;
use sinr_links::{BiTree, LinkSet, Schedule};
use sinr_phy::{PowerAssignment, SinrParams};
use sinr_sim::EngineBackend;

use crate::contention::ContentionConfig;
use crate::init::{run_init, InitConfig};
use crate::reschedule::reschedule_mean;
use crate::selector::{DistrCapSelector, MeanSamplingSelector};
use crate::tvc::{tree_via_capacity, TvcConfig};
use crate::Result;

/// Which of the paper's algorithms to run end to end.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// §6 `Init` alone: bi-tree with the timestamp schedule,
    /// `O(log Δ · log n)` slots (Theorem 2).
    InitOnly,
    /// §7: `Init`, then reschedule both directions with mean power via
    /// distributed contention resolution (Theorem 3). No ordering
    /// guarantee, so no bi-tree is returned.
    MeanReschedule,
    /// §8.1: `TreeViaCapacity` with mean-power sampling,
    /// `O(Υ·log n)` slots (Theorem 16).
    TvcMean,
    /// §8.2: `TreeViaCapacity` with `Distr-Cap` and power control,
    /// `O(log n)` slots (Theorem 21).
    TvcArbitrary,
}

impl Strategy {
    /// All strategies, in presentation order.
    pub const ALL: [Strategy; 4] = [
        Strategy::InitOnly,
        Strategy::MeanReschedule,
        Strategy::TvcMean,
        Strategy::TvcArbitrary,
    ];

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::InitOnly => "init-only",
            Strategy::MeanReschedule => "mean-reschedule",
            Strategy::TvcMean => "tvc-mean",
            Strategy::TvcArbitrary => "tvc-arbitrary",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The outcome of [`connect`]: a strongly-connected structure with its
/// schedule, power assignment and cost accounting.
#[derive(Clone, Debug)]
pub struct ConnectivityResult {
    /// Which strategy produced this result.
    pub strategy: Strategy,
    /// The aggregation (child → parent) links of the spanning structure.
    pub tree_links: LinkSet,
    /// Schedule for the aggregation direction.
    pub aggregation_schedule: Schedule,
    /// Schedule for the dissemination direction.
    pub dissemination_schedule: Schedule,
    /// The bi-tree, when the strategy guarantees the ordering property
    /// (`InitOnly`, `TvcMean`, `TvcArbitrary`).
    pub bitree: Option<BiTree>,
    /// The power assignment under which both schedules are feasible.
    pub power: PowerAssignment,
    /// Aggregation-schedule length in slots (the paper's efficiency
    /// metric).
    pub schedule_len: usize,
    /// Total distributed running time in slots (the paper's
    /// convergence-time metric).
    pub runtime_slots: u64,
}

/// Runs the selected strategy end to end on `instance`, under the
/// channel model `params` carries.
///
/// This is the quickstart entry point; each pipeline stage is also
/// available directly (with its config) in the corresponding module.
///
/// # Errors
///
/// Propagates convergence and validation failures from the stages; with
/// default configs and the bundled generators these do not occur.
///
/// # Example
///
/// ```
/// use sinr_connectivity::{connect, ChannelModel, Strategy};
/// use sinr_geom::gen;
/// use sinr_phy::SinrParams;
///
/// let params = SinrParams::default();
/// let inst = gen::uniform_square(40, 1.5, 3)?;
/// let fast = connect(&params, &inst, Strategy::TvcArbitrary, 1)?;
/// let base = connect(&params, &inst, Strategy::InitOnly, 1)?;
/// assert!(fast.schedule_len <= base.schedule_len);
/// // The same pipeline under per-link log-normal fades.
/// let faded = params.with_channel(ChannelModel::shadowed(9, 6.0)?);
/// assert!(connect(&faded, &inst, Strategy::TvcArbitrary, 1)?.schedule_len > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn connect(
    params: &SinrParams,
    instance: &Instance,
    strategy: Strategy,
    seed: u64,
) -> Result<ConnectivityResult> {
    connect_with(params, instance, strategy, seed, EngineBackend::default())
}

/// [`connect`] with an explicit simulation-engine backend.
///
/// The backends are bit-identical in every observable output (the
/// determinism parity gate in `tests/determinism.rs` enforces it);
/// `Naive` exists so regressions and benchmarks can reproduce the
/// all-pairs reference from the command line (`connect --engine
/// naive`).
pub fn connect_with(
    params: &SinrParams,
    instance: &Instance,
    strategy: Strategy,
    seed: u64,
    backend: EngineBackend,
) -> Result<ConnectivityResult> {
    let init_cfg = InitConfig {
        backend,
        ..Default::default()
    };
    match strategy {
        Strategy::InitOnly => {
            let out = run_init(params, instance, &init_cfg, seed)?;
            let dissemination = out.bitree.dissemination_schedule();
            let schedule_len = out.schedule.num_slots();
            Ok(ConnectivityResult {
                strategy,
                tree_links: out.tree.aggregation_links(),
                aggregation_schedule: out.schedule.clone(),
                dissemination_schedule: dissemination,
                bitree: Some(out.bitree),
                power: out.run.power_assignment(),
                schedule_len,
                runtime_slots: out.run.slots_used,
            })
        }
        Strategy::MeanReschedule => {
            let init = run_init(params, instance, &init_cfg, seed)?;
            let links = init.tree.aggregation_links();
            let re = reschedule_mean(
                params,
                instance,
                &links,
                &ContentionConfig {
                    backend,
                    ..Default::default()
                },
                seed.wrapping_add(0x51ed),
            )?;
            Ok(ConnectivityResult {
                strategy,
                tree_links: links,
                schedule_len: re.aggregation.num_slots(),
                aggregation_schedule: re.aggregation,
                dissemination_schedule: re.dissemination,
                bitree: None,
                power: re.power,
                runtime_slots: init.run.slots_used + re.slots_used,
            })
        }
        Strategy::TvcMean => {
            let mut sel = MeanSamplingSelector::default();
            let cfg = TvcConfig {
                init: init_cfg,
                ..Default::default()
            };
            let out = tree_via_capacity(params, instance, &cfg, &mut sel, seed)?;
            Ok(ConnectivityResult {
                strategy,
                tree_links: out.tree.aggregation_links(),
                aggregation_schedule: out.schedule.clone(),
                dissemination_schedule: out.bitree.dissemination_schedule(),
                schedule_len: out.schedule.num_slots(),
                bitree: Some(out.bitree),
                power: out.power,
                runtime_slots: out.runtime_slots,
            })
        }
        Strategy::TvcArbitrary => {
            let mut sel = DistrCapSelector::default();
            let cfg = TvcConfig {
                init: init_cfg,
                ..Default::default()
            };
            let out = tree_via_capacity(params, instance, &cfg, &mut sel, seed)?;
            Ok(ConnectivityResult {
                strategy,
                tree_links: out.tree.aggregation_links(),
                aggregation_schedule: out.schedule.clone(),
                dissemination_schedule: out.bitree.dissemination_schedule(),
                schedule_len: out.schedule.num_slots(),
                bitree: Some(out.bitree),
                power: out.power,
                runtime_slots: out.runtime_slots,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geom::gen;
    use sinr_phy::feasibility;

    #[test]
    fn all_strategies_produce_valid_schedules() {
        let params = SinrParams::default();
        let inst = gen::uniform_square(32, 1.5, 19).unwrap();
        for strategy in Strategy::ALL {
            let r =
                connect(&params, &inst, strategy, 5).unwrap_or_else(|e| panic!("{strategy}: {e}"));
            assert_eq!(r.tree_links.len(), inst.len() - 1, "{strategy}");
            assert_eq!(r.schedule_len, r.aggregation_schedule.num_slots());
            feasibility::validate_schedule(&params, &inst, &r.aggregation_schedule, &r.power)
                .unwrap_or_else(|e| panic!("{strategy} aggregation: {e}"));
            feasibility::validate_schedule(&params, &inst, &r.dissemination_schedule, &r.power)
                .unwrap_or_else(|e| panic!("{strategy} dissemination: {e}"));
            assert!(r.runtime_slots > 0, "{strategy}");
        }
    }

    #[test]
    fn strategy_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            Strategy::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), Strategy::ALL.len());
        assert_eq!(Strategy::TvcMean.to_string(), "tvc-mean");
    }

    #[test]
    fn bitree_presence_matches_strategy() {
        let params = SinrParams::default();
        let inst = gen::uniform_square(24, 1.5, 23).unwrap();
        assert!(connect(&params, &inst, Strategy::InitOnly, 1)
            .unwrap()
            .bitree
            .is_some());
        assert!(connect(&params, &inst, Strategy::MeanReschedule, 1)
            .unwrap()
            .bitree
            .is_none());
        assert!(connect(&params, &inst, Strategy::TvcMean, 1)
            .unwrap()
            .bitree
            .is_some());
    }
}
