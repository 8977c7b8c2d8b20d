//! `TreeViaCapacity` (Algorithm 1, §8): interleaving tree construction
//! and feasible-subset selection to match centralized schedule bounds.
//!
//! ```text
//! P₀ = all nodes
//! repeat until |Pᵢ| = 1:
//!     build an Init tree T on Pᵢ
//!     restrict to the degree-capped subtree T(M)        (Theorem 13)
//!     select a feasible subset T' ⊆ T(M)                (selector)
//!     Pᵢ₊₁ = top-level nodes w.r.t. T'
//! ```
//!
//! Every iteration contributes **one slot** to the final schedule: the
//! links selected in iteration `i` fire together in slot `i`. A node
//! leaves the active set exactly when its uplink is selected, so the
//! union of selections is a spanning in-tree and the slot order is a
//! valid aggregation (leaf-to-root) order — Theorem 12. With the
//! mean-power selector this yields `O(Υ·log n)` slots (Theorem 16);
//! with `Distr-Cap` plus power control, `O(log n)` slots (Theorem 21).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sinr_geom::{Instance, NodeId};
use sinr_links::{BiTree, InTree, Link, LinkSet, Schedule};
use sinr_phy::{PowerAssignment, SinrParams};

use crate::init::{run_init_on, InitConfig};
use crate::repack::RepackMode;
use crate::selector::{SelectorOutcome, SubsetSelector};
use crate::{CoreError, Result};

/// Tuning knobs for `TreeViaCapacity`.
#[derive(Clone, Debug, PartialEq)]
pub struct TvcConfig {
    /// Knobs for the per-iteration `Init` runs.
    pub init: InitConfig,
    /// The degree cap ρ defining `M` (paper: `160/p²`; practically the
    /// `Init` trees have small constant degree, so a small cap keeps a
    /// constant fraction of links while guaranteeing `O(1)`-sparsity).
    pub degree_cap: usize,
    /// Safety bound on iterations.
    pub max_iterations: u32,
    /// Which re-packer the dynamic pipelines (`repair`, `join`) run
    /// after merging a churn delta ([`RepackMode::Incremental`] by
    /// default; `Full` keeps the centralized reference reachable).
    /// `tree_via_capacity` itself never re-packs — the field rides here
    /// because the dynamic pipelines already thread a `TvcConfig`.
    pub repack: RepackMode,
}

impl Default for TvcConfig {
    fn default() -> Self {
        TvcConfig {
            init: InitConfig::default(),
            degree_cap: 8,
            max_iterations: 400,
            repack: RepackMode::default(),
        }
    }
}

/// Per-iteration trace entry (for experiments E5/E6).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TvcIteration {
    /// Active nodes at the start of the iteration.
    pub active_before: usize,
    /// Links in the fresh `Init` tree.
    pub tree_links: usize,
    /// Links surviving the degree cap (`|T(M)|`).
    pub capped_links: usize,
    /// Links selected (`|T'|`).
    pub selected: usize,
    /// Slots spent by `Init` in this iteration.
    pub init_slots: u64,
    /// Slots spent by the selector in this iteration.
    pub selection_slots: u64,
}

/// Result of `TreeViaCapacity`.
#[derive(Clone, Debug)]
pub struct TvcOutcome {
    /// The spanning converge-cast tree.
    pub tree: InTree,
    /// The bi-tree (schedule slot = selection iteration, compacted).
    pub bitree: BiTree,
    /// The aggregation schedule.
    pub schedule: Schedule,
    /// Explicit per-link powers (per selection slot).
    pub power: PowerAssignment,
    /// Iterations executed.
    pub iterations: u32,
    /// Total distributed runtime in slots (Init + selection).
    pub runtime_slots: u64,
    /// Per-iteration trace.
    pub trace: Vec<TvcIteration>,
}

impl TvcOutcome {
    /// Final schedule length in slots.
    pub fn schedule_len(&self) -> usize {
        self.schedule.num_slots()
    }
}

/// Raw output of the selection loop, shared by the standard pipeline
/// and the failure-repair pipeline ([`extend_forest`]).
#[derive(Clone, Debug)]
struct LoopResult {
    parents: Vec<Option<NodeId>>,
    slot_of: HashMap<Link, usize>,
    /// Powers for the newly selected links, both directions.
    powers: HashMap<Link, f64>,
    iterations: u32,
    runtime_slots: u64,
    trace: Vec<TvcIteration>,
}

/// The selection loop of Algorithm 1 over the nodes whose entry in
/// `parents` is `None` (seeded entries are already-connected nodes that
/// sleep throughout).
fn run_selection_loop(
    params: &SinrParams,
    instance: &Instance,
    cfg: &TvcConfig,
    selector: &mut dyn SubsetSelector,
    seed: u64,
    mut parents: Vec<Option<NodeId>>,
) -> Result<LoopResult> {
    cfg.init.validate()?;
    if cfg.degree_cap == 0 {
        return Err(CoreError::InvalidConfig {
            name: "degree_cap",
            reason: "degree cap must be at least 1",
        });
    }
    let n = instance.len();
    let mut active: Vec<bool> = parents.iter().map(Option::is_none).collect();
    let mut remaining = active.iter().filter(|&&a| a).count();
    let mut slot_of: HashMap<Link, usize> = HashMap::new();
    let mut powers: HashMap<Link, f64> = HashMap::new();
    let mut trace = Vec::new();
    let mut runtime_slots = 0u64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7645_a1b3_09c2_55ef);
    debug_assert!(n == parents.len());

    let mut iter: u32 = 0;
    while remaining > 1 {
        if iter >= cfg.max_iterations {
            return Err(CoreError::ConvergenceFailure {
                phase: "tree-via-capacity",
                detail: format!(
                    "{remaining} active nodes after {iter} iterations \
                     (selector: {})",
                    selector.name()
                ),
            });
        }
        iter += 1;
        sinr_sim::trace::emit(sinr_sim::trace::TraceEvent::Batch {
            phase: "tvc-iteration",
            index: u64::from(iter),
            size: remaining,
        });

        // Step 3: a fresh Init tree on the active set.
        let run = run_init_on(
            params,
            instance,
            &active,
            &cfg.init,
            seed.wrapping_add(u64::from(iter) * 0x9e37_79b9),
        )?;
        runtime_slots += run.slots_used;
        let t_links = run.aggregation_links();

        // Theorem 13: keep links whose both endpoints have degree ≤ ρ.
        let degrees = t_links.degrees();
        let capped: LinkSet = t_links
            .iter()
            .filter(|l| {
                degrees.get(&l.sender).copied().unwrap_or(0) <= cfg.degree_cap
                    && degrees.get(&l.receiver).copied().unwrap_or(0) <= cfg.degree_cap
            })
            .collect();

        // Step 4: select a feasible subset.
        let SelectorOutcome {
            chosen,
            powers: slot_powers,
            slots_used,
        } = selector.select(params, instance, &capped, &mut rng)?;
        runtime_slots += slots_used;

        trace.push(TvcIteration {
            active_before: remaining,
            tree_links: t_links.len(),
            capped_links: capped.len(),
            selected: chosen.len(),
            init_slots: run.slots_used,
            selection_slots: slots_used,
        });

        // Step 5: selected senders leave the active set. Selectors
        // guarantee node-disjoint feasible slots; enforce the contract.
        for l in chosen.iter() {
            if !active[l.sender] {
                return Err(CoreError::ConvergenceFailure {
                    phase: "tree-via-capacity",
                    detail: format!(
                        "selector {} returned link {l:?} whose sender is inactive",
                        selector.name()
                    ),
                });
            }
            parents[l.sender] = Some(l.receiver);
            slot_of.insert(l, (iter - 1) as usize);
            for dir in [l, l.dual()] {
                let p = *slot_powers
                    .get(&dir)
                    .expect("selector returns powers for both directions");
                powers.insert(dir, p);
            }
            active[l.sender] = false;
            remaining -= 1;
        }
    }

    Ok(LoopResult {
        parents,
        slot_of,
        powers,
        iterations: iter,
        runtime_slots,
        trace,
    })
}

/// Runs Algorithm 1 with the given selector.
///
/// # Errors
///
/// - config validation errors from `Init` or the selector;
/// - [`CoreError::ConvergenceFailure`] if the active set does not reach
///   a single node within `max_iterations`.
///
/// # Example
///
/// ```
/// use sinr_connectivity::selector::MeanSamplingSelector;
/// use sinr_connectivity::tvc::{tree_via_capacity, TvcConfig};
/// use sinr_geom::gen;
/// use sinr_phy::SinrParams;
///
/// let params = SinrParams::default();
/// let inst = gen::uniform_square(12, 1.5, 5)?;
/// let mut selector = MeanSamplingSelector::default();
/// let out = tree_via_capacity(&params, &inst, &TvcConfig::default(), &mut selector, 1)?;
/// // Far fewer slots than links: the point of interleaving.
/// assert!(out.schedule_len() <= inst.len() - 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn tree_via_capacity(
    params: &SinrParams,
    instance: &Instance,
    cfg: &TvcConfig,
    selector: &mut dyn SubsetSelector,
    seed: u64,
) -> Result<TvcOutcome> {
    let raw = run_selection_loop(
        params,
        instance,
        cfg,
        selector,
        seed,
        vec![None; instance.len()],
    )?;
    let tree = InTree::from_parents(raw.parents)?;
    let mut schedule = Schedule::new();
    for (&l, &s) in &raw.slot_of {
        schedule.assign(l, s);
    }
    schedule.compact();
    let bitree = BiTree::new(tree.clone(), schedule.clone())?;
    let power = PowerAssignment::explicit(raw.powers)?;

    Ok(TvcOutcome {
        tree,
        bitree,
        schedule,
        power,
        iterations: raw.iterations,
        runtime_slots: raw.runtime_slots,
        trace: raw.trace,
    })
}

/// Result of [`extend_forest`]: the forest completed into a spanning
/// in-tree, with powers for the added links.
#[derive(Clone, Debug)]
pub struct ForestExtension {
    /// Completed parent array (every node except the root connected).
    pub parents: Vec<Option<NodeId>>,
    /// Links added by the selection loop (child → parent).
    pub new_links: LinkSet,
    /// Powers for the added links (both directions).
    pub new_powers: HashMap<Link, f64>,
    /// Iterations executed.
    pub iterations: u32,
    /// Distributed runtime in slots.
    pub runtime_slots: u64,
}

/// Completes a forest into a spanning tree: nodes whose `seeded_parents`
/// entry is `Some` keep their uplink and sleep; the remaining nodes (the
/// forest roots) run the `TreeViaCapacity` loop until one root remains.
///
/// This is the reattachment engine of the failure-repair pipeline
/// ([`crate::repair`]) — the "dynamic situations" extension the paper's
/// conclusion calls for.
///
/// # Errors
///
/// Same conditions as [`tree_via_capacity`].
pub fn extend_forest(
    params: &SinrParams,
    instance: &Instance,
    cfg: &TvcConfig,
    selector: &mut dyn SubsetSelector,
    seed: u64,
    seeded_parents: Vec<Option<NodeId>>,
) -> Result<ForestExtension> {
    let seeded: Vec<bool> = seeded_parents.iter().map(Option::is_some).collect();
    let raw = run_selection_loop(params, instance, cfg, selector, seed, seeded_parents)?;
    let mut new_links = LinkSet::new();
    for (u, parent) in raw.parents.iter().enumerate() {
        if let Some(p) = parent {
            if !seeded[u] {
                new_links.insert(Link::new(u, *p));
            }
        }
    }
    Ok(ForestExtension {
        parents: raw.parents,
        new_links,
        new_powers: raw.powers,
        iterations: raw.iterations,
        runtime_slots: raw.runtime_slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::{DistrCapSelector, MeanSamplingSelector};
    use sinr_geom::gen;
    use sinr_phy::feasibility;

    fn params() -> SinrParams {
        SinrParams::default()
    }

    #[test]
    fn single_node_is_immediate() {
        let p = params();
        let inst = gen::line(1).unwrap();
        let mut sel = MeanSamplingSelector::default();
        let out = tree_via_capacity(&p, &inst, &TvcConfig::default(), &mut sel, 0).unwrap();
        assert_eq!(out.iterations, 0);
        assert_eq!(out.schedule_len(), 0);
        assert_eq!(out.tree.root(), 0);
    }

    #[test]
    fn mean_selector_builds_valid_bitree() {
        let p = params();
        let inst = gen::uniform_square(40, 1.5, 11).unwrap();
        let mut sel = MeanSamplingSelector::default();
        let out = tree_via_capacity(&p, &inst, &TvcConfig::default(), &mut sel, 1).unwrap();
        assert_eq!(out.tree.len(), inst.len());
        assert_eq!(out.schedule.links().len(), inst.len() - 1);
        // Every slot feasible under the returned explicit powers.
        feasibility::validate_schedule(&p, &inst, &out.schedule, &out.power)
            .expect("per-iteration slots are feasible");
        assert!(out.runtime_slots > 0);
        assert_eq!(out.trace.len() as u32, out.iterations);
    }

    #[test]
    fn distr_cap_builds_valid_bitree() {
        let p = params();
        let inst = gen::uniform_square(40, 1.5, 13).unwrap();
        let mut sel = DistrCapSelector::default();
        let out = tree_via_capacity(&p, &inst, &TvcConfig::default(), &mut sel, 2).unwrap();
        assert_eq!(out.tree.len(), inst.len());
        feasibility::validate_schedule(&p, &inst, &out.schedule, &out.power)
            .expect("per-iteration slots are feasible");
        // The healthy path never drops links in power control.
        assert_eq!(sel.total_dropped, 0, "FM fallback should not fire");
    }

    #[test]
    fn schedule_is_shorter_than_tree_size() {
        // The whole point: many links share each slot.
        let p = params();
        let inst = gen::uniform_square(64, 1.5, 17).unwrap();
        let mut sel = MeanSamplingSelector::default();
        let out = tree_via_capacity(&p, &inst, &TvcConfig::default(), &mut sel, 3).unwrap();
        assert!(
            out.schedule_len() < inst.len() - 1,
            "schedule {} should beat one-slot-per-link {}",
            out.schedule_len(),
            inst.len() - 1
        );
    }

    #[test]
    fn rejects_zero_degree_cap() {
        let p = params();
        let inst = gen::line(4).unwrap();
        let cfg = TvcConfig {
            degree_cap: 0,
            ..Default::default()
        };
        let mut sel = MeanSamplingSelector::default();
        assert!(matches!(
            tree_via_capacity(&p, &inst, &cfg, &mut sel, 0),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn iteration_budget_enforced() {
        let p = params();
        let inst = gen::uniform_square(30, 1.5, 5).unwrap();
        let cfg = TvcConfig {
            max_iterations: 1,
            ..Default::default()
        };
        let mut sel = MeanSamplingSelector::default();
        // One iteration cannot connect 30 nodes.
        assert!(matches!(
            tree_via_capacity(&p, &inst, &cfg, &mut sel, 0),
            Err(CoreError::ConvergenceFailure { .. })
        ));
    }

    #[test]
    fn deterministic_in_seed() {
        let p = params();
        let inst = gen::uniform_square(25, 1.5, 9).unwrap();
        let run = |seed| {
            let mut sel = MeanSamplingSelector::default();
            tree_via_capacity(&p, &inst, &TvcConfig::default(), &mut sel, seed).unwrap()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.iterations, b.iterations);
    }
}
