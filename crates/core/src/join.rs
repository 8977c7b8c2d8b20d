//! Late node arrivals ("asynchronous node wakeup") — the second
//! dynamic-situations extension named by the paper's conclusion (§9).
//!
//! A batch of new nodes appears in an already-connected network. The
//! established nodes keep their uplinks and sleep; the newcomers (plus
//! the old root, which is still the only node without an uplink) run
//! the `TreeViaCapacity` selection loop until one root remains, and the
//! merged tree is re-packed by [`crate::repack`]: every existing slot
//! grouping stays in place and only the attachment links (plus their
//! ancestor closure) re-run the bidirectional packing probes —
//! [`RepackMode::Incremental`](crate::repack::RepackMode) via
//! [`TvcConfig::repack`], with `Full` keeping the centralized
//! whole-tree reference. Same machinery as [`crate::repair`], seeded
//! differently.
//!
//! The paper's model normalizes the minimum pairwise distance to 1;
//! arrivals that land closer than 1 to an existing node violate the
//! model, so [`join_nodes`] rejects them.

use std::collections::HashMap;

use sinr_geom::{Instance, NodeId, Point};
use sinr_links::{BiTree, InTree, Link, Schedule, ScheduleDelta};
use sinr_phy::{PowerAssignment, SinrParams};

use crate::repack::RepackStats;
use crate::repair::{complete_and_pack, PriorStructure};
use crate::selector::SubsetSelector;
use crate::tvc::TvcConfig;
use crate::{CoreError, Result};

/// The grown structure after a join batch.
#[derive(Clone, Debug)]
pub struct JoinOutcome {
    /// The combined instance: old ids `0..n_old`, new ids
    /// `n_old..n_old+k` in the order of `new_points`.
    pub instance: Instance,
    /// The grown converge-cast tree.
    pub tree: InTree,
    /// The grown bi-tree with an ordered feasible schedule.
    pub bitree: BiTree,
    /// The aggregation schedule.
    pub schedule: Schedule,
    /// Powers for both directions of every link.
    pub power: PowerAssignment,
    /// Number of nodes that joined.
    pub attached: usize,
    /// Distributed runtime of the attachment phase, in slots.
    pub runtime_slots: u64,
    /// What the re-packer touched (mode, re-packed fraction, untouched
    /// slots, wall-clock).
    pub repack: RepackStats,
}

/// Attaches `new_points` to an existing structure.
///
/// `prior` describes the pre-join structure over `original` (e.g. from
/// a `TvcOutcome`); the re-packer is selected by `cfg.repack`.
///
/// # Errors
///
/// - [`CoreError::InvalidConfig`] if a new point coincides with or is
///   closer than distance 1 to any existing/new point (model
///   normalization), or if `new_points` is empty;
/// - attachment errors from the selection loop.
pub fn join_nodes(
    params: &SinrParams,
    original: &Instance,
    prior: &PriorStructure<'_>,
    new_points: &[Point],
    cfg: &TvcConfig,
    selector: &mut dyn SubsetSelector,
    seed: u64,
) -> Result<JoinOutcome> {
    let n_old = original.len();
    if prior.parents.len() != n_old {
        return Err(CoreError::InvalidConfig {
            name: "prior.parents",
            reason: "parent array length must equal instance size",
        });
    }
    if new_points.is_empty() {
        return Err(CoreError::InvalidConfig {
            name: "new_points",
            reason: "join batch must contain at least one node",
        });
    }

    let mut points: Vec<Point> = original.points().to_vec();
    points.extend_from_slice(new_points);
    let instance = Instance::new(points).map_err(|_| CoreError::InvalidConfig {
        name: "new_points",
        reason: "joined points must be distinct from existing nodes",
    })?;
    if instance.min_distance() < 1.0 - 1e-9 {
        return Err(CoreError::InvalidConfig {
            name: "new_points",
            reason: "joined points violate the unit minimum-distance normalization",
        });
    }

    // Seed: old nodes keep their uplinks; newcomers (and the old root)
    // are the active set.
    let mut seeded: Vec<Option<NodeId>> = vec![None; instance.len()];
    let mut kept_powers: HashMap<Link, f64> = HashMap::new();
    for (u, parent) in prior.parents.iter().enumerate() {
        if let Some(p) = parent {
            seeded[u] = Some(*p);
            let link = Link::new(u, *p);
            for dir in [link, link.dual()] {
                let pw = prior.powers.get(&dir).copied().ok_or(CoreError::Phy(
                    sinr_phy::PhyError::MissingPower { link: dir },
                ))?;
                kept_powers.insert(dir, pw);
            }
        }
    }

    // Ids are stable under a join, so the schedule delta is the
    // identity: every existing grouping survives; attachment links are
    // simply absent (fresh).
    let delta = ScheduleDelta::unchanged(prior.schedule);

    sinr_sim::trace::emit(sinr_sim::trace::TraceEvent::Batch {
        phase: "join",
        index: 0,
        size: new_points.len(),
    });
    let done = complete_and_pack(
        params,
        &instance,
        seeded,
        kept_powers,
        delta,
        cfg,
        selector,
        seed,
    )?;
    Ok(JoinOutcome {
        instance,
        tree: done.tree,
        bitree: done.bitree,
        schedule: done.schedule,
        power: done.power,
        attached: new_points.len(),
        runtime_slots: done.runtime_slots,
        repack: done.repack,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::audit_bitree;
    use crate::repack::RepackMode;
    use crate::selector::MeanSamplingSelector;
    use crate::tvc::tree_via_capacity;
    use sinr_geom::gen;
    use sinr_phy::feasibility;

    fn build(n: usize, seed: u64) -> (Instance, crate::tvc::TvcOutcome) {
        let params = SinrParams::default();
        let inst = gen::uniform_square(n, 2.0, seed).unwrap();
        let mut sel = MeanSamplingSelector::default();
        let out = tree_via_capacity(&params, &inst, &TvcConfig::default(), &mut sel, seed).unwrap();
        (inst, out)
    }

    fn pieces(out: &crate::tvc::TvcOutcome) -> (Vec<Option<NodeId>>, HashMap<Link, f64>) {
        (
            (0..out.tree.len()).map(|u| out.tree.parent(u)).collect(),
            out.power.as_explicit().unwrap().clone(),
        )
    }

    /// New points placed on the far side of the bounding box, at safe
    /// distance from everything.
    fn far_points(inst: &Instance, k: usize) -> Vec<Point> {
        let bb = inst.bounding_box();
        (0..k)
            .map(|i| Point::new(bb.max().x + 3.0 + 2.0 * i as f64, bb.min().y))
            .collect()
    }

    #[test]
    fn join_attaches_and_stays_valid() {
        let params = SinrParams::default();
        let (inst, out) = build(30, 11);
        let (parents, powers) = pieces(&out);
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &out.schedule,
        };
        let newcomers = far_points(&inst, 4);
        let mut sel = MeanSamplingSelector::default();
        let joined = join_nodes(
            &params,
            &inst,
            &prior,
            &newcomers,
            &TvcConfig::default(),
            &mut sel,
            21,
        )
        .unwrap();
        assert_eq!(joined.instance.len(), 34);
        assert_eq!(joined.attached, 4);
        assert_eq!(joined.tree.len(), 34);
        assert_eq!(joined.repack.mode, RepackMode::Incremental);
        assert_eq!(joined.repack.fresh_links, 4);
        assert!(joined.repack.repacked_links >= 4);
        assert!(joined.repack.repacked_fraction() < 1.0);
        feasibility::validate_schedule(&params, &joined.instance, &joined.schedule, &joined.power)
            .unwrap();
        let (up, down) =
            audit_bitree(&params, &joined.instance, &joined.bitree, &joined.power).unwrap();
        assert!(up.all_delivered && down.all_reached);
    }

    #[test]
    fn existing_uplinks_are_preserved() {
        let params = SinrParams::default();
        let (inst, out) = build(24, 5);
        let (parents, powers) = pieces(&out);
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &out.schedule,
        };
        let newcomers = far_points(&inst, 2);
        let mut sel = MeanSamplingSelector::default();
        let joined = join_nodes(
            &params,
            &inst,
            &prior,
            &newcomers,
            &TvcConfig::default(),
            &mut sel,
            9,
        )
        .unwrap();
        for (u, old_parent) in parents.iter().enumerate() {
            if let Some(p) = old_parent {
                assert_eq!(joined.tree.parent(u), Some(*p), "node {u} changed parent");
            }
        }
    }

    #[test]
    fn join_rejects_too_close_points() {
        let params = SinrParams::default();
        let (inst, out) = build(10, 3);
        let (parents, powers) = pieces(&out);
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &out.schedule,
        };
        let mut sel = MeanSamplingSelector::default();
        // A point 0.25 away from node 0.
        let p0 = inst.position(0);
        let bad = vec![Point::new(p0.x + 0.25, p0.y)];
        let e = join_nodes(
            &params,
            &inst,
            &prior,
            &bad,
            &TvcConfig::default(),
            &mut sel,
            0,
        );
        assert!(matches!(e, Err(CoreError::InvalidConfig { .. })));
        // And an exact duplicate.
        let dup = vec![p0];
        let e = join_nodes(
            &params,
            &inst,
            &prior,
            &dup,
            &TvcConfig::default(),
            &mut sel,
            0,
        );
        assert!(matches!(e, Err(CoreError::InvalidConfig { .. })));
    }

    #[test]
    fn join_rejects_empty_batch() {
        let params = SinrParams::default();
        let (inst, out) = build(8, 2);
        let (parents, powers) = pieces(&out);
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &out.schedule,
        };
        let mut sel = MeanSamplingSelector::default();
        let e = join_nodes(
            &params,
            &inst,
            &prior,
            &[],
            &TvcConfig::default(),
            &mut sel,
            0,
        );
        assert!(matches!(e, Err(CoreError::InvalidConfig { .. })));
    }

    #[test]
    fn repeated_joins_grow_the_network() {
        let params = SinrParams::default();
        let (inst, out) = build(16, 7);
        let (parents, powers) = pieces(&out);
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &out.schedule,
        };
        let mut sel = MeanSamplingSelector::default();
        let j1 = join_nodes(
            &params,
            &inst,
            &prior,
            &far_points(&inst, 3),
            &TvcConfig::default(),
            &mut sel,
            1,
        )
        .unwrap();
        let parents2: Vec<Option<NodeId>> = (0..j1.tree.len()).map(|u| j1.tree.parent(u)).collect();
        let powers2 = j1.power.as_explicit().unwrap().clone();
        let prior2 = PriorStructure {
            parents: &parents2,
            powers: &powers2,
            schedule: &j1.schedule,
        };
        let j2 = join_nodes(
            &params,
            &j1.instance,
            &prior2,
            &far_points(&j1.instance, 2),
            &TvcConfig::default(),
            &mut sel,
            2,
        )
        .unwrap();
        assert_eq!(j2.instance.len(), 21);
        feasibility::validate_schedule(&params, &j2.instance, &j2.schedule, &j2.power).unwrap();
    }
}
