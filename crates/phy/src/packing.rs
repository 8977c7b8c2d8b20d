//! Greedy slot packing under a fixed power assignment.
//!
//! The shared engine behind the centralized schedulers (`sinr-baselines`)
//! and the repair pipeline (`sinr-connectivity::repair`): place links
//! into the earliest feasible slot, optionally respecting per-link slot
//! floors — which is how converge-cast trees get leaf-to-root-ordered
//! schedules (children strictly before parents).

use sinr_geom::Instance;
use sinr_links::{InTree, Link, LinkSet, Schedule};

use crate::feasibility::{self, SlotAuditor};
use crate::{PowerAssignment, SinrParams};

/// Packs `links` (in the given order) greedily: each link goes to the
/// earliest slot `≥ min_slot(link)` whose occupancy stays feasible.
///
/// Slot occupancy is probed through the incremental
/// [`SlotAuditor`], whose decisions are bit-identical to re-running
/// [`feasibility::check`] on the rebuilt set, at `O(slot)` instead of
/// `O(slot²)` per probe.
///
/// Returns the schedule and the links that cannot be scheduled even
/// alone (below the noise floor or missing a power entry) — reported
/// instead of looping forever.
pub fn first_fit(
    params: &SinrParams,
    instance: &Instance,
    links: &[Link],
    power: &PowerAssignment,
    mut min_slot: impl FnMut(Link) -> usize,
) -> (Schedule, Vec<Link>) {
    let mut slots: Vec<SlotAuditor<'_>> = Vec::new();
    let mut schedule = Schedule::new();
    let mut unschedulable = Vec::new();

    'links: for &link in links {
        let alone: LinkSet = std::iter::once(link).collect();
        if !feasibility::is_feasible(params, instance, &alone, power) {
            unschedulable.push(link);
            continue;
        }
        let pw = power
            .power_of(link, instance, params)
            .expect("alone-feasible link has a power entry");
        let mut s = min_slot(link);
        loop {
            while slots.len() <= s {
                slots.push(SlotAuditor::new(params, instance));
            }
            if slots[s].try_push(link, pw) {
                schedule.assign(link, s);
                continue 'links;
            }
            s += 1;
        }
    }
    (schedule, unschedulable)
}

/// Packs a converge-cast tree's aggregation links in leaf-to-root order
/// with per-node slot floors, producing a schedule that satisfies the
/// bi-tree ordering property (every link strictly after all links of
/// its sender's subtree) with every slot feasible **in both
/// directions**: the aggregation links as given, and their duals, which
/// share the slot grouping through `BiTree::dissemination_schedule`
/// (Definition 1). Checking only the forward direction here is exactly
/// the bug that made repaired/joined bi-trees fail their broadcast
/// audit on most seeds.
///
/// The returned schedule is compacted. Unschedulable links — infeasible
/// alone in either direction — are reported (always empty for margin
/// powers).
pub fn pack_tree_ordered(
    params: &SinrParams,
    instance: &Instance,
    tree: &InTree,
    power: &PowerAssignment,
) -> (Schedule, Vec<Link>) {
    let mut floor = vec![0usize; tree.len()];
    let ordered: Vec<Link> = tree
        .leaf_to_root_order()
        .into_iter()
        .filter_map(|u| tree.parent(u).map(|p| Link::new(u, p)))
        .collect();

    let bidirectional_feasible = |set: &LinkSet| {
        feasibility::is_feasible(params, instance, set, power)
            && feasibility::is_feasible(params, instance, &set.dual(), power)
    };

    // Pack one link at a time so receiver floors update as we go. Each
    // slot keeps two incremental auditors — the aggregation direction
    // and its dual — probed in lockstep, which reproduces the old
    // clone-and-recheck `bidirectional_feasible` decision bit for bit
    // at `O(slot)` per probe.
    let mut slots: Vec<(SlotAuditor<'_>, SlotAuditor<'_>)> = Vec::new();
    let mut schedule = Schedule::new();
    let mut unschedulable = Vec::new();
    'links: for link in ordered {
        let alone: LinkSet = std::iter::once(link).collect();
        if !bidirectional_feasible(&alone) {
            unschedulable.push(link);
            continue;
        }
        let pw_fwd = power
            .power_of(link, instance, params)
            .expect("alone-feasible link has a power entry");
        let pw_dual = power
            .power_of(link.dual(), instance, params)
            .expect("alone-feasible dual has a power entry");
        let mut s = floor[link.sender];
        loop {
            while slots.len() <= s {
                slots.push((
                    SlotAuditor::new(params, instance),
                    SlotAuditor::new(params, instance),
                ));
            }
            let (fwd, dual) = &mut slots[s];
            if fwd.try_push(link, pw_fwd) {
                if dual.try_push(link.dual(), pw_dual) {
                    schedule.assign(link, s);
                    floor[link.receiver] = floor[link.receiver].max(s + 1);
                    continue 'links;
                }
                fwd.pop();
            }
            s += 1;
        }
    }
    schedule.compact();
    (schedule, unschedulable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geom::gen;

    fn params() -> SinrParams {
        SinrParams::default()
    }

    #[test]
    fn first_fit_respects_floors() {
        let p = params();
        let inst = gen::line(4).unwrap();
        let power = PowerAssignment::uniform_with_margin(&p, inst.delta());
        let links = [Link::new(0, 1), Link::new(3, 2)];
        let (s, bad) = first_fit(&p, &inst, &links, &power, |l| {
            if l == Link::new(3, 2) {
                3
            } else {
                0
            }
        });
        assert!(bad.is_empty());
        assert_eq!(s.slot_of(Link::new(3, 2)), Some(3));
    }

    #[test]
    fn tree_packing_is_ordered_and_feasible() {
        let p = params();
        let inst = gen::uniform_square(40, 1.5, 8).unwrap();
        let parents = sinr_geom::mst::mst_parent_array(&inst, 0);
        let tree = InTree::from_parents(parents).unwrap();
        let power = PowerAssignment::mean_with_margin(&p, inst.delta());
        let (schedule, bad) = pack_tree_ordered(&p, &inst, &tree, &power);
        assert!(bad.is_empty());
        feasibility::validate_schedule(&p, &inst, &schedule, &power).unwrap();
        // BiTree::new enforces the ordering property.
        sinr_links::BiTree::new(tree, schedule).expect("ordering holds");
    }

    #[test]
    fn unschedulable_links_reported() {
        let p = params();
        let inst = gen::line(3).unwrap();
        let weak = PowerAssignment::uniform(p.noise_floor_power(2.0, 0, 2) * 0.1);
        let links = [Link::new(0, 2)];
        let (s, bad) = first_fit(&p, &inst, &links, &weak, |_| 0);
        assert_eq!(bad.len(), 1);
        assert!(s.is_empty());
    }
}
