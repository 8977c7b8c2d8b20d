//! Message-passing distributed re-packing — the paper's §9 open
//! problem, closed end-to-end (DESIGN.md §14).
//!
//! [`crate::repack`]'s incremental mode still assigned the dirty-region
//! slots centrally, and pessimistically closed over *all* ancestors of
//! every fresh link. This module re-expresses that step as a node-local
//! protocol: each dirty link's endpoints claim a slot by running
//! probe/ack rounds over the same simulated radio the selectors use —
//! one-shot synchronous slot computations resolved with the channel
//! function of `sinr-phy` ([`crate::selector`]'s `resolve_probe_slot`),
//! exactly what the full simulator would compute.
//!
//! ## The protocol
//!
//! Only **fresh** links (no slot in the kept schedule, or unpowered)
//! start dirty; every other link keeps its slot and stays on the air.
//! A claim token walks the fresh links in leaf-to-root order (the
//! convergecast order the tree already provides). The claiming link
//! `(u → p)` probes candidate slots upward from its local floor — one
//! more than the highest slot any of `u`'s children currently holds,
//! which `u` knows from their acknowledgments:
//!
//! 1. **probe round** — `u` transmits alongside the slot's resident
//!    senders; `p` acks on the dual direction. Each round is two
//!    protocol slots, charged to [`RepackStats::protocol_slots`].
//! 2. **ordering NACK** — a resident on `u`'s root path (or inside
//!    `u`'s subtree) recognizes the probe as tree-comparable and NACKs:
//!    Definition 1's ordering forbids sharing a slot with an ancestor
//!    or descendant no matter how clean the channel measures. Each
//!    node can decide this locally from the convergecast structure.
//! 3. **interference NACK** — the probe itself must decode in both
//!    directions (the selector-style affectance check), and every
//!    resident receiver re-measures its own reception with the probe on
//!    the air and NACKs if its decode broke. The accept/reject decision
//!    is computed by the same bidirectional [`SlotAuditor`] probes the
//!    centralized packers run, so every admitted slot is feasible in
//!    both directions by bit-identical decisions.
//!
//! ## The lazy cascade
//!
//! When the claimed slot `s` lands at or above the parent link's
//! current slot — which only happens because probes below `s` observed
//! interference (or the floor itself had risen that far) — the parent
//! is **escalated**: it vacates its slot, re-claims one above `s`, and
//! the check recurses upward ([`RepackStats::cascade_escalations`]).
//! When the claim lands strictly below the parent, the cascade stops
//! dead: the parent, and every ancestor above it, never move. The dirty
//! closure therefore shrinks from "ancestors of all fresh links" (the
//! incremental mode's pessimistic upward closure) to "ancestors that
//! observed interference" — always a subset, equal only on adversarial
//! instances where every probe below the parent is NACKed (pinned by
//! the proptest harness in `crates/core/tests/proptests.rs`).
//!
//! The cascade preserves the bi-tree ordering inductively: every
//! placement or escalation re-establishes "child strictly below
//! parent" for the pair it touched, escalations only ever move links
//! *up*, and a not-yet-placed fresh parent picks its floor above all
//! its children when its own turn comes. `BiTree::new` re-checks the
//! global property on every pipeline exit.

use std::collections::BTreeSet;
use std::time::Instant;

use sinr_geom::Instance;
use sinr_links::{InTree, Link, LinkSet, Schedule, ScheduleDelta};
use sinr_phy::feasibility::{self, SlotAuditor};
use sinr_phy::{PowerAssignment, SinrParams};

use crate::repack::{RepackMode, RepackOutcome, RepackStats};
use crate::selector::resolve_probe_slot;

/// One slot's residency as the protocol sees it: the links currently
/// on the air (kept links in canonical schedule order, then claims in
/// landing order) and the lazily seeded bidirectional auditors that
/// decide resident NACKs. Escalations evict residents mid-run, so the
/// auditors are invalidated and re-seeded on the next probe — unlike
/// the incremental packer's append-only slots.
#[derive(Default)]
struct DistSlot<'a> {
    /// `(link, forward power, dual power)` per resident.
    residents: Vec<(Link, f64, f64)>,
    auditors: Option<(SlotAuditor<'a>, SlotAuditor<'a>)>,
}

impl<'a> DistSlot<'a> {
    /// Runs one probe/ack round for `link` against this slot. On
    /// success the link stays resident.
    fn try_claim(
        &mut self,
        params: &'a SinrParams,
        instance: &'a Instance,
        tree: &InTree,
        link: Link,
        (pw_fwd, pw_dual): (f64, f64),
        round: &mut ProbeRound,
    ) -> bool {
        // Ordering NACK: a tree-comparable resident refuses the slot
        // outright (Definition 1 forbids sharing with an ancestor or a
        // descendant), before any channel measurement. A sibling
        // resident NACKs too: their shared parent cannot ack two
        // children in one round (duplicate dual sender).
        for &(res, _, _) in &self.residents {
            if res.receiver == link.receiver
                || tree.is_ancestor(res.sender, link.sender)
                || tree.is_ancestor(link.sender, res.sender)
            {
                return false;
            }
        }
        // Probe + ack decode: the claiming link must itself be
        // decodable in both directions with the residents on the air —
        // the same one-shot slot resolution the selectors run.
        round.tx.clear();
        round
            .tx
            .extend(self.residents.iter().map(|&(l, pf, _)| (l.sender, pf)));
        round.tx.push((link.sender, pw_fwd));
        let probe = [(link, pw_fwd)];
        if resolve_probe_slot(params, instance, &round.tx, &probe, 1.0).is_empty() {
            return false;
        }
        round.tx.clear();
        round
            .tx
            .extend(self.residents.iter().map(|&(l, _, pd)| (l.receiver, pd)));
        round.tx.push((link.receiver, pw_dual));
        let ack = [(link.dual(), pw_dual)];
        if resolve_probe_slot(params, instance, &round.tx, &ack, 1.0).is_empty() {
            return false;
        }
        // Resident NACKs, bit-exact: every resident receiver
        // re-measures with the probe on the air; the bidirectional
        // auditors compute exactly those decisions.
        let (fwd, dual) = self.auditors.get_or_insert_with(|| {
            (
                SlotAuditor::with_residents(
                    params,
                    instance,
                    self.residents.iter().map(|&(l, pf, _)| (l, pf)),
                ),
                SlotAuditor::with_residents(
                    params,
                    instance,
                    self.residents.iter().map(|&(l, _, pd)| (l.dual(), pd)),
                ),
            )
        });
        if feasibility::try_push_bidirectional(fwd, dual, link, (pw_fwd, pw_dual)) {
            self.residents.push((link, pw_fwd, pw_dual));
            return true;
        }
        false
    }

    /// Evicts the resident link sent by `sender` (an escalation),
    /// invalidating the seeded auditors.
    fn evict(&mut self, sender: usize) {
        let i = self
            .residents
            .iter()
            .position(|&(l, _, _)| l.sender == sender)
            .expect("escalated link is resident in its slot");
        self.residents.remove(i);
        self.auditors = None;
    }
}

/// Recycled transmitter list for the probe rounds.
#[derive(Default)]
struct ProbeRound {
    tx: Vec<(usize, f64)>,
}

/// Re-packs the merged `tree` with the distributed probe/ack protocol.
///
/// Same contract as [`crate::repack::repack_tree`] (which dispatches
/// here for [`RepackMode::Distributed`]): `delta.kept` carries the
/// surviving links' previous slots, the returned schedule is compacted,
/// bi-tree-ordered and per-slot feasible in both directions, and links
/// that are clean under the incremental mode's pessimistic closure are
/// never moved — the distributed closure is a subset of it.
pub fn repack_distributed(
    params: &SinrParams,
    instance: &Instance,
    tree: &InTree,
    power: &PowerAssignment,
    delta: &ScheduleDelta,
) -> RepackOutcome {
    let start = Instant::now();
    let n = tree.len();
    let total_links = n.saturating_sub(1);
    let previous_slots = delta.previous_slots();
    let order = tree.leaf_to_root_order();

    // ---- 1. classify: only fresh links start dirty ------------------
    let mut fresh = vec![false; n];
    let mut fresh_links = 0usize;
    for &u in &order {
        let Some(p) = tree.parent(u) else { continue };
        let link = Link::new(u, p);
        if delta.kept.slot_of(link).is_none() {
            fresh_links += 1;
        }
        let powered = power.power_of(link, instance, params).is_ok()
            && power.power_of(link.dual(), instance, params).is_ok();
        fresh[u] = delta.kept.slot_of(link).is_none() || !powered;
        sinr_sim::trace::emit(sinr_sim::trace::TraceEvent::RepackClass {
            node: u,
            class: if fresh[u] {
                sinr_sim::trace::RepackClass::Fresh
            } else {
                sinr_sim::trace::RepackClass::Clean
            },
        });
    }

    // ---- 2. every non-fresh link keeps its slot and stays on air ----
    let mut slot_of: Vec<Option<usize>> = vec![None; n];
    let mut touched = vec![false; previous_slots];
    for &(_, s) in &delta.removed {
        if s < previous_slots {
            touched[s] = true;
        }
    }
    let mut slots: Vec<DistSlot<'_>> = (0..previous_slots).map(|_| DistSlot::default()).collect();
    for (link, s) in delta.kept.iter() {
        let in_tree = link.sender < n && tree.parent(link.sender) == Some(link.receiver);
        if !in_tree || fresh[link.sender] {
            // Failed remnant, or kept-but-unpowered (treated as fresh).
            if s < previous_slots {
                touched[s] = true;
            }
            continue;
        }
        let pw_fwd = power
            .power_of(link, instance, params)
            .expect("non-fresh links are powered by classification");
        let pw_dual = power
            .power_of(link.dual(), instance, params)
            .expect("non-fresh links are powered by classification");
        while slots.len() <= s {
            slots.push(DistSlot::default());
        }
        slots[s].residents.push((link, pw_fwd, pw_dual));
        slot_of[link.sender] = Some(s);
    }

    // ---- 3. claim token: fresh links leaf to root, cascades inline --
    let mut unschedulable = Vec::new();
    let mut moved = vec![false; n];
    let mut protocol_slots = 0u64;
    let mut escalations = 0usize;
    let mut classes: BTreeSet<u32> = BTreeSet::new();
    let mut round = ProbeRound::default();
    for &u in &order {
        if tree.parent(u).is_none() || !fresh[u] {
            continue;
        }
        {
            let link = Link::new(u, tree.parent(u).unwrap());
            let alone: LinkSet = std::iter::once(link).collect();
            if !(feasibility::is_feasible(params, instance, &alone, power)
                && feasibility::is_feasible(params, instance, &alone.dual(), power))
            {
                unschedulable.push(link);
                continue;
            }
        }
        let mut current = u;
        loop {
            let p = tree.parent(current).expect("cascade stops at the root");
            let link = Link::new(current, p);
            let pw_fwd = power
                .power_of(link, instance, params)
                .expect("claiming link has a power entry");
            let pw_dual = power
                .power_of(link.dual(), instance, params)
                .expect("claiming dual has a power entry");
            classes.insert(link.length_class(instance));
            // Local floor: one above the highest slot any child holds.
            let floor = tree
                .children(current)
                .iter()
                .filter_map(|&c| slot_of[c])
                .max()
                .map_or(0, |s| s + 1);
            let mut s = floor;
            loop {
                while slots.len() <= s {
                    slots.push(DistSlot::default());
                }
                protocol_slots += 2; // probe + ack
                if slots[s].try_claim(params, instance, tree, link, (pw_fwd, pw_dual), &mut round) {
                    break;
                }
                s += 1;
            }
            slot_of[current] = Some(s);
            moved[current] = true;
            if s < previous_slots {
                touched[s] = true;
            }
            // Lazy cascade: escalate the parent only when this claim
            // landed at or above it — i.e. only when probes below were
            // NACKed (or the floor had already risen past it).
            let escalate = tree.parent(p).is_some() && matches!(slot_of[p], Some(sp) if sp <= s);
            if !escalate {
                break;
            }
            let sp = slot_of[p].expect("escalation target holds a slot");
            slots[sp].evict(p);
            if sp < previous_slots {
                touched[sp] = true;
            }
            slot_of[p] = None;
            escalations += 1;
            protocol_slots += 1; // the eviction notification
            sinr_sim::trace::emit(sinr_sim::trace::TraceEvent::RepackClass {
                node: p,
                class: sinr_sim::trace::RepackClass::Dirty,
            });
            current = p;
        }
    }

    // ---- 4. assemble, compact & account -----------------------------
    let mut schedule = Schedule::new();
    let mut kept_in_place = 0usize;
    for u in 0..n {
        let (Some(p), Some(s)) = (tree.parent(u), slot_of[u]) else {
            continue;
        };
        schedule.assign(Link::new(u, p), s);
        if !moved[u] {
            kept_in_place += 1;
        }
    }
    let fresh_slots = slots[previous_slots.min(slots.len())..]
        .iter()
        .filter(|slot| !slot.residents.is_empty())
        .count();
    schedule.compact();
    let untouched_slots = touched.iter().filter(|&&t| !t).count();
    let stats = RepackStats {
        mode: RepackMode::Distributed,
        total_links,
        kept_in_place,
        repacked_links: moved.iter().filter(|&&m| m).count(),
        fresh_links,
        previous_slots,
        untouched_slots,
        fresh_slots,
        dirty_length_classes: classes.len(),
        protocol_slots,
        cascade_escalations: escalations,
        pack_seconds: start.elapsed().as_secs_f64(),
    };
    RepackOutcome {
        schedule,
        stats,
        unschedulable,
    }
}

impl std::fmt::Debug for DistSlot<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistSlot")
            .field("residents", &self.residents.len())
            .field("seeded", &self.auditors.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repack::repack_tree;
    use sinr_geom::gen;
    use std::collections::HashMap;

    fn params() -> SinrParams {
        SinrParams::default()
    }

    fn structure(n: usize, seed: u64) -> (Instance, InTree, PowerAssignment, Schedule) {
        let p = params();
        let inst = gen::uniform_square(n, 1.5, seed).unwrap();
        let parents = sinr_geom::mst::mst_parent_array(&inst, 0);
        let tree = InTree::from_parents(parents).unwrap();
        let formula = PowerAssignment::mean_with_margin(&p, inst.delta());
        let mut map: HashMap<Link, f64> = HashMap::new();
        for l in tree.aggregation_links().iter() {
            for dir in [l, l.dual()] {
                map.insert(dir, formula.power_of(dir, &inst, &p).unwrap());
            }
        }
        let power = PowerAssignment::explicit(map).unwrap();
        let (schedule, bad) = sinr_phy::packing::pack_tree_ordered(&p, &inst, &tree, &power);
        assert!(bad.is_empty());
        (inst, tree, power, schedule)
    }

    #[test]
    fn no_churn_claims_nothing() {
        let p = params();
        let (inst, tree, power, schedule) = structure(36, 3);
        let delta = ScheduleDelta::unchanged(&schedule);
        let out = repack_tree(&p, &inst, &tree, &power, &delta, RepackMode::Distributed);
        assert_eq!(out.schedule, schedule);
        assert_eq!(out.stats.repacked_links, 0);
        assert_eq!(out.stats.protocol_slots, 0);
        assert_eq!(out.stats.cascade_escalations, 0);
        assert_eq!(out.stats.kept_in_place, tree.len() - 1);
        assert_eq!(out.stats.untouched_slots, out.stats.previous_slots);
    }

    /// A fresh deep link whose claim lands below its parent: the cascade
    /// never fires, so the distributed closure is exactly the fresh
    /// link — strictly inside the incremental mode's ancestor closure.
    #[test]
    fn lazy_cascade_beats_pessimistic_closure() {
        let p = params();
        let (inst, tree, power, schedule) = structure(30, 11);
        let deepest = (0..tree.len()).max_by_key(|&u| tree.depth(u)).unwrap();
        let link = Link::new(deepest, tree.parent(deepest).unwrap());
        let kept = Schedule::from_pairs(schedule.iter().filter(|&(l, _)| l != link)).unwrap();
        let delta = ScheduleDelta {
            kept,
            removed: Vec::new(),
        };
        let incr = repack_tree(&p, &inst, &tree, &power, &delta, RepackMode::Incremental);
        let dist = repack_tree(&p, &inst, &tree, &power, &delta, RepackMode::Distributed);
        assert_eq!(incr.stats.repacked_links, tree.depth(deepest));
        assert!(
            dist.stats.repacked_links <= incr.stats.repacked_links,
            "distributed closure must be a subset of the pessimistic one"
        );
        assert!(dist.stats.protocol_slots >= 2, "claims are charged");
        feasibility::validate_schedule(&p, &inst, &dist.schedule, &power).unwrap();
        let dual = dist.schedule.map_links(Link::dual).unwrap();
        feasibility::validate_schedule(&p, &inst, &dual, &power).unwrap();
        sinr_links::BiTree::new(tree.clone(), dist.schedule.clone()).expect("ordering holds");
    }
}
