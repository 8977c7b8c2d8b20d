//! Latency verification for bi-trees (Definition 1, §4).
//!
//! A bi-tree promises: one pass of the aggregation schedule completes a
//! converge-cast; one pass of the dissemination schedule completes a
//! broadcast; any pairwise message needs at most one pass of each. This
//! module *replays* the schedules against the SINR channel with the
//! actual link powers and checks that data really flows — the
//! end-to-end validation behind experiment E8.
//!
//! The replay consumes the channel only through the thresholded
//! delivery decision `SINR ≥ β`, so each slot is resolved through one
//! [`InterferenceField`] (certified near-field decision, exact
//! naive-order fallback — DESIGN.md §7/§8) instead of the historical
//! all-pairs affectance sums; decisions are bit-identical and the pass
//! over a schedule is near-linear in its links.

use std::collections::HashMap;

use sinr_geom::{Instance, NodeId};
use sinr_links::{BiTree, Link};
use sinr_phy::field::InterferenceField;
use sinr_phy::{PowerAssignment, SinrParams};

use crate::{CoreError, Result};

/// Result of replaying an aggregation pass.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvergecastCheck {
    /// Slots in the pass.
    pub slots: usize,
    /// Whether every link decoded successfully.
    pub all_delivered: bool,
    /// The maximum node id aggregated at the root (should be `n − 1`).
    pub root_aggregate: NodeId,
}

/// Result of replaying a dissemination pass.
#[derive(Clone, Debug, PartialEq)]
pub struct BroadcastCheck {
    /// Slots in the pass.
    pub slots: usize,
    /// Nodes that received the root's token.
    pub reached: usize,
    /// Whether all nodes were reached.
    pub all_reached: bool,
}

fn slot_transmitters(
    params: &SinrParams,
    instance: &Instance,
    links: &[Link],
    power: &PowerAssignment,
) -> Result<Vec<(NodeId, f64)>> {
    links
        .iter()
        .map(|&l| Ok((l.sender, power.power_of(l, instance, params)?)))
        .collect()
}

/// Replays the aggregation schedule: every node starts holding its own
/// id; each slot, the slot's links transmit with their powers and a
/// successful decode merges the child's aggregate (max) into the
/// parent. Returns what the root ends up holding.
///
/// # Errors
///
/// Returns [`CoreError::Phy`] if a link has no power assigned.
pub fn simulate_convergecast(
    params: &SinrParams,
    instance: &Instance,
    bitree: &BiTree,
    power: &PowerAssignment,
) -> Result<ConvergecastCheck> {
    let n = instance.len();
    let mut holding: Vec<NodeId> = (0..n).collect();
    let mut all_delivered = true;
    let mut busy = vec![false; n];

    let slots = bitree.aggregation_schedule().slots();
    for slot_links in &slots {
        let links: Vec<Link> = slot_links.iter().collect();
        let tx = slot_transmitters(params, instance, &links, power)?;
        let field = InterferenceField::build(params, instance, &tx);
        for &(u, _) in &tx {
            busy[u] = true;
        }
        // Compute receptions against the full transmitter set, then
        // apply merges simultaneously (slot semantics).
        let mut merges: HashMap<NodeId, NodeId> = HashMap::new();
        for (i, &l) in links.iter().enumerate() {
            let delivered =
                !busy[l.receiver] && field.sinr_at_least(l, tx[i].1, params.beta() * (1.0 - 1e-12));
            if delivered {
                let best = merges.entry(l.receiver).or_insert(0);
                *best = (*best).max(holding[l.sender]);
            } else {
                all_delivered = false;
            }
        }
        for &(u, _) in &tx {
            busy[u] = false;
        }
        for (receiver, value) in merges {
            holding[receiver] = holding[receiver].max(value);
        }
    }

    Ok(ConvergecastCheck {
        slots: slots.len(),
        all_delivered,
        root_aggregate: holding[bitree.tree().root()],
    })
}

/// Replays the dissemination schedule: the root holds a token; each
/// slot, the slot's (dual) links transmit and successful decodes pass
/// the token down. Counts how many nodes end up with the token.
///
/// # Errors
///
/// Returns [`CoreError::Phy`] if a link has no power assigned.
pub fn simulate_broadcast(
    params: &SinrParams,
    instance: &Instance,
    bitree: &BiTree,
    power: &PowerAssignment,
) -> Result<BroadcastCheck> {
    let n = instance.len();
    let mut has_token = vec![false; n];
    has_token[bitree.tree().root()] = true;
    let mut busy = vec![false; n];

    let schedule = bitree.dissemination_schedule();
    let slots = schedule.slots();
    for slot_links in &slots {
        let links: Vec<Link> = slot_links.iter().collect();
        let tx = slot_transmitters(params, instance, &links, power)?;
        let field = InterferenceField::build(params, instance, &tx);
        for &(u, _) in &tx {
            busy[u] = true;
        }
        let mut granted: Vec<NodeId> = Vec::new();
        for (i, &l) in links.iter().enumerate() {
            if has_token[l.sender]
                && !busy[l.receiver]
                && field.sinr_at_least(l, tx[i].1, params.beta() * (1.0 - 1e-12))
            {
                granted.push(l.receiver);
            }
        }
        for &(u, _) in &tx {
            busy[u] = false;
        }
        for v in granted {
            has_token[v] = true;
        }
    }

    let reached = has_token.iter().filter(|&&t| t).count();
    Ok(BroadcastCheck {
        slots: slots.len(),
        reached,
        all_reached: reached == n,
    })
}

/// End-to-end latency audit of a bi-tree: replays both passes and
/// checks the Definition-1 promises. Returns
/// `(convergecast, broadcast)`.
///
/// # Errors
///
/// Returns [`CoreError::ConvergenceFailure`] if either pass fails to
/// deliver everything (the bi-tree or its powers are broken), or
/// power-lookup errors.
pub fn audit_bitree(
    params: &SinrParams,
    instance: &Instance,
    bitree: &BiTree,
    power: &PowerAssignment,
) -> Result<(ConvergecastCheck, BroadcastCheck)> {
    let up = simulate_convergecast(params, instance, bitree, power)?;
    if !up.all_delivered || up.root_aggregate != instance.len() - 1 {
        return Err(CoreError::ConvergenceFailure {
            phase: "bi-tree audit (convergecast)",
            detail: format!(
                "delivered={} root_aggregate={} (want {})",
                up.all_delivered,
                up.root_aggregate,
                instance.len() - 1
            ),
        });
    }
    let down = simulate_broadcast(params, instance, bitree, power)?;
    if !down.all_reached {
        return Err(CoreError::ConvergenceFailure {
            phase: "bi-tree audit (broadcast)",
            detail: format!("reached {}/{} nodes", down.reached, instance.len()),
        });
    }
    Ok((up, down))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{run_init, InitConfig};
    use crate::selector::MeanSamplingSelector;
    use crate::tvc::{tree_via_capacity, TvcConfig};
    use sinr_geom::gen;

    fn params() -> SinrParams {
        SinrParams::default()
    }

    #[test]
    fn init_bitree_passes_audit() {
        let p = params();
        let inst = gen::uniform_square(30, 1.5, 31).unwrap();
        let out = run_init(&p, &inst, &InitConfig::default(), 6).unwrap();
        let power = out.run.power_assignment();
        let (up, down) = audit_bitree(&p, &inst, &out.bitree, &power).unwrap();
        assert!(up.all_delivered);
        assert_eq!(up.root_aggregate, inst.len() - 1);
        assert!(down.all_reached);
        assert_eq!(up.slots, out.schedule.num_slots());
    }

    #[test]
    fn tvc_bitree_passes_audit() {
        let p = params();
        let inst = gen::uniform_square(36, 1.5, 33).unwrap();
        let mut sel = MeanSamplingSelector::default();
        let out = tree_via_capacity(&p, &inst, &TvcConfig::default(), &mut sel, 12).unwrap();
        let (up, down) = audit_bitree(&p, &inst, &out.bitree, &out.power).unwrap();
        assert!(up.all_delivered && down.all_reached);
        // One pass each: the Definition-1 latency promise.
        assert_eq!(up.slots, out.schedule_len());
        assert_eq!(down.slots, out.schedule_len());
    }

    #[test]
    fn single_node_audit_trivial() {
        let p = params();
        let inst = gen::line(1).unwrap();
        let out = run_init(&p, &inst, &InitConfig::default(), 0).unwrap();
        let power = out.run.power_assignment();
        let (up, down) = audit_bitree(&p, &inst, &out.bitree, &power).unwrap();
        assert_eq!(up.root_aggregate, 0);
        assert_eq!(down.reached, 1);
    }

    #[test]
    fn missing_power_is_reported() {
        let p = params();
        let inst = gen::uniform_square(20, 1.5, 2).unwrap();
        let out = run_init(&p, &inst, &InitConfig::default(), 1).unwrap();
        let empty = PowerAssignment::explicit(HashMap::new()).unwrap();
        assert!(matches!(
            simulate_convergecast(&p, &inst, &out.bitree, &empty),
            Err(CoreError::Phy(_))
        ));
    }
}
