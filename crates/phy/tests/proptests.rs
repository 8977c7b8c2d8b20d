//! Property-based tests for the SINR physical layer.

use proptest::prelude::*;
use sinr_geom::{gen, Instance, Point};
use sinr_links::{Link, LinkSet};
use sinr_phy::affectance::AffectanceCalc;
use sinr_phy::feasibility::SlotAuditor;
use sinr_phy::{feasibility, ChannelModel, PowerAssignment, SinrParams};

fn arb_params() -> impl Strategy<Value = SinrParams> {
    (2.1f64..5.0, 1.0f64..3.0, 0.0f64..2.0)
        .prop_map(|(a, b, n)| SinrParams::new(a, b, n, 0.1).expect("valid ranges"))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The §5 equivalence: total affectance ≤ 1 iff SINR ≥ β, whenever
    /// no individual term is clipped at 1 + ε.
    #[test]
    fn affectance_sinr_equivalence(
        params in arb_params(),
        seed in 0u64..10_000,
        n in 3usize..24,
        power_exp in 0.0f64..6.0,
    ) {
        let inst = gen::uniform_square(n, 2.0, seed).unwrap();
        let calc = AffectanceCalc::new(&params, &inst);
        let link = Link::new(0, 1);
        let p_u = params.min_power_for_length(link.length(&inst)) * 4.0;
        let p_w = 10f64.powf(power_exp);
        let senders: Vec<(usize, f64)> =
            (2..n).map(|w| (w, p_w)).collect();

        let clipped = senders.iter().any(|&(w, pw)| {
            calc.of_sender(w, pw, link, p_u).unwrap() >= 1.0 + params.epsilon() - 1e-9
        });
        prop_assume!(!clipped);

        let aff = calc.sum_on(&senders, link, p_u).unwrap();
        let sinr = calc.sinr(link, p_u, &senders);
        // Guard against razor-edge float ties.
        prop_assume!((aff - 1.0).abs() > 1e-9);
        prop_assert_eq!(aff <= 1.0, sinr >= params.beta(),
            "aff={} sinr={} beta={}", aff, sinr, params.beta());
    }

    /// Affectance is monotone in interferer power and anti-monotone in
    /// interferer distance.
    #[test]
    fn affectance_monotonicity(params in arb_params(), d in 2.0f64..50.0) {
        let inst = Instance::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(d, 0.0),
            Point::new(d * 2.0, 0.0),
        ]).unwrap();
        let calc = AffectanceCalc::new(&params, &inst);
        let link = Link::new(0, 1);
        let p_u = params.min_power_for_length(1.0) * 2.0;
        let a_near_lo = calc.of_sender(2, 1.0, link, p_u).unwrap();
        let a_near_hi = calc.of_sender(2, 5.0, link, p_u).unwrap();
        let a_far_lo = calc.of_sender(3, 1.0, link, p_u).unwrap();
        prop_assert!(a_near_hi >= a_near_lo);
        prop_assert!(a_far_lo <= a_near_lo);
    }

    /// Removing any link from a feasible set keeps it feasible
    /// (interference monotonicity), for every power family.
    #[test]
    fn feasibility_subset_closed(seed in 0u64..5_000, n in 4usize..20, tau in 0usize..3) {
        let params = SinrParams::default();
        let inst = gen::uniform_square(n, 3.0, seed).unwrap();
        let power = match tau {
            0 => PowerAssignment::uniform_with_margin(&params, inst.delta()),
            1 => PowerAssignment::mean_with_margin(&params, inst.delta()),
            _ => PowerAssignment::linear_with_margin(&params),
        };
        // Greedily build a feasible set from nearest-neighbor links.
        let grid = sinr_geom::GridIndex::build(&inst, 2.0);
        let mut feasible = LinkSet::new();
        for u in 0..n {
            if let Some((v, _)) = grid.nearest_neighbor(u) {
                let mut cand = feasible.clone();
                if cand.insert(Link::new(u, v))
                    && feasibility::is_feasible(&params, &inst, &cand, &power)
                {
                    feasible = cand;
                }
            }
        }
        prop_assume!(feasible.len() >= 2);
        for drop in feasible.iter() {
            let mut sub = feasible.clone();
            sub.retain(|l| l != drop);
            prop_assert!(feasibility::is_feasible(&params, &inst, &sub, &power));
        }
    }

    /// Oblivious powers scale as documented: P(ℓ)² = P_U · P_L(ℓ) for
    /// unit scales (mean is the geometric mean), on random lengths.
    #[test]
    fn mean_power_geometric_mean(len in 1.0f64..100.0, alpha in 2.1f64..5.0) {
        let params = SinrParams::new(alpha, 2.0, 1.0, 0.1).unwrap();
        let inst = Instance::new(vec![Point::new(0.0, 0.0), Point::new(len, 0.0)]).unwrap();
        let l = Link::new(0, 1);
        let u = PowerAssignment::uniform(1.0).power_of(l, &inst, &params).unwrap();
        let m = PowerAssignment::mean(1.0).power_of(l, &inst, &params).unwrap();
        let lin = PowerAssignment::linear(1.0).power_of(l, &inst, &params).unwrap();
        prop_assert!((m * m - u * lin).abs() <= 1e-9 * (m * m).max(u * lin));
    }

    /// The certified `SlotAuditor` under *random* push / probe / pop
    /// sequences: after **every** operation its decision must equal a
    /// from-scratch `feasibility::check` on the resident links in
    /// insertion order — the bit-exactness contract (DESIGN.md §7.4)
    /// the greedy packers rely on, here stressed through arbitrary
    /// interleavings of accepted pushes, rejected probes, and
    /// journal-restoring pops rather than the packers' own access
    /// pattern, over random `(α, β, N)` under both channels.
    #[test]
    fn slot_auditor_random_ops_match_check(
        params in arb_params(),
        shadowed in 0u8..2,
        seed in 0u64..2_000,
        n in 8usize..40,
        tau in 0usize..3,
        ops in proptest::collection::vec((0u8..4, 0usize..1_000), 1..50),
    ) {
        let params = if shadowed == 1 {
            params.with_channel(ChannelModel::shadowed(seed, 6.0).unwrap())
        } else {
            params
        };
        let inst = gen::uniform_square(n, 1.5, seed).unwrap();
        let power = match tau {
            0 => PowerAssignment::uniform_with_margin(&params, inst.delta()),
            1 => PowerAssignment::mean_with_margin(&params, inst.delta()),
            _ => PowerAssignment::linear_with_margin(&params),
        };
        // Candidate pool: everyone's nearest-neighbor uplink (the link
        // shape the packers actually see).
        let grid = sinr_geom::GridIndex::build(&inst, 2.0);
        let candidates: Vec<Link> = (0..inst.len())
            .filter_map(|u| grid.nearest_neighbor(u).map(|(v, _)| Link::new(u, v)))
            .collect();
        prop_assume!(!candidates.is_empty());

        let mut auditor = SlotAuditor::new(&params, &inst);
        let mut resident: Vec<Link> = Vec::new();
        for (op, pick) in ops {
            let link = candidates[pick % candidates.len()];
            let pw = power.power_of(link, &inst, &params).unwrap();
            match op {
                // Unconditional push (may make the slot infeasible —
                // the auditor must track that state too).
                0 => {
                    if !resident.contains(&link) {
                        auditor.push(link, pw);
                        resident.push(link);
                    }
                }
                // Probe: push-test-pop on failure; the decision must
                // match check() on the would-be set.
                1 | 2 => {
                    if !resident.contains(&link) {
                        let mut probe = resident.clone();
                        probe.push(link);
                        let set = LinkSet::from_links(probe).unwrap();
                        let expect = feasibility::check(&params, &inst, &set, &power)
                            .is_feasible();
                        prop_assert_eq!(
                            auditor.try_push(link, pw),
                            expect,
                            "probe decision diverged from check on {:?}",
                            link
                        );
                        if expect {
                            resident.push(link);
                        }
                    }
                }
                // Pop: must restore the exact pre-push state.
                _ => {
                    if !resident.is_empty() {
                        auditor.pop();
                        resident.pop();
                    }
                }
            }
            // After every operation: same residents, same decision as
            // a from-scratch check over them.
            prop_assert_eq!(auditor.links(), resident.as_slice());
            prop_assert_eq!(auditor.len(), resident.len());
            let expect = resident.is_empty() || {
                let set = LinkSet::from_links(resident.clone()).unwrap();
                feasibility::check(&params, &inst, &set, &power).is_feasible()
            };
            prop_assert_eq!(
                auditor.is_feasible(),
                expect,
                "auditor state diverged from check after op {} on {} residents",
                op,
                resident.len()
            );
        }
    }

    /// The noise factor c(u,v) always lies in [β, 2β] for margin powers.
    #[test]
    fn noise_factor_in_band(params in arb_params(), len in 1.0f64..64.0) {
        prop_assume!(params.noise() > 0.0);
        let inst = Instance::new(vec![Point::new(0.0, 0.0), Point::new(len, 0.0)]).unwrap();
        let calc = AffectanceCalc::new(&params, &inst);
        let link = Link::new(0, 1);
        for margin in [1.0f64, 2.0, 8.0] {
            let p = params.min_power_for_length(len) * margin;
            let c = calc.noise_factor(link, p).unwrap();
            prop_assert!(c >= params.beta() * (1.0 - 1e-12));
            prop_assert!(c <= 2.0 * params.beta() * (1.0 + 1e-12));
        }
    }
}
