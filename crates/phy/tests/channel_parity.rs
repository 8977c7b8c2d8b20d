//! Channel-model parity gates (DESIGN.md §15).
//!
//! The channel lives in `SinrParams`, and every gain is
//! `path_gain(d) · fade(u, v)`. The contract has two halves:
//!
//! 1. **Geometric is the paper's power law, bit for bit.** Its fade is
//!    exactly `1.0`, so every `SinrParams` gain quantity (`gain`,
//!    `gain_bounds`, `min_power_for_length`, `noise_floor_power`) must
//!    equal the raw Eqn-1 formula to the bit, and the certified field
//!    decode must equal the exact naive-order reference.
//! 2. **Certification only widens.** Under a shadowed channel, the
//!    field's certified decode must equal the exact naive-order
//!    reference ([`decode_best_exact`]): the fade-widened far-field
//!    bounds may cost certainty (forcing fallbacks), never correctness
//!    (flipping a decision).
//!
//! Both halves sweep random geometry via proptest; the decode checks
//! also sweep the three power families (uniform / mean / linear).

use proptest::prelude::*;
use sinr_geom::{gen, Instance, NodeId};
use sinr_links::Link;
use sinr_phy::field::{decode_best_exact, InterferenceField};
use sinr_phy::{ChannelModel, PowerAssignment, Shadowing, SinrParams};

/// Sender set for one slot: every `stride`-th node transmits with the
/// family's power for its nearest-neighbor uplink.
fn make_senders(
    params: &SinrParams,
    inst: &Instance,
    tau: usize,
    stride: usize,
) -> Vec<(NodeId, f64)> {
    let power = match tau {
        0 => PowerAssignment::uniform_with_margin(params, inst.delta()),
        1 => PowerAssignment::mean_with_margin(params, inst.delta()),
        _ => PowerAssignment::linear_with_margin(params),
    };
    let grid = sinr_geom::GridIndex::build(inst, (inst.delta() / 8.0).max(1e-6));
    (0..inst.len())
        .step_by(stride.max(2))
        .filter_map(|u| {
            let (v, _) = grid.nearest_neighbor(u)?;
            let p = power.power_of(Link::new(u, v), inst, params).ok()?;
            (p.is_finite() && p > 0.0).then_some((u, p))
        })
        .collect()
}

fn bits(r: Option<(NodeId, f64, f64)>) -> Option<(NodeId, u64, u64)> {
    r.map(|(u, p, s)| (u, p.to_bits(), s.to_bits()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Half 1a: under the geometric channel the `SinrParams` gain
    /// quantities are the raw power-law formulas, to the bit, for any
    /// valid `(α, β, N)`.
    #[test]
    fn geometric_gains_are_the_raw_power_law(
        alpha_tenths in 21u32..80,
        beta_tenths in 10u32..100,
        noise_tenths in 0u32..50,
        d_tenths in 1u32..2_000,
        span_tenths in 0u32..500,
        pair in 0usize..1_000_000,
    ) {
        let (u, v) = (pair / 1_000, pair % 1_000);
        let (alpha, beta, noise) = (
            f64::from(alpha_tenths) / 10.0,
            f64::from(beta_tenths) / 10.0,
            f64::from(noise_tenths) / 10.0,
        );
        let params = SinrParams::new(alpha, beta, noise, 0.1).unwrap();
        prop_assert!(params.channel().is_geometric());
        let d = f64::from(d_tenths) / 10.0;
        let d_hi = d + f64::from(span_tenths) / 10.0;

        prop_assert_eq!(params.gain(d, u, v).to_bits(), d.powf(-alpha).to_bits());
        prop_assert_eq!(params.path_gain(d).to_bits(), d.powf(-alpha).to_bits());
        let (lo, hi) = params.gain_bounds(d, d_hi);
        prop_assert_eq!(lo.to_bits(), d_hi.powf(-alpha).to_bits());
        prop_assert_eq!(hi.to_bits(), d.powf(-alpha).to_bits());
        let min_power = if noise == 0.0 {
            d.powf(alpha)
        } else {
            2.0 * beta * noise * d.powf(alpha)
        };
        prop_assert_eq!(params.min_power_for_length(d).to_bits(), min_power.to_bits());
        prop_assert_eq!(
            params.noise_floor_power(d, u, v).to_bits(),
            (beta * noise * d.powf(alpha)).to_bits()
        );
    }

    /// Half 1b: the geometric certified field decode equals the exact
    /// reference on every listener, across power families and sender
    /// counts (certification never flips a decision).
    #[test]
    fn geometric_field_decode_matches_exact_reference(
        seed in 0u64..5_000,
        n in 16usize..200,
        tau in 0usize..3,
        stride in 2usize..6,
    ) {
        let params = SinrParams::default();
        let inst = gen::uniform_square(n, 1.5, seed).unwrap();
        let senders = make_senders(&params, &inst, tau, stride);
        prop_assume!(!senders.is_empty());
        let field = InterferenceField::build(&params, &inst, &senders);
        let transmitting: Vec<bool> = {
            let mut t = vec![false; inst.len()];
            for &(u, _) in &senders { t[u] = true; }
            t
        };
        for v in (0..inst.len()).filter(|&v| !transmitting[v]) {
            prop_assert_eq!(
                bits(field.decode_best(v)),
                bits(decode_best_exact(&params, &inst, v, &senders))
            );
        }
    }

    /// Half 2: under a shadowed channel the certified decode still
    /// equals the exact naive-order reference — the fade-widened
    /// far-field certificates are sound, and `sinr_at_least` agrees
    /// with the exact SINR comparison on every tree link.
    #[test]
    fn shadowed_field_decode_matches_exact_reference(
        seed in 0u64..5_000,
        n in 16usize..160,
        tau in 0usize..3,
        sigma_tenths in 20u32..100,
    ) {
        let inst = gen::uniform_square(n, 1.5, seed).unwrap();
        let sigma = f64::from(sigma_tenths) / 10.0;
        let params = SinrParams::default().with_channel(ChannelModel::Shadowed(
            Shadowing::new(seed ^ 0xFADE, sigma).unwrap(),
        ));
        let senders = make_senders(&SinrParams::default(), &inst, tau, 3);
        prop_assume!(!senders.is_empty());
        let field = InterferenceField::build(&params, &inst, &senders);
        let transmitting: Vec<bool> = {
            let mut t = vec![false; inst.len()];
            for &(u, _) in &senders { t[u] = true; }
            t
        };
        for v in (0..inst.len()).filter(|&v| !transmitting[v]) {
            prop_assert_eq!(
                bits(field.decode_best(v)),
                bits(decode_best_exact(&params, &inst, v, &senders)),
                "listener {} diverged from the exact reference", v
            );
        }
        // Threshold queries: certificates may only widen, so the
        // boolean must match the exact comparison everywhere.
        for &(u, p) in senders.iter().take(12) {
            for v in (0..inst.len()).filter(|&v| !transmitting[v]).take(6) {
                let link = Link::new(u, v);
                prop_assert_eq!(
                    field.sinr_at_least(link, p, params.beta()),
                    field.sinr_exact(link, p) >= params.beta()
                );
            }
        }
    }
}

/// The fade stream itself: symmetric, seed-sensitive, and stable under
/// growth of the node set (a fade is a closed-form function of the
/// unordered pair, so adding nodes or links never shifts a draw).
#[test]
fn fades_are_symmetric_seed_sensitive_and_stable() {
    let s = Shadowing::new(7, 6.0).unwrap();
    let other = Shadowing::new(8, 6.0).unwrap();
    let (lo, hi) = s.fade_bounds();
    let mut differs = false;
    for u in 0..40usize {
        for v in (u + 1)..40 {
            let f = s.fade(u, v);
            assert_eq!(f.to_bits(), s.fade(v, u).to_bits(), "fade not symmetric");
            assert!(f >= lo && f <= hi, "fade {f} outside certified bounds");
            differs |= f.to_bits() != other.fade(u, v).to_bits();
        }
    }
    assert!(differs, "fades insensitive to the stream seed");
}
