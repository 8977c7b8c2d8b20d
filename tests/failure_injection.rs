//! Failure injection: degenerate inputs, hostile configurations and
//! dynamic-failure scenarios must produce errors or correct recoveries,
//! never panics or silent corruption.

use std::collections::HashMap;

use sinr_connect_suite::connectivity::contention::{schedule_distributed, ContentionConfig};
use sinr_connect_suite::connectivity::init::{run_init, run_init_on, InitConfig};
use sinr_connect_suite::connectivity::power_control::{foschini_miljanic, PowerControlConfig};
use sinr_connect_suite::connectivity::repair::{repair_after_failures, PriorStructure};
use sinr_connect_suite::connectivity::selector::MeanSamplingSelector;
use sinr_connect_suite::connectivity::tvc::{tree_via_capacity, TvcConfig};
use sinr_connect_suite::connectivity::CoreError;
use sinr_connect_suite::connectivity::{detect_failures, DetectConfig};
use sinr_connect_suite::geom::{gen, GeomError, Instance, Point};
use sinr_connect_suite::links::{Link, LinkSet};
use sinr_connect_suite::phy::{feasibility, PowerAssignment, SinrParams};
use sinr_connect_suite::sim::{FaultEvent, FaultPlan};

#[test]
fn geometry_rejects_degenerate_inputs() {
    assert!(matches!(
        Instance::new(vec![]),
        Err(GeomError::EmptyInstance)
    ));
    assert!(matches!(
        Instance::new(vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)]),
        Err(GeomError::CoincidentPoints { .. })
    ));
    assert!(matches!(
        Instance::new(vec![Point::new(f64::INFINITY, 0.0)]),
        Err(GeomError::NonFinitePoint { .. })
    ));
}

#[test]
fn init_rejects_hostile_configs() {
    let params = SinrParams::default();
    let inst = gen::line(4).unwrap();
    for cfg in [
        InitConfig {
            p: 0.0,
            ..Default::default()
        },
        InitConfig {
            p: 0.9,
            ..Default::default()
        },
        InitConfig {
            lambda1: -1.0,
            ..Default::default()
        },
        InitConfig {
            lambda1: f64::NAN,
            ..Default::default()
        },
    ] {
        assert!(matches!(
            run_init(&params, &inst, &cfg, 0),
            Err(CoreError::InvalidConfig { .. })
        ));
    }
}

#[test]
fn init_starved_of_rounds_reports_failure() {
    // Strict window + no extra rounds + tiny λ₁ on a hard instance:
    // the run may or may not converge, but it must never panic and
    // must report a structured error when it fails.
    let params = SinrParams::default();
    let inst = gen::exponential_chain(16, 2.2, 1).unwrap();
    let cfg = InitConfig {
        p: 0.02,
        lambda1: 0.2,
        accept_shorter: false,
        extra_rounds_cap: 0,
        ..Default::default()
    };
    let mut failures = 0;
    for seed in 0..8 {
        match run_init(&params, &inst, &cfg, seed) {
            Ok(out) => assert_eq!(out.run.link_slots.len(), inst.len() - 1),
            Err(CoreError::ConvergenceFailure { phase, .. }) => {
                assert_eq!(phase, "init");
                failures += 1;
            }
            Err(other) => panic!("unexpected error kind: {other}"),
        }
    }
    assert!(
        failures > 0,
        "starved config should fail at least once in 8 runs"
    );
}

#[test]
fn subset_masks_are_validated() {
    let params = SinrParams::default();
    let inst = gen::line(5).unwrap();
    let cfg = InitConfig::default();
    assert!(run_init_on(&params, &inst, &[true; 4], &cfg, 0).is_err());
    assert!(run_init_on(&params, &inst, &[false; 5], &cfg, 0).is_err());
}

#[test]
fn contention_detects_impossible_links() {
    let params = SinrParams::default();
    let inst = gen::line(3).unwrap();
    let links = LinkSet::from_links(vec![Link::new(0, 2)]).unwrap();
    let weak = PowerAssignment::uniform(params.noise_floor_power(2.0, 0, 2) * 0.5);
    assert!(matches!(
        schedule_distributed(
            &params,
            &inst,
            &links,
            &weak,
            &ContentionConfig::default(),
            0
        ),
        Err(CoreError::Phy(_))
    ));
}

#[test]
fn power_control_rejects_structural_conflicts() {
    let params = SinrParams::default();
    let inst = gen::line(4).unwrap();
    for links in [
        // Shared receiver.
        vec![Link::new(0, 1), Link::new(2, 1)],
        // Half-duplex chain.
        vec![Link::new(0, 1), Link::new(1, 2)],
        // Duplicate sender.
        vec![Link::new(0, 1), Link::new(0, 2)],
    ] {
        let set = LinkSet::from_links(links).unwrap();
        assert!(foschini_miljanic(&params, &inst, &set, &PowerControlConfig::default()).is_err());
    }
}

#[test]
fn schedule_validation_catches_corruption() {
    // Take a valid TVC result, then corrupt the schedule by merging all
    // slots into one: validation must notice.
    let params = SinrParams::default();
    let inst = gen::uniform_square(24, 1.5, 5).unwrap();
    let mut sel = MeanSamplingSelector::default();
    let out = tree_via_capacity(&params, &inst, &TvcConfig::default(), &mut sel, 1).unwrap();

    let mut corrupted = sinr_connect_suite::links::Schedule::new();
    for (l, _) in out.schedule.iter() {
        corrupted.assign(l, 0);
    }
    assert!(
        feasibility::validate_schedule(&params, &inst, &corrupted, &out.power).is_err(),
        "all links in one slot must be infeasible for n = 24"
    );
}

#[test]
fn repair_handles_cascading_failures_until_one_node() {
    let params = SinrParams::default();
    let inst = gen::uniform_square(12, 2.0, 9).unwrap();
    let mut sel = MeanSamplingSelector::default();
    let out = tree_via_capacity(&params, &inst, &TvcConfig::default(), &mut sel, 2).unwrap();

    let mut instance = inst;
    let mut parents: Vec<Option<usize>> = (0..out.tree.len()).map(|u| out.tree.parent(u)).collect();
    let mut powers: HashMap<Link, f64> = out.power.as_explicit().unwrap().clone();
    let mut schedule = out.schedule.clone();

    // Kill node 0 repeatedly until two nodes remain.
    while instance.len() > 2 {
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &schedule,
        };
        let rep = repair_after_failures(
            &params,
            &instance,
            &prior,
            &[0],
            &TvcConfig::default(),
            &mut sel,
            instance.len() as u64,
        )
        .unwrap();
        assert_eq!(rep.instance.len(), instance.len() - 1);
        feasibility::validate_schedule(&params, &rep.instance, &rep.schedule, &rep.power).unwrap();
        parents = (0..rep.tree.len()).map(|u| rep.tree.parent(u)).collect();
        powers = rep.power.as_explicit().unwrap().clone();
        schedule = rep.schedule.clone();
        instance = rep.instance;
    }
}

#[test]
fn detection_rejects_hostile_configs() {
    let params = SinrParams::default();
    let inst = gen::uniform_square(10, 2.0, 9).unwrap();
    let mut sel = MeanSamplingSelector::default();
    let out = tree_via_capacity(&params, &inst, &TvcConfig::default(), &mut sel, 2).unwrap();
    let parents: Vec<Option<usize>> = (0..out.tree.len()).map(|u| out.tree.parent(u)).collect();
    let powers = out.power.as_explicit().unwrap().clone();
    let prior = PriorStructure {
        parents: &parents,
        powers: &powers,
        schedule: &out.schedule,
    };
    let plan = FaultPlan::new(inst.len(), 1);
    // A zero miss threshold would declare every parent instantly.
    assert!(matches!(
        detect_failures(
            &params,
            &inst,
            &prior,
            &plan,
            &DetectConfig {
                miss_threshold: 0,
                ..Default::default()
            },
            3,
        ),
        Err(CoreError::InvalidConfig {
            name: "miss_threshold",
            ..
        })
    ));
    // A parent array of the wrong length cannot describe this instance.
    let short: Vec<Option<usize>> = parents[..parents.len() - 1].to_vec();
    let bad = PriorStructure {
        parents: &short,
        powers: &powers,
        schedule: &out.schedule,
    };
    assert!(matches!(
        detect_failures(&params, &inst, &bad, &plan, &DetectConfig::default(), 3),
        Err(CoreError::InvalidConfig {
            name: "prior.parents",
            ..
        })
    ));
}

#[test]
fn detected_suspects_drive_a_clean_repair() {
    // End-to-end through the umbrella API: a crash is *detected* (not
    // announced), and the detector's suspect set is handed verbatim to
    // repair, which must produce a validated post-failure structure.
    let params = SinrParams::default();
    let inst = gen::uniform_square(24, 1.8, 11).unwrap();
    let mut sel = MeanSamplingSelector::default();
    let out = tree_via_capacity(&params, &inst, &TvcConfig::default(), &mut sel, 2).unwrap();
    let parents: Vec<Option<usize>> = (0..out.tree.len()).map(|u| out.tree.parent(u)).collect();
    let powers = out.power.as_explicit().unwrap().clone();
    let prior = PriorStructure {
        parents: &parents,
        powers: &powers,
        schedule: &out.schedule,
    };

    // Victim: any non-root node that has a child to observe it.
    let victim = (0..inst.len())
        .find(|&v| parents[v].is_some() && parents.contains(&Some(v)))
        .expect("a 24-node tree has an internal non-root node");
    let mut plan = FaultPlan::new(inst.len(), 0xFA11);
    plan.push(victim, FaultEvent::CrashStop { at: 4 });

    let cfg = DetectConfig {
        miss_threshold: 2,
        max_backoff_exp: 1,
        max_rounds: 8,
        ..Default::default()
    };
    let report = detect_failures(&params, &inst, &prior, &plan, &cfg, 17).unwrap();
    assert_eq!(report.suspects, vec![victim], "exactly the crash, no more");

    let rep = repair_after_failures(
        &params,
        &inst,
        &prior,
        &report.suspects,
        &TvcConfig::default(),
        &mut sel,
        inst.len() as u64,
    )
    .unwrap();
    assert_eq!(rep.instance.len(), inst.len() - 1);
    feasibility::validate_schedule(&params, &rep.instance, &rep.schedule, &rep.power).unwrap();
}

#[test]
fn explicit_power_assignment_rejects_garbage() {
    let mut map = HashMap::new();
    map.insert(Link::new(0, 1), f64::NAN);
    assert!(PowerAssignment::explicit(map).is_err());
    let mut map = HashMap::new();
    map.insert(Link::new(0, 1), -5.0);
    assert!(PowerAssignment::explicit(map).is_err());
}

#[test]
fn power_of_two_diameter_instances_connect() {
    // Regression: with Δ exactly a power of two, the top length-class
    // window [2^{r-1}, 2^r) must still contain the diameter pair; an
    // earlier ⌈log₂ Δ⌉ round count excluded it and Init could never
    // connect the two extreme nodes (e.g. a 3-node unit-spaced line).
    let params = SinrParams::default();
    for n in [3usize, 5, 9] {
        // Unit-spaced line: Δ = n − 1; n = 3, 5, 9 give Δ = 2, 4, 8.
        let inst = gen::line(n).unwrap();
        assert!((inst.delta() - (n as f64 - 1.0)).abs() < 1e-9);
        let out = run_init(&params, &inst, &InitConfig::default(), 7).unwrap();
        assert_eq!(out.run.link_slots.len(), n - 1, "n={n}");
    }
}

#[test]
fn sinr_params_reject_out_of_domain() {
    assert!(SinrParams::new(2.0, 2.0, 1.0, 0.1).is_err()); // α ≤ 2
    assert!(SinrParams::new(3.0, 0.99, 1.0, 0.1).is_err()); // β < 1
    assert!(SinrParams::new(3.0, 2.0, -0.1, 0.1).is_err()); // N < 0
    assert!(SinrParams::new(3.0, 2.0, 1.0, 0.0).is_err()); // ε ≤ 0
}
