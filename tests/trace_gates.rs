//! Acceptance gates of the observability layer (DESIGN.md §11):
//!
//! 1. recording is *observational* — a run with the event recorder and
//!    the phase registry running produces the same artifacts as a plain
//!    one, byte for byte, on the serial and the pooled engine;
//! 2. a deliberately perturbed run is caught by the first-divergence
//!    reporter, which names the exact slot, node, event kind and field;
//! 3. the engine backends produce identical event streams (the
//!    determinism contract, restated at event granularity);
//! 4. a mid-run snapshot resumes — under a *different* backend — to a
//!    bit-identical tail fingerprint;
//! 5. the robustness pipeline (DESIGN.md §13) narrates itself: one
//!    traced serve batch records `FaultInjected`, `FailureSuspected`
//!    and `RecoveryComplete` events whose counts tie out against the
//!    serve report, and the stream is backend-invariant.

use rand::rngs::StdRng;
use sinr_connect_suite::connectivity::init::{
    resume_init, run_init, run_init_with_snapshot, InitConfig,
};
use sinr_connect_suite::geom::gen;
use sinr_connect_suite::geom::NodeId;
use sinr_connect_suite::phy::SinrParams;
use sinr_connect_suite::sim::profile;
use sinr_connect_suite::sim::trace::{self, TraceEvent, TraceLog};
use sinr_connect_suite::sim::{Action, Engine, EngineBackend, Protocol, SlotOutcome};

fn params() -> SinrParams {
    SinrParams::default()
}

/// Both observability layers at once — the event recorder and the
/// phase registry — leave `Init` untouched on the serial and the pooled
/// engine, while each captures something. 96 nodes keep the pooled
/// loop above its serial cut-over for the first slots.
#[test]
fn tracing_is_observational() {
    let instance = gen::uniform_square(96, 1.5, 5).unwrap();
    for backend in [EngineBackend::Grid, EngineBackend::Parallel(2)] {
        let cfg = InitConfig {
            backend,
            ..Default::default()
        };
        let plain = run_init(&params(), &instance, &cfg, 9).unwrap();

        trace::start(trace::DEFAULT_CAPACITY);
        profile::start();
        let traced = run_init(&params(), &instance, &cfg, 9).unwrap();
        let report = profile::stop();
        let log = trace::stop();

        assert!(
            !log.events.is_empty(),
            "{backend:?}: a traced run must record events"
        );
        let laps = report.phase("build").map_or(0, |s| s.count);
        assert_eq!(
            laps, plain.run.slots_used,
            "{backend:?}: one build lap per slot"
        );
        assert!(
            report.phase("resolve").is_some(),
            "{backend:?}: no resolve phase"
        );
        assert_eq!(plain.run.parents, traced.run.parents, "{backend:?}");
        assert_eq!(plain.run.slots_used, traced.run.slots_used, "{backend:?}");
        assert_eq!(plain.run.link_slots, traced.run.link_slots, "{backend:?}");
        assert_eq!(plain.schedule, traced.schedule, "{backend:?}");
    }
}

#[test]
fn backends_produce_identical_event_streams() {
    let instance = gen::uniform_square(36, 1.5, 2).unwrap();
    let mut logs = Vec::new();
    for backend in [EngineBackend::Naive, EngineBackend::Grid] {
        let cfg = InitConfig {
            backend,
            ..Default::default()
        };
        trace::start(trace::DEFAULT_CAPACITY);
        run_init(&params(), &instance, &cfg, 4).unwrap();
        logs.push(trace::stop());
    }
    assert!(
        trace::first_divergence(&logs[0], &logs[1]).is_none(),
        "naive and grid backends must emit identical event streams"
    );
}

/// Transmits with power `base`, except node `victim` at slot `flip`
/// transmits with `base + 1` — the controlled fault the divergence
/// reporter must localize.
#[derive(Debug)]
struct Perturb {
    id: NodeId,
    base: f64,
    victim: NodeId,
    flip: Option<u64>,
}

impl Protocol for Perturb {
    type Msg = ();

    fn begin_slot(&mut self, _node: NodeId, slot: u64, _rng: &mut StdRng) -> Action<()> {
        let mut power = self.base;
        if self.flip == Some(slot) && self.id == self.victim {
            power += 1.0;
        }
        // Even ids transmit, odd ids listen, so receptions occur too.
        if self.id % 2 == 0 {
            Action::Transmit { power, msg: () }
        } else {
            Action::Listen
        }
    }

    fn end_slot(
        &mut self,
        _node: NodeId,
        _slot: u64,
        _outcome: SlotOutcome<()>,
        _rng: &mut StdRng,
    ) {
    }
}

fn perturbed_run(flip: Option<u64>) -> TraceLog {
    let params = params();
    let instance = gen::uniform_square(12, 1.5, 3).unwrap();
    trace::start(trace::DEFAULT_CAPACITY);
    let mut engine = Engine::new(
        &params,
        &instance,
        |id| Perturb {
            id,
            base: 8.0,
            victim: 4,
            flip,
        },
        11,
    );
    engine.run(6);
    trace::stop()
}

#[test]
fn forced_divergence_names_slot_node_and_field() {
    let clean = perturbed_run(None);
    let flipped = perturbed_run(Some(3));

    let d = trace::first_divergence(&clean, &flipped)
        .expect("a perturbed power must register as a divergence");
    assert_eq!(d.slot, Some(3), "wrong slot: {d}");
    assert_eq!(d.node, Some(4), "wrong node: {d}");
    assert_eq!(d.kind, "transmit", "wrong event kind: {d}");
    assert_eq!(d.field, "power", "wrong field: {d}");
    let rendered = d.to_string();
    for needle in ["slot 3", "node 4", "transmit", "`power`"] {
        assert!(
            rendered.contains(needle),
            "report `{rendered}` lacks `{needle}`"
        );
    }

    // And the controlled fault is the *only* divergence: both runs agree
    // again once the transmit events of slot 3 pass.
    assert!(trace::first_divergence(&clean, &clean).is_none());
}

#[test]
fn perturbation_shows_up_in_slot_digests_too() {
    // The ring buffer may evict raw events on long runs; the per-slot
    // digest must still carry the divergence. Check the digests of the
    // perturbed slot differ while earlier ones agree.
    let clean = perturbed_run(None);
    let flipped = perturbed_run(Some(3));
    let digests = |log: &TraceLog| -> Vec<(u64, u64)> {
        log.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SlotDigest {
                    slot, outcomes_fnv, ..
                } => Some((*slot, *outcomes_fnv)),
                _ => None,
            })
            .collect()
    };
    let (a, b) = (digests(&clean), digests(&flipped));
    assert_eq!(a.len(), b.len());
    for (&(slot, fa), &(_, fb)) in a.iter().zip(&b) {
        if slot < 3 {
            assert_eq!(fa, fb, "pre-fault slot {slot} digest diverged");
        }
    }
    assert_ne!(
        a[3].1, b[3].1,
        "the perturbed slot's outcome digest must differ"
    );
}

#[test]
fn snapshot_resumes_to_a_bit_identical_tail_under_another_backend() {
    let instance = gen::uniform_square(30, 1.5, 8).unwrap();
    let grid = InitConfig {
        backend: EngineBackend::Grid,
        ..Default::default()
    };
    let replay = run_init_with_snapshot(&params(), &instance, &grid, 13, 12).unwrap();
    let snapshot = replay
        .snapshot
        .expect("slot 12 lies inside the run; a snapshot must exist");

    let naive = InitConfig {
        backend: EngineBackend::Naive,
        ..Default::default()
    };
    let (outcome, tail_fnv) = resume_init(&params(), &instance, &naive, &snapshot).unwrap();
    assert_eq!(
        tail_fnv, replay.tail_fnv,
        "resumed tail fingerprint must match the original bit-for-bit"
    );
    assert_eq!(outcome.run.parents, replay.outcome.run.parents);
    assert_eq!(outcome.run.slots_used, replay.outcome.run.slots_used);
}

/// One traced serve trace, returning the log and the serve report.
fn traced_serve(backend: EngineBackend) -> (TraceLog, sinr_bench::serve::ServeReport) {
    use sinr_bench::serve::{serve, ServeConfig};
    use sinr_connect_suite::connectivity::DetectConfig;

    let instance = gen::uniform_square(96, 1.5, 43).unwrap();
    let cfg = ServeConfig {
        events: 4,
        detect: DetectConfig {
            backend,
            ..ServeConfig::default().detect
        },
        ..ServeConfig::default()
    };
    trace::start(trace::DEFAULT_CAPACITY);
    let report = serve(&params(), &instance, &cfg, 77).unwrap();
    (trace::stop(), report)
}

#[test]
fn fault_events_narrate_the_serve_loop_and_tie_out() {
    let (log, report) = traced_serve(EngineBackend::Grid);

    let count = |pred: fn(&TraceEvent) -> bool| log.events.iter().filter(|e| pred(e)).count();
    let injected = count(|e| matches!(e, TraceEvent::FaultInjected { .. }));
    let suspected = count(|e| matches!(e, TraceEvent::FailureSuspected { .. }));
    let recovered = count(|e| matches!(e, TraceEvent::RecoveryComplete { .. }));

    // Every crash activates in the engine at least once per detect run.
    assert!(
        injected >= report.faults,
        "{} crash faults served but only {injected} FaultInjected events",
        report.faults
    );
    // Every victim has ≥1 surviving declaring child (eligibility), and
    // the serve loop asserts exact coverage — so declarations ≥ faults.
    assert!(
        suspected >= report.faults,
        "{} crash faults served but only {suspected} FailureSuspected events",
        report.faults
    );
    // Exactly one RecoveryComplete per fault batch (join-only batches
    // recover nothing).
    assert!(
        recovered >= 1 && recovered <= report.batches,
        "{recovered} RecoveryComplete events for {} batches",
        report.batches
    );
    // The narrated batches carry the same detection-phase slot counts
    // the latency columns are computed from: all positive, and the
    // batch sizes sum to the served fault count.
    let narrated_faults: usize = log
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RecoveryComplete {
                batch,
                detection_slots,
                repair_slots,
                ..
            } => {
                assert!(*detection_slots > 0, "detection phase cannot be free");
                assert!(*repair_slots > 0, "repair phase cannot be free");
                Some(*batch)
            }
            _ => None,
        })
        .sum();
    assert_eq!(
        narrated_faults, report.faults,
        "RecoveryComplete batch sizes must sum to the served fault count"
    );
}

#[test]
fn fault_event_streams_are_backend_invariant() {
    let (grid, _) = traced_serve(EngineBackend::Grid);
    let (naive, _) = traced_serve(EngineBackend::Naive);
    assert!(
        trace::first_divergence(&grid, &naive).is_none(),
        "grid and naive serve runs must emit identical event streams"
    );
}
