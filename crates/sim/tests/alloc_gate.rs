//! Allocation gate for the per-slot hot path (DESIGN.md §12).
//!
//! The engine owns a `SlotArena` of recycled buffers — action and
//! outcome vectors, the transmitter list, the interference field's
//! `FieldBuffers` — so after a warm-up slot has sized every buffer, a
//! steady-state slot on the serial grid path performs **zero** heap
//! allocations. This test pins that with a counting global allocator:
//! it is the hook that keeps "arena-recycled" an enforced property
//! instead of a comment.
//!
//! Debug builds are exempted from the zero bound (but still bounded):
//! `InterferenceField::build_with` runs a `debug_assert!` that collects
//! the sender ids into a `HashSet` to reject duplicates, which
//! allocates a few times per slot by design. Release builds compile
//! that check out, and the release gate is the one CI's tier-1 job
//! enforces (`cargo test --release`).
//!
//! The same bound holds while nodes declare themselves dormant: the
//! engine's roster of awake nodes is pruned in place and recycled with
//! the slot's buffers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use sinr_geom::{gen, NodeId};
use sinr_phy::SinrParams;
use sinr_sim::{Action, Engine, EngineBackend, Protocol, SlotOutcome};

/// Counts every allocation and reallocation on the calling thread;
/// frees are not counted — the gate is about acquiring memory in the
/// steady state. Per-thread, so the cases can run concurrently.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: the allocator may run while the thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Deterministic rotating transmitter pattern with a unit message: the
/// transmitter set changes every slot (so the grid genuinely rebuilds)
/// without touching the RNG or allocating in the protocol itself.
#[derive(Debug)]
struct Rotor;

impl Protocol for Rotor {
    type Msg = ();

    fn begin_slot(&mut self, node: NodeId, slot: u64, _: &mut StdRng) -> Action<()> {
        if (node + slot as usize) % 5 == 0 {
            Action::Transmit {
                power: 600.0,
                msg: (),
            }
        } else {
            Action::Listen
        }
    }

    fn end_slot(&mut self, _: NodeId, _: u64, _: SlotOutcome<()>, _: &mut StdRng) {}
}

/// [`Rotor`] that retires for good at the end of slot `retire_at - 1`
/// and declares itself dormant from then on.
#[derive(Debug)]
struct Retiring {
    retire_at: u64,
    retired: bool,
}

impl Protocol for Retiring {
    type Msg = ();

    fn dormant(&self) -> bool {
        self.retired
    }

    fn begin_slot(&mut self, node: NodeId, slot: u64, rng: &mut StdRng) -> Action<()> {
        Rotor.begin_slot(node, slot, rng)
    }

    fn end_slot(&mut self, _: NodeId, slot: u64, _: SlotOutcome<()>, _: &mut StdRng) {
        self.retired = slot + 1 >= self.retire_at;
    }
}

/// Asserts the allocation bound for `slots` slots of `engine` after
/// warm-up: zero in release, a per-slot budget in debug (see the
/// module docs).
fn assert_steady<P: Protocol>(engine: &mut Engine<'_, P>, slots: u64) {
    let before = allocs();
    engine.run(slots);
    let delta = allocs() - before;

    if cfg!(debug_assertions) {
        // The duplicate-sender debug_assert builds a HashSet per field
        // build; allow it a generous handful of allocations per slot.
        let budget = slots * 16;
        assert!(
            delta <= budget,
            "debug steady state allocated {delta} times in {slots} slots (budget {budget})"
        );
    } else {
        assert_eq!(
            delta, 0,
            "release steady state allocated {delta} times in {slots} slots; \
             a per-slot buffer escaped the SlotArena"
        );
    }
}

#[test]
fn steady_state_slots_do_not_allocate() {
    let params = SinrParams::default();
    let inst = gen::uniform_square(256, 1.5, 11).unwrap();
    let mut engine = Engine::with_backend(&params, &inst, |_| Rotor, 11, EngineBackend::Grid);

    // Warm-up: size every arena buffer. The rotation period is 5, so 5
    // slots see every transmitter-set size the pattern produces.
    engine.run(5);

    assert_steady(&mut engine, 20);
}

/// Nodes leaving the roster mid-run cost no allocation either: the
/// roster is pruned in place and travels with the slot's buffers.
#[test]
fn nodes_going_dormant_mid_run_do_not_allocate() {
    let params = SinrParams::default();
    let inst = gen::uniform_square(256, 1.5, 12).unwrap();
    // Every node is awake through the warm-up; a quarter never retires
    // and the rest retire one by one across the measured window.
    let mut engine = Engine::with_backend(
        &params,
        &inst,
        |id| Retiring {
            retire_at: if id % 4 == 0 {
                u64::MAX
            } else {
                6 + id as u64 % 18
            },
            retired: false,
        },
        12,
        EngineBackend::Grid,
    );
    engine.run(5);
    assert_eq!(engine.awake(), inst.len(), "no node retires during warm-up");
    assert_steady(&mut engine, 20);
    assert_eq!(
        engine.awake(),
        inst.len() / 4,
        "three quarters went dormant"
    );
}
