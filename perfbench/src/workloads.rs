//! The three workloads: set-up (untimed inputs) and one job each.
//!
//! Every call into the library goes through [`spans::call`], so the
//! traced run sees each layer from outside. Every job checks its own
//! outputs and folds the deterministic ones into an FNV-1a digest.

use std::collections::HashMap;

use sinr_baselines::mst::{centroid_root, mst_bitree};
use sinr_bench::experiments::e13_churn::sample_join_points;
use sinr_connectivity::join::join_nodes;
use sinr_connectivity::latency::audit_bitree;
use sinr_connectivity::repair::{repair_after_failures, PriorStructure};
use sinr_connectivity::selector::MeanSamplingSelector;
use sinr_connectivity::tvc::TvcConfig;
use sinr_connectivity::{connect, detect_failures, DetectConfig, RepackMode, Strategy};
use sinr_geom::{gen, mst, Instance, NodeId};
use sinr_links::{BiTree, InTree, Link, Schedule};
use sinr_phy::{feasibility, packing, PowerAssignment, SinrParams};
use sinr_sim::faults::{stream_seed, FaultPlan};
use sinr_sim::FaultEvent;

use crate::spans;

/// Side of the uniform square per √n, as the experiment harness's
/// `uniform` family uses.
const SPREAD: f64 = 1.5;
/// Crashes per churn batch, followed by one join.
pub const CRASHES_PER_BATCH: usize = 3;
/// Batches per churn job. Batch cost ranges about 6x with the victims
/// and the protocol's draws; a job of several batches averages that
/// out, so the median job settles within one run.
pub const BATCHES_PER_JOB: usize = 4;
/// Crash onsets are spread over this many slots of the detection run.
const CRASH_WINDOW: u64 = 32;

/// Seed of every workload's instance. The instance is fixed; `--seed`
/// drives everything the system randomizes on it (protocol seeds,
/// churn victims, crash onsets, join points). Min-distance
/// normalization makes slot counts of a freshly drawn uniform instance
/// spread by 30–70% across draws (the closest pair and the longest
/// MST edge set the scale), which would swamp any run-to-run bound.
const INSTANCE_SEED: u64 = 1;
const TAG_CONNECT: u64 = 0xBE7C_0001;
const TAG_VICTIM: u64 = 0xBE7C_0002;
const TAG_ONSET: u64 = 0xBE7C_0003;
const TAG_DETECT: u64 = 0xBE7C_0004;
const TAG_REPAIR: u64 = 0xBE7C_0005;
const TAG_JOIN: u64 = 0xBE7C_0006;
const TAG_POINT: u64 = 0xBE7C_0007;

/// FNV-1a, 64 bit.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn schedule(&mut self, s: &Schedule) {
        self.u64(s.len() as u64);
        for (l, slot) in s.iter() {
            self.link(l);
            self.u64(slot as u64);
        }
    }

    fn link(&mut self, l: Link) {
        self.u64(l.sender as u64);
        self.u64(l.receiver as u64);
    }

    fn instance(&mut self, inst: &Instance) {
        self.u64(inst.len() as u64);
        for p in inst.points() {
            self.f64(p.x);
            self.f64(p.y);
        }
    }

    /// Powers of both directions of every tree link, in link order.
    fn powers(&mut self, params: &SinrParams, inst: &Instance, s: &Schedule, p: &PowerAssignment) {
        for (l, _) in s.iter() {
            for dir in [l, l.dual()] {
                self.f64(p.power_of(dir, inst, params).unwrap_or(f64::NAN));
            }
        }
    }
}

/// Which workload a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Pipeline,
    Tvc,
    Churn,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "pipeline-16k" => Some(Kind::Pipeline),
            "tvc-512" => Some(Kind::Tvc),
            "churn-2k" => Some(Kind::Churn),
            _ => None,
        }
    }

    /// Node count of the workload's instance.
    pub fn nodes(self) -> usize {
        match self {
            Kind::Pipeline => 16384,
            Kind::Tvc => 512,
            Kind::Churn => 2048,
        }
    }

    /// Jobs whose outputs make up the deterministic metrics: a fixed
    /// prefix, so the metrics do not depend on how many jobs fit in
    /// the measured time. Every run completes at least this many.
    pub fn deterministic_jobs(self) -> usize {
        match self {
            Kind::Pipeline => 1,
            Kind::Tvc => 5,
            Kind::Churn => 2,
        }
    }

    /// Membership events one job absorbs: building from nothing joins
    /// every node; a churn batch is its crashes plus one join.
    pub fn events_per_job(self, n: usize) -> usize {
        match self {
            Kind::Pipeline | Kind::Tvc => n,
            Kind::Churn => BATCHES_PER_JOB * (CRASHES_PER_BATCH + 1),
        }
    }
}

/// What one job produced, beyond its wall time.
#[derive(Debug)]
pub struct JobOut {
    /// Digest of every deterministic output.
    pub digest: u64,
    /// Aggregation-schedule length of the structure the job left.
    pub schedule_slots: u64,
    /// Distributed running time of the job, in model slots.
    pub runtime_slots: u64,
    /// Per crash: slots from onset to an audited structure. A build
    /// job recovers from an empty network, so it has one entry, its
    /// runtime.
    pub recovery_slots: Vec<u64>,
    /// Slots of the centralized MST packing the job ran (0 if none).
    pub central_slots: u64,
}

/// The live inputs of a run.
#[derive(Clone)]
pub struct State {
    pub kind: Kind,
    pub params: SinrParams,
    pub seed: u64,
    pub inst: Instance,
    /// Slots of the centralized MST packing of the set-up instance
    /// (`tvc-512` and `churn-2k`, which pack it in set-up).
    pub central_slots: u64,
    /// The churned structure (`churn-2k` only).
    pub structure: Option<Structure>,
    /// Digest of the set-up outputs; every repeated set-up must match.
    pub digest: u64,
}

/// A structure the churn loop mutates.
#[derive(Clone)]
pub struct Structure {
    pub tree: InTree,
    pub powers: HashMap<Link, f64>,
    pub schedule: Schedule,
}

impl Structure {
    fn parents(&self) -> Vec<Option<NodeId>> {
        (0..self.tree.len()).map(|u| self.tree.parent(u)).collect()
    }
}

/// Builds the run's inputs: the instance, and for `tvc-512` and
/// `churn-2k` the centrally packed MST structure. `seed` is kept for
/// the jobs.
pub fn setup(kind: Kind, n: usize, seed: u64) -> Result<State, String> {
    let params = SinrParams::default();
    let inst = spans::call("geom.gen", || gen::uniform_square(n, SPREAD, INSTANCE_SEED))
        .map_err(|e| format!("instance generation failed: {e}"))?;
    let mut fnv = Fnv::default();
    fnv.instance(&inst);
    let mut state = State {
        kind,
        params,
        seed,
        inst,
        central_slots: 0,
        structure: None,
        digest: 0,
    };
    if kind != Kind::Pipeline {
        let s = base_structure(&state.params, &state.inst)?;
        state.central_slots = s.schedule.num_slots() as u64;
        fnv.schedule(&s.schedule);
        if kind == Kind::Churn {
            state.structure = Some(s);
        }
    }
    state.digest = fnv.0;
    Ok(state)
}

/// The MST oriented to the centroid, with mean-margin powers for both
/// directions, packed centrally leaf to root.
fn base_structure(params: &SinrParams, inst: &Instance) -> Result<Structure, String> {
    let parents = spans::call("geom.mst", || {
        mst::mst_parent_array(inst, centroid_root(inst))
    });
    let tree = InTree::from_parents(parents).map_err(|e| format!("MST is no in-tree: {e}"))?;
    let formula = PowerAssignment::mean_with_margin(params, inst.delta());
    let mut powers = HashMap::new();
    for l in tree.aggregation_links().iter() {
        for dir in [l, l.dual()] {
            let p = formula
                .power_of(dir, inst, params)
                .map_err(|e| format!("mean power: {e}"))?;
            powers.insert(dir, p);
        }
    }
    let power = PowerAssignment::explicit(powers.clone()).map_err(|e| e.to_string())?;
    let (schedule, bad) = spans::call("phy.packing", || {
        packing::pack_tree_ordered(params, inst, &tree, &power)
    });
    if !bad.is_empty() || schedule.len() + 1 != inst.len() {
        return Err(format!("central packing left {} links out", bad.len()));
    }
    Ok(Structure {
        tree,
        powers,
        schedule,
    })
}

/// Runs job `k` of the workload.
pub fn job(state: &mut State, k: usize) -> Result<JobOut, String> {
    match state.kind {
        Kind::Pipeline => pipeline_job(state, k as u64),
        Kind::Tvc => tvc_job(state, k as u64),
        Kind::Churn => churn_job(state, k as u64),
    }
}

/// `BATCHES_PER_JOB` churn batches, one after the other.
fn churn_job(state: &mut State, k: u64) -> Result<JobOut, String> {
    let mut fnv = Fnv::default();
    let mut out = JobOut {
        digest: 0,
        schedule_slots: 0,
        runtime_slots: 0,
        recovery_slots: Vec::new(),
        central_slots: state.central_slots,
    };
    for b in 0..BATCHES_PER_JOB as u64 {
        let batch = churn_batch(state, k * BATCHES_PER_JOB as u64 + b)?;
        fnv.u64(batch.digest);
        out.schedule_slots = batch.schedule_slots;
        out.runtime_slots += batch.runtime_slots;
        out.recovery_slots.extend(batch.recovery_slots);
    }
    out.digest = fnv.0;
    Ok(out)
}

/// `euclidean_mst` → `mst_bitree` → `connect(InitOnly)` → both
/// directions validated → `audit_bitree`.
fn pipeline_job(state: &State, k: u64) -> Result<JobOut, String> {
    let (params, inst) = (&state.params, &state.inst);
    let n = inst.len();
    let edges = spans::call("geom.mst", || mst::euclidean_mst(inst));
    if edges.len() + 1 != n {
        return Err(format!("MST has {} edges for {n} nodes", edges.len()));
    }
    let mut fnv = Fnv::default();
    for &(a, b) in &edges {
        fnv.u64(a as u64);
        fnv.u64(b as u64);
    }
    let power = PowerAssignment::mean_with_margin(params, inst.delta());
    let central = spans::call("baselines.mst_bitree", || {
        mst_bitree(params, inst, centroid_root(inst), &power)
    });
    if !central.unschedulable.is_empty() || central.schedule.len() + 1 != n {
        return Err("centralized MST packing left links out".into());
    }
    fnv.schedule(&central.schedule);
    let mut out = build_job(state, Strategy::InitOnly, k, &mut fnv)?;
    out.central_slots = central.schedule.num_slots() as u64;
    fnv.u64(out.central_slots);
    out.digest = fnv.0;
    Ok(out)
}

/// `connect(TvcArbitrary)` → both directions validated →
/// `audit_bitree`.
fn tvc_job(state: &State, k: u64) -> Result<JobOut, String> {
    let mut fnv = Fnv::default();
    let mut out = build_job(state, Strategy::TvcArbitrary, k, &mut fnv)?;
    out.central_slots = state.central_slots;
    out.digest = fnv.0;
    Ok(out)
}

/// `connect` with `strategy`, then the checks every build job runs.
fn build_job(state: &State, strategy: Strategy, k: u64, fnv: &mut Fnv) -> Result<JobOut, String> {
    let (params, inst) = (&state.params, &state.inst);
    let n = inst.len();
    let r = spans::call("core.api.connect", || {
        connect(
            params,
            inst,
            strategy,
            stream_seed(state.seed ^ TAG_CONNECT, k),
        )
    })
    .map_err(|e| format!("connect failed: {e}"))?;
    if r.tree_links.len() + 1 != n {
        return Err(format!(
            "connect spans {} links for {n} nodes",
            r.tree_links.len()
        ));
    }
    let bitree = r.bitree.as_ref().ok_or("connect returned no bi-tree")?;
    audit(params, inst, &r.aggregation_schedule, bitree, &r.power)?;
    fnv.schedule(&r.aggregation_schedule);
    fnv.schedule(&r.dissemination_schedule);
    fnv.powers(params, inst, &r.aggregation_schedule, &r.power);
    fnv.u64(r.schedule_len as u64);
    fnv.u64(r.runtime_slots);
    Ok(JobOut {
        digest: 0,
        schedule_slots: r.schedule_len as u64,
        runtime_slots: r.runtime_slots,
        recovery_slots: vec![r.runtime_slots],
        central_slots: 0,
    })
}

/// Both schedule directions SINR-feasible, and the Definition 1
/// delivery replay reaches every node.
fn audit(
    params: &SinrParams,
    inst: &Instance,
    schedule: &Schedule,
    bitree: &BiTree,
    power: &PowerAssignment,
) -> Result<(), String> {
    let dual = schedule
        .map_links(Link::dual)
        .map_err(|e| format!("tree links lack distinct duals: {e}"))?;
    for (dir, s) in [("aggregation", schedule), ("dissemination", &dual)] {
        spans::call("phy.feasibility.validate", || {
            feasibility::validate_schedule(params, inst, s, power)
        })
        .map_err(|e| format!("{dir} schedule infeasible: {e}"))?;
    }
    let (up, down) = spans::call("core.latency.audit", || {
        audit_bitree(params, inst, bitree, power)
    })
    .map_err(|e| format!("delivery audit failed: {e}"))?;
    if !(up.all_delivered && down.all_reached) {
        return Err("delivery audit: not every node delivered and reached".into());
    }
    Ok(())
}

/// One churn batch: detectable, tree-independent crashes → timeout
/// detection → incremental repair → audit → one join → audit.
fn churn_batch(state: &mut State, batch: u64) -> Result<JobOut, String> {
    let params = state.params;
    let seed = state.seed;
    let s = state
        .structure
        .as_ref()
        .ok_or("churn state has no structure")?;
    let inst = &state.inst;
    let tvc = TvcConfig {
        repack: RepackMode::Incremental,
        ..TvcConfig::default()
    };
    let detect_cfg = DetectConfig {
        miss_threshold: 2,
        max_backoff_exp: 1,
        max_rounds: 8,
        ..DetectConfig::default()
    };

    // Victims: uniform over non-root nodes with a child, pairwise
    // tree-independent, so each crash has a live child to declare it
    // and a live parent to reattach under.
    let eligible: Vec<NodeId> = (0..s.tree.len())
        .filter(|&u| u != s.tree.root() && !s.tree.children(u).is_empty())
        .collect();
    let mut victims: Vec<(NodeId, u64)> = Vec::new();
    for i in 0..CRASHES_PER_BATCH as u64 {
        let stream = batch * 16 + i;
        let mut at = (stream_seed(seed ^ TAG_VICTIM, stream) % eligible.len() as u64) as usize;
        let chosen = (0..eligible.len()).find_map(|_| {
            let c = eligible[at];
            let independent = victims.iter().all(|&(v, _)| {
                v != c && s.tree.parent(c) != Some(v) && s.tree.parent(v) != Some(c)
            });
            at = (at + 1) % eligible.len();
            independent.then_some(c)
        });
        let v = chosen.ok_or("no tree-independent victim left")?;
        victims.push((v, stream_seed(seed ^ TAG_ONSET, stream) % CRASH_WINDOW));
    }
    let mut plan = FaultPlan::new(inst.len(), stream_seed(seed, batch));
    for &(v, at) in &victims {
        plan.push(v, FaultEvent::CrashStop { at });
    }
    let parents = s.parents();
    let prior = PriorStructure {
        parents: &parents,
        powers: &s.powers,
        schedule: &s.schedule,
    };
    let detection = spans::call("core.detect", || {
        detect_failures(
            &params,
            inst,
            &prior,
            &plan,
            &detect_cfg,
            stream_seed(seed ^ TAG_DETECT, batch),
        )
    })
    .map_err(|e| format!("detection failed: {e}"))?;
    spans::add("core.detect.slots", detection.slots_used as f64);
    let mut expected: Vec<NodeId> = victims.iter().map(|&(v, _)| v).collect();
    expected.sort_unstable();
    if detection.suspects != expected {
        return Err(format!(
            "detector suspected {:?}, victims were {expected:?}",
            detection.suspects
        ));
    }
    let last_declared = detection
        .detections
        .iter()
        .map(|d| d.slot)
        .max()
        .ok_or("no declaration recorded")?;
    let detect_slots = last_declared + detection.cycle_slots;

    let mut sel = MeanSamplingSelector::default();
    let repaired = spans::call("core.repair", || {
        repair_after_failures(
            &params,
            inst,
            &prior,
            &detection.suspects,
            &tvc,
            &mut sel,
            stream_seed(seed ^ TAG_REPAIR, batch),
        )
    })
    .map_err(|e| format!("repair failed: {e}"))?;
    spans::add("core.repair.slots", repaired.runtime_slots as f64);
    audit(
        &params,
        &repaired.instance,
        &repaired.schedule,
        &repaired.bitree,
        &repaired.power,
    )?;
    if repaired.instance.len() + CRASHES_PER_BATCH != inst.len() {
        return Err("repair did not drop exactly the victims".into());
    }
    let recovery_slots = victims
        .iter()
        .map(|&(_, at)| detect_slots - at + repaired.runtime_slots)
        .collect();
    let repaired_powers = repaired
        .power
        .as_explicit()
        .ok_or("repair assigned no explicit powers")?;

    let point = spans::call("bench.join_point", || {
        sample_join_points(&repaired.instance, 1, stream_seed(seed ^ TAG_POINT, batch))[0]
    });
    let parents: Vec<Option<NodeId>> = (0..repaired.tree.len())
        .map(|u| repaired.tree.parent(u))
        .collect();
    let prior = PriorStructure {
        parents: &parents,
        powers: repaired_powers,
        schedule: &repaired.schedule,
    };
    let mut sel = MeanSamplingSelector::default();
    let joined = spans::call("core.join", || {
        join_nodes(
            &params,
            &repaired.instance,
            &prior,
            &[point],
            &tvc,
            &mut sel,
            stream_seed(seed ^ TAG_JOIN, batch),
        )
    })
    .map_err(|e| format!("join failed: {e}"))?;
    spans::add("core.join.slots", joined.runtime_slots as f64);
    audit(
        &params,
        &joined.instance,
        &joined.schedule,
        &joined.bitree,
        &joined.power,
    )?;
    if joined.attached != 1 || joined.schedule.len() + 1 != joined.instance.len() {
        return Err("join did not attach the new node with one link".into());
    }
    spans::add(
        "core.repack.ms",
        (repaired.repack.pack_seconds + joined.repack.pack_seconds) * 1e3,
    );
    spans::add(
        "core.repack.repacked_fraction",
        (repaired.repack.repacked_links + joined.repack.repacked_links) as f64
            / (repaired.repack.total_links + joined.repack.total_links).max(1) as f64,
    );

    let mut fnv = Fnv::default();
    for &(v, at) in &victims {
        fnv.u64(v as u64);
        fnv.u64(at);
    }
    fnv.u64(detection.slots_used);
    fnv.u64(repaired.runtime_slots);
    fnv.u64(joined.runtime_slots);
    fnv.instance(&joined.instance);
    fnv.schedule(&joined.schedule);
    fnv.powers(&params, &joined.instance, &joined.schedule, &joined.power);
    let out = JobOut {
        digest: fnv.0,
        schedule_slots: joined.schedule.num_slots() as u64,
        runtime_slots: detect_slots + repaired.runtime_slots + joined.runtime_slots,
        recovery_slots,
        central_slots: state.central_slots,
    };
    state.structure = Some(Structure {
        tree: joined.tree,
        powers: joined
            .power
            .as_explicit()
            .ok_or("join assigned no explicit powers")?
            .clone(),
        schedule: joined.schedule,
    });
    state.inst = joined.instance;
    Ok(out)
}
