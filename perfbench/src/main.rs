//! End-to-end benchmark of the sinr-connect workspace.
//!
//! ```text
//! perfbench --workload <pipeline-16k|tvc-512|churn-2k> --seed <n>
//!           --seconds <s> --trace <0|1> [--nodes <n>] [--spans-out <path>]
//! ```
//!
//! One closed loop with one client: set-up builds the workload's inputs
//! (repeated; its median is `setup_s`), then jobs run back to back
//! while the next one is expected to end within `--seconds`. Job `k`
//! draws its randomness from `(--seed, k)`. Every job checks its
//! outputs; a failed check counts the job as failed. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` runs every job untraced
//! and traced on the same input and prints the per-layer metrics, with
//! the tracing overhead as the median difference. `--nodes` shrinks
//! the instance for the self-test. The last stdout line is the result
//! object; the line before it carries the run's fingerprint and the
//! deterministic counts of its fixed job prefix.

mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use workloads::{Fnv, JobOut, Kind};

/// Set-up repeats at least this often and for at least
/// `SETUP_MIN_SECONDS`; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 2.0;
const SETUP_MAX_REPS: usize = 1000;
/// A traced run times at least this many untraced/traced job pairs, so
/// the overhead is a median of several.
const TRACE_MIN_PAIRS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    nodes: Option<usize>,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        nodes: None,
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--nodes" => args.nodes = Some(value.parse().map_err(|e| bad(&e))?),
            "--spans-out" => args.spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Median of a non-empty sample (mean of the middle two for even
/// counts).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.is_empty() {
        0.0
    } else if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Returns whether every check passed.
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let kind =
        Kind::parse(&args.workload).ok_or(format!("unknown workload {:?}", args.workload))?;
    let n = args.nodes.unwrap_or(kind.nodes());
    let mut correct = true;

    // Set-up, repeated: every repetition must build the same inputs.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut state = setup_once(kind, n, &args, &mut setup_s)?;
    let setup_start = Instant::now();
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.len() < SETUP_MAX_REPS
            && setup_start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS)
    {
        correct &= setup_once(kind, n, &args, &mut setup_s)?.digest == state.digest;
    }
    let n0 = state.inst.len();

    // The closed loop. A traced run runs every job twice on the same
    // input, untraced and traced, in alternating order, and keeps the
    // traced output: the overhead is measured on identical work.
    let det_jobs = kind.deterministic_jobs();
    let min_jobs = if args.trace {
        det_jobs.max(TRACE_MIN_PAIRS)
    } else {
        det_jobs
    };
    let mut times: Vec<f64> = Vec::new();
    let mut traced_times: Vec<f64> = Vec::new();
    let mut outs: Vec<JobOut> = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let loop_start = Instant::now();
    // Start a job only while it is expected to end within the
    // measured time.
    while attempted < min_jobs
        || loop_start.elapsed().as_secs_f64() + median(&times) + median(&traced_times)
            <= args.seconds
    {
        let k = attempted;
        attempted += 1;
        spans::set_unit(format!("job.{k}"));
        let result = if args.trace {
            let mut twin = state.clone();
            let (plain, traced) = if k % 2 == 0 {
                let plain = timed_job(&mut twin, k, false);
                (plain, timed_job(&mut state, k, true))
            } else {
                let traced = timed_job(&mut state, k, true);
                (timed_job(&mut twin, k, false), traced)
            };
            match (plain, traced) {
                ((Ok(p), dp), (Ok(t), dt)) if p.digest == t.digest => {
                    times.push(dp);
                    traced_times.push(dt);
                    Ok(t)
                }
                ((Ok(_), _), (Ok(_), _)) => Err("traced output differs from untraced".into()),
                ((Err(e), _), _) | (_, (Err(e), _)) => Err(e),
            }
        } else {
            let (out, dt) = timed_job(&mut state, k, false);
            out.inspect(|_| times.push(dt))
        };
        match result {
            Ok(out) if outs.len() < det_jobs => outs.push(out),
            Ok(_) => {}
            Err(e) => {
                eprintln!("perfbench: job {k} failed: {e}");
                failed += 1;
            }
        }
    }
    correct &= failed == 0 && outs.len() == det_jobs && !times.is_empty();

    // Deterministic outputs of the fixed job prefix. The set-up digest
    // goes first, so a changed input shows even when every job output
    // matched.
    let mut fnv = Fnv::default();
    fnv.u64(state.digest);
    for o in &outs {
        fnv.u64(o.digest);
    }
    let mean = |f: fn(&JobOut) -> u64| {
        outs.iter().map(|o| f(o) as f64).sum::<f64>() / outs.len().max(1) as f64
    };
    let mut recovery: Vec<u64> = outs.iter().flat_map(|o| o.recovery_slots.clone()).collect();
    recovery.sort_unstable();
    let recovery_p50 = recovery
        .get(recovery.len().div_ceil(2).saturating_sub(1))
        .copied()
        .unwrap_or(0);
    let recovery_max = recovery.last().copied().unwrap_or(0);
    let job_s_p50 = median(&times);

    let mut det = BTreeMap::new();
    det.insert("schedule_slots", mean(|o| o.schedule_slots));
    det.insert("central_slots", mean(|o| o.central_slots));
    det.insert("runtime_slots", mean(|o| o.runtime_slots));
    det.insert("recovery_slots_p50", recovery_p50 as f64);
    det.insert("recovery_slots_max", recovery_max as f64);

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let mut m = per_layer(&times, &traced_times);
        // Slot counts dominated by protocol randomness: too spread
        // across seeds for a bound, so they are tracked here, unbounded.
        for name in ["runtime_slots", "recovery_slots_p50", "recovery_slots_max"] {
            m.push((format!("model.{name}"), det[name], "slots"));
        }
        m
    } else {
        let per_s = |count: usize| {
            if job_s_p50 > 0.0 {
                count as f64 / job_s_p50
            } else {
                0.0
            }
        };
        let mut m = vec![
            ("job_s_p50".to_string(), job_s_p50, "s"),
            ("nodes_per_s".into(), per_s(n0), "1/s"),
            ("events_per_s".into(), per_s(kind.events_per_job(n0)), "1/s"),
        ];
        for name in ["schedule_slots", "central_slots"] {
            m.push((name.to_string(), det[name], "slots"));
        }
        m.push(("setup_s".into(), median(&setup_s), "s"));
        m.push(("peak_rss_mb".into(), peak_rss_mb(), "MiB"));
        m
    };

    if let Some(path) = &args.spans_out {
        spans::write_json(path).map_err(|e| format!("writing {path}: {e}"))?;
    }

    let det_json: Vec<String> = det.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    let list = |xs: &[f64]| xs.iter().map(f64::to_string).collect::<Vec<_>>().join(", ");
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"nodes\": {n0}, \"jobs\": {attempted}, \
         \"fail_rate\": {}, \"fingerprint\": \"{:016x}\", \"deterministic\": {{{}}}, \
         \"setup_s\": [{}], \"job_s\": [{}], \"traced_job_s\": [{}]}}",
        args.workload,
        args.seed,
        failed as f64 / attempted as f64,
        fnv.0,
        det_json.join(", "),
        list(&setup_s),
        list(&times),
        list(&traced_times),
    );
    let metric_json: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metric_json.join(", ")
    );
    Ok(correct)
}

/// Builds the workload's inputs once, recording spans in a traced run,
/// and appends the seconds it took to `setup_s`.
fn setup_once(
    kind: Kind,
    n: usize,
    args: &Args,
    setup_s: &mut Vec<f64>,
) -> Result<workloads::State, String> {
    spans::set_enabled(args.trace);
    spans::set_unit(format!("setup.{}", setup_s.len()));
    let t0 = Instant::now();
    let state = workloads::setup(kind, n, args.seed);
    setup_s.push(t0.elapsed().as_secs_f64());
    spans::set_enabled(false);
    state
}

/// Runs job `k` with span recording on or off; returns its output and
/// wall seconds.
fn timed_job(
    state: &mut workloads::State,
    k: usize,
    traced: bool,
) -> (Result<JobOut, String>, f64) {
    spans::set_enabled(traced);
    let t0 = Instant::now();
    let result = spans::time("bench.job", || workloads::job(state, k));
    let dt = t0.elapsed().as_secs_f64();
    spans::set_enabled(false);
    (result, dt)
}

/// The per-layer metrics of a traced run: for each layer, the median
/// over the units (set-ups or traced jobs) that called it of its
/// per-unit self time or count; 0 when no unit called it. The tracing
/// overhead is the median over jobs of traced minus untraced seconds
/// of the same job.
fn per_layer(untraced: &[f64], traced: &[f64]) -> Vec<(String, f64, &'static str)> {
    let self_ms = spans::self_ms_by_unit();
    let counts = spans::counts_by_unit();
    let mut units: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    for (unit, spans) in &self_ms {
        let u = units.entry(unit.clone()).or_default();
        for (name, ms) in spans {
            u.insert(format!("{name}.ms"), *ms);
        }
    }
    for (unit, cs) in &counts {
        let u = units.entry(unit.clone()).or_default();
        for (name, v) in cs {
            u.insert(name.clone(), *v);
        }
    }
    for u in units.values_mut() {
        if let (Some(&ms), Some(&slots)) = (u.get("core.api.connect.ms"), u.get("sim.engine.slots"))
        {
            u.insert("core.api.connect.slots".into(), slots);
            u.insert(
                "core.api.connect.us_per_slot".into(),
                ms * 1e3 / slots.max(1.0),
            );
        }
        if let (Some(&c), Some(&q)) = (u.get("phy.field.certified"), u.get("phy.field.queries")) {
            u.insert("phy.field.certified_ratio".into(), c / q.max(1.0));
        }
    }
    let over = |name: &str| -> f64 {
        let xs: Vec<f64> = units
            .values()
            .filter_map(|u| u.get(name).copied())
            .collect();
        median(&xs)
    };
    let mut out: Vec<(String, f64, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), over(name), unit))
        .collect();
    let diff: Vec<f64> = traced.iter().zip(untraced).map(|(t, u)| t - u).collect();
    let pct: Vec<f64> = diff
        .iter()
        .zip(untraced)
        .map(|(d, u)| 100.0 * d / u)
        .collect();
    out.push(("trace.overhead.ms".into(), median(&diff) * 1e3, "ms"));
    out.push(("trace.overhead.pct".into(), median(&pct), "%"));
    out
}

/// Every per-layer metric a traced run prints, with its unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("bench.job.ms", "ms"),
    ("geom.gen.ms", "ms"),
    ("geom.mst.ms", "ms"),
    ("baselines.mst_bitree.ms", "ms"),
    ("phy.packing.ms", "ms"),
    ("core.api.connect.ms", "ms"),
    ("core.api.connect.slots", "slots"),
    ("core.api.connect.us_per_slot", "us"),
    ("phy.feasibility.validate.ms", "ms"),
    ("core.latency.audit.ms", "ms"),
    ("core.detect.ms", "ms"),
    ("core.detect.slots", "slots"),
    ("core.repair.ms", "ms"),
    ("core.repair.slots", "slots"),
    ("core.join.ms", "ms"),
    ("core.join.slots", "slots"),
    ("core.repack.ms", "ms"),
    ("core.repack.repacked_fraction", "ratio"),
    ("sim.engine.slots", "slots"),
    ("sim.engine.build.ms", "ms"),
    ("sim.engine.grid.ms", "ms"),
    ("sim.engine.resolve.ms", "ms"),
    ("sim.engine.merge.ms", "ms"),
    ("phy.field.near_field.ms", "ms"),
    ("phy.field.far_field_cert.ms", "ms"),
    ("phy.field.fallback.ms", "ms"),
    ("phy.field.queries", "count"),
    ("phy.field.certified", "count"),
    ("phy.field.fallbacks", "count"),
    ("phy.field.rings", "count"),
    ("phy.field.certified_ratio", "ratio"),
];
