//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the library's public
//! functions, never inside the library: each records its name, start,
//! end, the enclosing span and the unit (one set-up or one job) it
//! belongs to. Recording is off unless [`set_enabled`] turned it on,
//! and an off recorder only runs the wrapped closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub unit: String,
}

struct Recorder {
    enabled: bool,
    origin: Instant,
    unit: String,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<String, BTreeMap<String, f64>>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        origin: Instant::now(),
        unit: String::new(),
        spans: Vec::new(),
        open: Vec::new(),
        counts: BTreeMap::new(),
    });
}

/// Turns recording on or off for the spans that follow.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().enabled = on);
}

/// Names the unit the spans that follow belong to (`setup.0`, `job.3`).
pub fn set_unit(unit: String) {
    REC.with(|r| r.borrow_mut().unit = unit);
}

/// Whether recording is on.
#[cfg(feature = "profile")]
fn enabled() -> bool {
    REC.with(|r| r.borrow().enabled)
}

/// Adds `value` to the counter `name` of the current unit when
/// recording is on.
pub fn add(name: &str, value: f64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            let unit = r.unit.clone();
            *r.counts
                .entry(unit)
                .or_default()
                .entry(name.to_string())
                .or_default() += value;
        }
    });
}

/// Runs `f` inside a span called `name` and, in the traced variant,
/// folds the simulator phases it ran into the current unit's counters
/// (`sim.engine.*`, with `sim.engine.slots` the slots the call stepped,
/// and `phy.field.*`).
pub fn call<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    #[cfg(feature = "profile")]
    if enabled() {
        sinr_sim::profile::start();
        let out = time(name, f);
        let report = sinr_sim::profile::stop();
        for (phase, stats) in &report.phases {
            let metric = match *phase {
                "build" | "grid" | "resolve" | "merge" => format!("sim.engine.{phase}.ms"),
                "near-field" => "phy.field.near_field.ms".into(),
                "far-field-cert" => "phy.field.far_field_cert.ms".into(),
                "fallback" => "phy.field.fallback.ms".into(),
                other => format!("phy.field.{other}"),
            };
            let scale = if metric.ends_with(".ms") { 1e3 } else { 1.0 };
            add(&metric, stats.total * scale);
            if *phase == "build" {
                add("sim.engine.slots", stats.count as f64);
            }
        }
        return out;
    }
    time(name, f)
}

/// Every counter, per unit.
pub fn counts_by_unit() -> BTreeMap<String, BTreeMap<String, f64>> {
    REC.with(|r| r.borrow().counts.clone())
}

/// Runs `f` inside a span called `name` when recording is on.
pub fn time<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let now = r.origin.elapsed().as_nanos() as u64;
        let span = Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: r.open.last().copied(),
            unit: r.unit.clone(),
        };
        r.spans.push(span);
        let idx = r.spans.len() - 1;
        r.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[idx].end_ns = r.origin.elapsed().as_nanos() as u64;
            r.open.pop();
        });
    }
    out
}

/// Self time in milliseconds per `(unit, span name)`: each span's
/// duration minus the part its direct children cover.
pub fn self_ms_by_unit() -> BTreeMap<String, BTreeMap<&'static str, f64>> {
    REC.with(|r| {
        let r = r.borrow();
        let mut child_ns = vec![0u64; r.spans.len()];
        for s in &r.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (i, s) in r.spans.iter().enumerate() {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.unit.clone())
                .or_default()
                .entry(s.name)
                .or_default() += self_ns as f64 / 1e6;
        }
        out
    })
}

/// Writes every recorded span as one JSON document.
pub fn write_json(path: &str) -> std::io::Result<()> {
    REC.with(|r| {
        let r = r.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\": [")?;
        for (i, s) in r.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == r.spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"unit\": \"{}\"}}{sep}",
                s.name, s.start_ns, s.end_ns, s.unit
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        time("ignored", || ());
        set_enabled(true);
        set_unit("job.0".into());
        time("outer", || {
            time("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        set_enabled(false);
        time("ignored", || ());
        let by_unit = self_ms_by_unit();
        let job = &by_unit["job.0"];
        assert_eq!(job.len(), 2, "{job:?}");
        assert!(job["inner"] >= 20.0);
        assert!(job["outer"] < job["inner"]);
    }
}
