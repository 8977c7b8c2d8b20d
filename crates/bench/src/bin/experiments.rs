//! Experiment runner: regenerates every quantitative claim of the
//! paper as a set of tables, and writes CSVs next to the text output.
//!
//! ```text
//! cargo run --release -p sinr-bench --bin experiments            # all
//! cargo run --release -p sinr-bench --bin experiments -- e1 e5   # subset
//! cargo run --release -p sinr-bench --bin experiments -- --quick # CI-sized
//! cargo run --release -p sinr-bench --bin experiments -- --engine naive e11
//! cargo run --release -p sinr-bench --bin experiments -- e12 --json BENCH_E12.json
//! cargo run --release -p sinr-bench --bin experiments -- e1 e7 e8 --seeds 16 --threads 4
//! cargo run --release -p sinr-bench --bin experiments -- e13 --quick --seeds 4 --json target/e13.json
//! cargo run --release -p sinr-bench --bin experiments -- e15 --threads 1 --json BENCH_E15.json
//! ```
//!
//! `--seeds K` sets the ensemble size of the multi-seed experiments
//! (E1–E10 report `mean ±95% CI` over K independent instances; E13
//! runs K churn trials per row, E15 K sustained-churn service traces);
//! `--threads T` sizes the ensemble driver's worker pool, which by the
//! determinism contract (DESIGN.md §9) changes wall-clock only — never
//! an output byte. `--capability` appends the n = 65536 single-slot
//! capability rung to the `--quick` ladders of the scale-out
//! experiments (the CI smoke configuration; full runs always sweep
//! the capability sizes). `--repack full|incremental|distributed`
//! picks the re-packer whose locality columns the dynamic experiments
//! report (E13 runs and parity-checks every mode regardless; the flag
//! selects the reported one; E15's service loop runs it too).
//! `--fade <sigma_db>` runs E1–E6, E8, E10, E15 and E16a/b on the
//! shadowed channel model (fade streams seeded from `--seed`), every
//! stage of each pipeline on the same channel; E16c always compares
//! the geometric channel with its own shadowed one, and the remaining
//! experiments run geometric. E15 under `--fade` needs `--repack full`
//! (repair re-numbers nodes, re-drawing their id-keyed fades). The
//! default geometric channel reproduces the committed snapshots bit for
//! bit. `--json <path>` additionally writes every executed
//! experiment's tables as one machine-readable JSON document — the
//! format behind the committed `BENCH_*.json` trajectory snapshots.

use std::path::PathBuf;

use sinr_bench::experiments::ALL;
use sinr_bench::table::{experiment_entry_json, experiments_doc_json};
use sinr_bench::{ChannelModel, EngineBackend, ExpOptions, RepackMode};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut capability = false;
    let mut seed: u64 = 0xC0FFEE;
    let mut backend = EngineBackend::default();
    let mut fade: Option<f64> = None;
    let mut seeds: u64 = 0;
    let mut threads: usize = 0;
    let mut repack = RepackMode::Incremental;
    let mut json_path: Option<PathBuf> = None;
    let mut wanted: Vec<&String> = Vec::new();

    // One-pass parse so flag *values* are consumed (a bare `naive` in
    // experiment position is an error, not a silently dropped token).
    let mut i = 0;
    let bail = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--capability" => {
                capability = true;
                i += 1;
            }
            "--seed" => {
                let v = args
                    .get(i + 1)
                    .unwrap_or_else(|| bail("missing value for --seed".into()));
                seed = v.parse().unwrap_or_else(|e| bail(format!("--seed: {e}")));
                i += 2;
            }
            "--engine" => {
                let v = args
                    .get(i + 1)
                    .unwrap_or_else(|| bail("missing value for --engine".into()));
                backend = v.parse().unwrap_or_else(|e| bail(e));
                i += 2;
            }
            "--fade" => {
                let v = args
                    .get(i + 1)
                    .unwrap_or_else(|| bail("missing value for --fade".into()));
                let s: f64 = v.parse().unwrap_or_else(|e| bail(format!("--fade: {e}")));
                if !(s.is_finite() && s > 0.0) {
                    bail(format!(
                        "--fade must be a positive shadowing σ in dB, got {s}"
                    ));
                }
                fade = Some(s);
                i += 2;
            }
            "--seeds" => {
                let v = args
                    .get(i + 1)
                    .unwrap_or_else(|| bail("missing value for --seeds".into()));
                seeds = v.parse().unwrap_or_else(|e| bail(format!("--seeds: {e}")));
                if seeds == 0 {
                    bail(
                        "--seeds must be at least 1 (omit the flag for each experiment's \
                         default ensemble size)"
                            .into(),
                    );
                }
                i += 2;
            }
            "--threads" => {
                let v = args
                    .get(i + 1)
                    .unwrap_or_else(|| bail("missing value for --threads".into()));
                threads = v
                    .parse()
                    .unwrap_or_else(|e| bail(format!("--threads: {e}")));
                if threads == 0 {
                    bail(
                        "--threads must be at least 1 (omit the flag to auto-size the pool)".into(),
                    );
                }
                i += 2;
            }
            "--repack" => {
                let v = args
                    .get(i + 1)
                    .unwrap_or_else(|| bail("missing value for --repack".into()));
                repack = v.parse().unwrap_or_else(|e| bail(format!("--repack: {e}")));
                i += 2;
            }
            "--json" => {
                let v = args
                    .get(i + 1)
                    .unwrap_or_else(|| bail("missing value for --json".into()));
                json_path = Some(PathBuf::from(v));
                i += 2;
            }
            flag if flag.starts_with("--") => bail(format!("unknown flag `{flag}`")),
            _ => {
                wanted.push(&args[i]);
                i += 1;
            }
        }
    }
    let runs_e15 = wanted.is_empty() || wanted.iter().any(|w| w.as_str() == "e15");
    if fade.is_some() && runs_e15 && repack != RepackMode::Full {
        bail(
            "--fade with E15 needs --repack full: repair compacts node ids, which \
             re-draws the id-keyed fade of every surviving link, so the slot groupings \
             the incremental and distributed re-packers keep are no longer certified \
             feasible"
                .into(),
        );
    }
    let channel = match fade {
        Some(sigma) => {
            ChannelModel::shadowed(seed, sigma).unwrap_or_else(|e| bail(format!("--fade: {e}")))
        }
        None => ChannelModel::Geometric,
    };
    let opts = ExpOptions {
        quick,
        seed,
        backend,
        seeds,
        threads,
        capability,
        repack,
        channel,
    };
    let out_dir = PathBuf::from("target/experiments");

    let mut ran = 0;
    let mut json_entries: Vec<String> = Vec::new();
    for exp in ALL {
        if !wanted.is_empty() && !wanted.iter().any(|w| w.as_str() == exp.id) {
            continue;
        }
        ran += 1;
        println!(
            "\n######## {} — {} ########",
            exp.id.to_uppercase(),
            exp.what
        );
        let start = std::time::Instant::now();
        let tables = (exp.run)(&opts);
        for table in &tables {
            print!("\n{}", table.render());
            match table.save_csv(&out_dir) {
                Ok(path) => println!("  [csv] {}", path.display()),
                Err(e) => eprintln!("  [csv] write failed: {e}"),
            }
        }
        let seconds = start.elapsed().as_secs_f64();
        println!("  [time] {seconds:.1}s");
        if json_path.is_some() {
            json_entries.push(experiment_entry_json(exp.id, exp.what, seconds, &tables));
        }
    }

    if ran == 0 {
        // Bail before the JSON write: a typo'd experiment id must not
        // clobber a committed BENCH_*.json snapshot with an empty run.
        eprintln!("no experiment matched; known ids:");
        for exp in ALL {
            eprintln!("  {} — {}", exp.id, exp.what);
        }
        std::process::exit(2);
    }

    if let Some(path) = &json_path {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let doc = experiments_doc_json(
            seed,
            quick,
            backend.label(),
            opts.ensemble_seeds(),
            cores,
            &json_entries,
        );
        match std::fs::write(path, doc) {
            Ok(()) => println!("\n[json] {}", path.display()),
            Err(e) => {
                eprintln!("[json] write failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
