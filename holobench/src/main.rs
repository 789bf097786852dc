//! End-to-end benchmark of the HoloClean reproduction.
//!
//! ```text
//! cargo run --release --manifest-path holobench/Cargo.toml -- \
//!     --workload <hospital|hospital-dc|hospital-crud|food|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed`, drives the program only
//! through its public entry points (`HoloClean::run_full` for one-shot
//! repairs; `StreamSession::push_batch` / `push_deletes` / `push_updates` /
//! `report` for the CRUD feed), measures for `--seconds`, checks every
//! output against a reference computed in set-up, and prints one line per
//! metric followed by a last line holding one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--trace 0` reports the end-to-end metrics, measured untraced.
//! `--trace 1` is a separate run that re-drives the same work layer by
//! layer through each layer's public functions, records a span around
//! every call (see [`trace`]) and reports the per-layer metrics, plus the
//! tracing overhead and the share of the traced wall time the in-path
//! spans cover. `--workload all` runs every workload in its own child
//! process, so each peak-memory reading belongs to one workload.

mod oneshot;
mod stats;
mod stream;
mod trace;

use holo_datagen::{food, hospital, DatasetKind, FoodConfig, GeneratedDataset, HospitalConfig};
use holo_dataset::Dataset;
use holoclean::{HoloConfig, ModelVariant, RepairQuality, RepairReport};
use std::process::ExitCode;
use std::time::Instant;

/// Set-up is repeated at least this many times in a run, and for at least
/// [`SETUP_SECONDS`]; `setup_s` is the median, calibrated like
/// `repair_ref_s` (see [`end_to_end`]).
const MIN_SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;

/// Tables a run repairs in turn, all of the workload's shape and each
/// generated from the seed. Timings and quality then average over several
/// tables instead of resting on one draw of the generator.
pub const PANEL: u64 = 3;

/// The benchmark's workloads. All are closed loop: one caller, each call
/// waiting for the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hospital (1000 × 19), clique-free model, one-shot: learn and
    /// compile block the result, inference is closed-form.
    Hospital,
    /// The same table grounding DCs as clique factors (exact + Gibbs
    /// inference).
    HospitalDc,
    /// Hospital fed to a `StreamSession` in 16 corrupt-and-heal batches.
    HospitalCrud,
    /// Food (18k × 17), one-shot: statistics and pruning dominate.
    Food,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Hospital,
        Workload::HospitalDc,
        Workload::HospitalCrud,
        Workload::Food,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hospital => "hospital",
            Workload::HospitalDc => "hospital-dc",
            Workload::HospitalCrud => "hospital-crud",
            Workload::Food => "food",
        }
    }

    /// Worker threads the workload's calls are given: one for every
    /// workload. On a machine of two virtual CPUs a two-thread call waits
    /// at every barrier for whichever CPU the host slowed, and its times
    /// follow the host, not the program.
    pub fn threads(self) -> usize {
        1
    }

    /// Worker threads of the untimed repairs that hold the parallel paths to
    /// the timed one-thread result: the one-shot workloads repair their
    /// first table once more at this count after their metrics are read,
    /// and the CRUD feed's one-shot reference runs at it.
    pub fn check_threads(self) -> usize {
        2
    }

    /// The [`PANEL`] tables of a run: the first is the one the traced run
    /// drives. Distinct seeds give disjoint panels.
    pub fn panel(self, seed: u64) -> Vec<GeneratedDataset> {
        (0..PANEL)
            .map(|i| self.generate(seed.wrapping_mul(PANEL).wrapping_add(i)))
            .collect()
    }

    /// One table of the workload's shape, a pure function of `seed`.
    pub fn generate(self, seed: u64) -> GeneratedDataset {
        match self {
            Workload::Food => food(FoodConfig {
                establishments: 2_000,
                seed,
                ..FoodConfig::default()
            }),
            _ => hospital(HospitalConfig {
                rows: 1_000,
                seed,
                ..HospitalConfig::default()
            }),
        }
    }

    /// The repair configuration at `threads` worker threads.
    pub fn config(self, kind: DatasetKind, threads: usize) -> HoloConfig {
        let mut config = HoloConfig::default().with_threads(threads);
        config.tau = kind.paper_tau();
        if self == Workload::HospitalDc {
            config = config.with_variant(ModelVariant::DcFactorsPartitioned);
        }
        config
    }
}

/// End-to-end metrics `(name, unit)`, reported by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("repair_ref_s", "s"),
    ("peak_rss_mb", "MB"),
    ("precision", "ratio"),
    ("recall", "ratio"),
    ("f1", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported by every `--trace 1` run.
/// Layers are named after the repository's modules. A layer a workload
/// does not call directly reads 0 there — the stream layer on the
/// one-shot workloads, the one-shot layers' spans on `hospital-crud`.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("constraints.detect_ms", "ms"),
    ("constraints.violations", "count"),
    ("constraints.noisy_cells", "count"),
    ("dataset.stats_build_ms", "ms"),
    ("dataset.stats_bytes", "bytes"),
    ("dataset.dense_pairs", "count"),
    ("dataset.csr_pairs", "count"),
    ("domain.prune_noisy_ms", "ms"),
    ("domain.candidates", "count"),
    ("domain.singleton_share", "ratio"),
    ("compile.compile_ms", "ms"),
    ("compile.cpu_util", "ratio"),
    ("compile.query_vars", "count"),
    ("compile.evidence_vars", "count"),
    ("compile.factors", "count"),
    ("compile.cliques", "count"),
    ("compile.dc_pairs", "count"),
    ("design.build_ms", "ms"),
    ("design.full_builds", "count"),
    ("design.rows_patched", "count"),
    ("learn.train_ms", "ms"),
    ("learn.cpu_util", "ratio"),
    ("learn.minibatches", "count"),
    ("learn.entry_visits", "count"),
    ("learn.ns_per_entry_visit", "ns"),
    ("learn.packed_bytes", "bytes"),
    ("infer.infer_ms", "ms"),
    ("infer.cpu_util", "ratio"),
    ("infer.components", "count"),
    ("infer.largest_component", "count"),
    ("infer.closed_form_vars", "count"),
    ("infer.exact_vars", "count"),
    ("infer.gibbs_vars", "count"),
    ("infer.score_cache_rows", "count"),
    ("infer.cache_build_ms", "ms"),
    ("repair.extract_ms", "ms"),
    ("repair.repairs", "count"),
    ("stream.insert_ms", "ms"),
    ("stream.update_ms", "ms"),
    ("stream.delete_ms", "ms"),
    ("stream.op_ms_p90", "ms"),
    ("stream.compact_ms", "ms"),
    ("stream.report_ms", "ms"),
    ("stream.detect_ms", "ms"),
    ("stream.compile_ms", "ms"),
    ("stream.learn_ms", "ms"),
    ("stream.cells_recomputed", "count"),
    ("stream.cells_reused", "count"),
    ("stream.reuse_ratio", "ratio"),
    ("stream.affected_tuples", "count"),
    ("stream.delta_violations", "count"),
    ("stream.replay_minibatches", "count"),
    ("stream.vars_renumbered", "count"),
    ("stream.compactions", "count"),
    ("stream.calls", "count"),
    ("parallel.cpu_util", "ratio"),
    ("trace.repair_s", "s"),
    ("trace.untraced_repair_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.drives", "count"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Public calls made into the program.
    pub attempted: u64,
    /// Calls that returned `Err` or whose output failed its check.
    pub failed: u64,
    /// Checks that are not tied to one call (trace coverage) held.
    pub checks_hold: bool,
    /// Measured metrics by name; units come from [`END_TO_END`] /
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed ahead of the metrics.
    pub notes: Vec<String>,
}

impl RunResult {
    /// A result whose run-wide checks hold until one fails.
    pub fn new() -> Self {
        RunResult {
            checks_hold: true,
            ..RunResult::default()
        }
    }

    /// Records one metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Counts one call; `ok` is false when it erred or failed its check.
    pub fn call(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Runs `setup` [`MIN_SETUPS`] times or more, until [`SETUP_SECONDS`]
/// have passed, each time right after a run of the [`stats::calibrate`]
/// kernel; returns each repetition's `(wall, kernel)` times in seconds and
/// the last repetition's result.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (Vec<(f64, f64)>, T) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let kernel = stats::calibrate();
        let t0 = Instant::now();
        let last = setup();
        times.push((t0.elapsed().as_secs_f64(), kernel));
        if times.len() >= MIN_SETUPS && start.elapsed().as_secs_f64() >= SETUP_SECONDS {
            return (times, last);
        }
    }
}

/// Records the end-to-end metrics of an untraced run: the set-up time, the
/// repair time, the process's peak memory, and repair quality pooled over
/// the panel (correct repairs, repairs made and errors summed over its
/// tables).
///
/// `setup` holds each set-up repetition's `(wall, calibration)` times;
/// `setup_s` is their median ratio times [`stats::REFERENCE_S`].
/// `repairs` holds one `(table, wall, calibration)` triple per complete
/// repair: its table's index in the panel, its wall time, and the time of
/// the [`stats::calibrate`] kernel run next to it. `repair_ref_s` is the
/// mean over the panel's tables of each table's median `wall /
/// calibration`, times [`stats::REFERENCE_S`]: the repair's wall time on a
/// host where the kernel takes that long. Raw wall times are printed
/// beside it.
pub fn end_to_end(
    out: &mut RunResult,
    setup: &[(f64, f64)],
    repairs: &[(usize, f64, f64)],
    quality: &[RepairQuality],
) {
    let walls: Vec<f64> = repairs.iter().map(|r| r.1).collect();
    let kernels: Vec<f64> = repairs.iter().map(|r| r.2).collect();
    let ratios: Vec<(usize, f64)> = repairs.iter().map(|r| (r.0, r.1 / r.2)).collect();
    let repair_ref_s = stats::mean_of_medians(&ratios) * stats::REFERENCE_S;
    let [q1, q2, q3] = stats::quartiles(&walls);
    let sum = |f: fn(&RepairQuality) -> usize| quality.iter().map(f).sum::<usize>() as f64;
    let correct = sum(|q| q.correct_repairs);
    let made = sum(|q| q.total_repairs);
    let errors = sum(|q| q.total_errors);
    let precision = if made > 0.0 { correct / made } else { 1.0 };
    let recall = if errors > 0.0 { correct / errors } else { 1.0 };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    out.notes.push(format!(
        "repairs n={} wall_median_s={q2} wall_q1_s={q1} wall_q3_s={q3} calibration_median_s={} repair_ref_s={repair_ref_s}; tables={} repairs_made={made} correct={correct} errors={errors}",
        walls.len(),
        stats::median(&kernels),
        quality.len(),
    ));
    let setup_walls: Vec<f64> = setup.iter().map(|s| s.0).collect();
    let setup_ratios: Vec<f64> = setup.iter().map(|s| s.0 / s.1).collect();
    out.notes.push(format!(
        "setup n={} wall_median_s={}",
        setup.len(),
        stats::median(&setup_walls)
    ));
    out.metric("setup_s", stats::median(&setup_ratios) * stats::REFERENCE_S);
    out.metric("repair_ref_s", repair_ref_s);
    out.metric("peak_rss_mb", stats::peak_rss_mb());
    out.metric("precision", precision);
    out.metric("recall", recall);
    out.metric("f1", f1);
}

/// A report as sorted text lines — repairs, then every posterior with its
/// candidates resolved through `values` and probabilities printed at
/// shortest round-trip precision — so two reports compare equal exactly
/// when they agree bit for bit, whatever symbol numbering each uses.
pub fn fingerprint(report: &RepairReport, values: &Dataset) -> Vec<String> {
    let mut lines: Vec<String> = report
        .repairs
        .iter()
        .map(|r| {
            format!(
                "R {:?} {:?} -> {:?} {}",
                r.cell, r.old_value, r.new_value, r.probability
            )
        })
        .collect();
    lines.extend(report.posteriors.iter().map(|p| {
        let cands: Vec<String> = p
            .candidates
            .iter()
            .map(|(sym, pr)| format!("{:?}={pr}", values.value_str(*sym)))
            .collect();
        format!("M {:?} {}", p.cell, cands.join(" "))
    }));
    lines.sort();
    lines
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: holobench --workload <hospital|hospital-dc|hospital-crud|food|all> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    if name != "all" {
        args.workload = Some(
            Workload::ALL
                .into_iter()
                .find(|w| w.name() == name)
                .ok_or_else(|| format!("unknown workload {name:?}"))?,
        );
    }
    Ok(args)
}

/// The commit the checkout was made from, read from `.git` in the working
/// directory without leaving it; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let resolve = || -> Option<String> {
        let head = read(".git/HEAD")?;
        let head = head.trim();
        let Some(name) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Some(id) = read(&format!(".git/{name}")) {
            return Some(id.trim().to_string());
        }
        read(".git/packed-refs")?
            .lines()
            .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
    };
    resolve().unwrap_or_else(|| "unknown".into())
}

fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("holobench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("holobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload else {
        return run_all(&args);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "env workload={} trace={} seed={} seconds={} threads={} nproc={nproc} commit={} rustc={:?}",
        w.name(),
        u8::from(args.trace),
        args.seed,
        args.seconds,
        w.threads(),
        git_commit(),
        env!("HOLOBENCH_RUSTC"),
    );
    let steal0 = stats::steal_ticks();
    let result = match (w, args.trace) {
        (Workload::HospitalCrud, false) => stream::measure(args.seed, args.seconds),
        (Workload::HospitalCrud, true) => stream::trace(args.seed, args.seconds),
        (_, false) => oneshot::measure(w, args.seed, args.seconds),
        (_, true) => oneshot::trace(w, args.seed, args.seconds),
    };
    for note in &result.notes {
        println!("{note}");
    }
    let steal1 = stats::steal_ticks();
    let stolen = steal1.0.saturating_sub(steal0.0) as f64;
    let accounted = steal1.1.saturating_sub(steal0.1).max(1) as f64;
    println!("host steal_share={}", stolen / accounted);
    let specs: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in &result.metrics {
        assert!(
            specs.iter().any(|(n, _)| n == name),
            "metric {name} is not in the benchmark's list"
        );
    }
    let mut finite = true;
    let mut metrics = Vec::new();
    for &(name, unit) in specs {
        // A metric of a layer this workload bypasses was not measured: it
        // reads 0. A non-finite value is a defect of the benchmark.
        let found = result.metrics.iter().find(|(n, _)| *n == name);
        let value = found.map_or(0.0, |&(_, v)| v);
        finite &= value.is_finite();
        let value = if value.is_finite() { value } else { 0.0 };
        println!(
            "metric {:<34} {value} {unit}",
            format!("{}.{name}", w.name())
        );
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    // A run that made no call at all cannot have worked.
    let (attempted, failed) = match result.attempted {
        0 => (1, 1),
        n => (n, result.failed),
    };
    println!(
        "calls attempted={attempted} failed={failed} error_rate={}",
        failed as f64 / attempted as f64
    );
    let correct = failed == 0 && result.checks_hold && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
