//! The one-shot workloads (`hospital`, `hospital-dc`, `food`): one
//! complete repair is one `HoloClean::run_full` call over the whole table.

use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{end_to_end, fingerprint, repeat_setup, RunResult, Workload};
use holo_constraints::{find_violations_with_threads, parse_constraints};
use holo_datagen::GeneratedDataset;
use holo_dataset::{CellRef, CooccurStats, FxHashSet};
use holo_factor::{infer_partitioned, learn, LearnStats, PartitionStats, PartitionedConfig};
use holoclean::compile::{compile, CompileInput, CompileStats};
use holoclean::context::DatasetContext;
use holoclean::features::MatchLookup;
use holoclean::{
    evaluate, prune_domains_with_threads, HoloClean, HoloConfig, HoloError, RepairQuality,
    RepairReport,
};
use std::time::{Duration, Instant};

/// Timed repairs a run makes at least, however short `--seconds` is.
const MIN_REPAIRS: usize = 5;

fn session(gen: &GeneratedDataset, config: HoloConfig) -> Result<HoloClean, HoloError> {
    Ok(HoloClean::new(gen.dirty.clone())
        .with_constraint_text(&gen.constraints_text)?
        .with_config(config))
}

/// One untraced repair.
struct Repaired {
    /// Wall time of `run_full` (session construction excluded).
    wall: Duration,
    fingerprint: Vec<String>,
    quality: RepairQuality,
}

fn repair(gen: &GeneratedDataset, config: HoloConfig) -> Result<Repaired, HoloError> {
    let session = session(gen, config)?;
    let t0 = Instant::now();
    let (outcome, _model, _weights) = session.run_full()?;
    let wall = t0.elapsed();
    Ok(Repaired {
        wall,
        fingerprint: fingerprint(&outcome.report, &outcome.dataset),
        quality: evaluate(&outcome.report, &outcome.dataset, &gen.clean),
    })
}

/// Untraced run: set-up of the panel, repeated (see [`repeat_setup`]); a
/// reference repair of each table (which also warms the process), then
/// timed repairs cycling over the panel for `seconds`, each checked against
/// its table's reference and each right after a run of the calibration
/// kernel. Once the metrics are read, the first table is repaired once
/// more at [`Workload::check_threads`], untimed, against its reference.
pub fn measure(w: Workload, seed: u64, seconds: f64) -> RunResult {
    let mut out = RunResult::new();
    let (setup, tables) = repeat_setup(|| {
        let tables = w.panel(seed);
        for g in &tables {
            out.call(session(g, w.config(g.kind, w.threads())).is_ok());
        }
        tables
    });
    let mut references = Vec::new();
    let mut quality = Vec::new();
    for g in &tables {
        let reference = repair(g, w.config(g.kind, w.threads()));
        out.call(reference.is_ok());
        let Ok(r) = reference else { return out };
        references.push(r.fingerprint);
        quality.push(r.quality);
    }

    let mut times = Vec::new();
    let start = Instant::now();
    for i in (0..tables.len()).cycle() {
        if start.elapsed().as_secs_f64() >= seconds
            && (times.len() >= MIN_REPAIRS || out.failed > 0)
        {
            break;
        }
        let g = &tables[i];
        let kernel = stats::calibrate();
        let run = repair(g, w.config(g.kind, w.threads()));
        out.call(run.as_ref().is_ok_and(|r| r.fingerprint == references[i]));
        if let Ok(r) = run {
            times.push((i, r.wall.as_secs_f64(), kernel));
        }
    }
    end_to_end(&mut out, &setup, &times, &quality);
    // After the peak memory is read, so that it stays the timed repairs'.
    let run = repair(&tables[0], w.config(tables[0].kind, w.check_threads()));
    out.call(run.is_ok_and(|r| r.fingerprint == references[0]));
    out
}

/// Counters of one traced drive; they repeat exactly from drive to drive.
#[derive(Debug, Default)]
struct Counters {
    violations: usize,
    noisy_cells: usize,
    stats: holo_dataset::StatsStats,
    candidates: usize,
    singleton_share: f64,
    model: CompileStats,
    design: holo_factor::DesignStats,
    learn: Option<LearnStats>,
    partition: PartitionStats,
    repairs: usize,
}

/// One repair driven layer by layer — the calls `run_full` makes, in its
/// order — with a span around each call, then the probes. Returns the
/// report's fingerprint and the drive's counters.
fn drive(
    gen: &GeneratedDataset,
    config: &HoloConfig,
    t: &mut Tracer,
) -> Result<(Vec<String>, Counters), HoloError> {
    let threads = config.threads;
    let mut ds = gen.dirty.clone();
    let constraints = parse_constraints(&gen.constraints_text, &mut ds)?;
    let matches = MatchLookup::default();
    let (noisy, stats, model, weights, report, mut c) = t.span("drive", threads, |t| {
        let (violations, noisy) = t.span("constraints", threads, |_| {
            let violations = find_violations_with_threads(&ds, &constraints, threads);
            let mut noisy: FxHashSet<CellRef> = FxHashSet::default();
            for v in &violations {
                noisy.extend(v.cells.iter().copied());
            }
            (violations, noisy)
        });
        let stats = t.span("dataset", threads, |_| {
            CooccurStats::build_with_opts(&ds, threads, config.naive_stats)
        });
        let model = t.span("compile", threads, |_| {
            compile(&CompileInput {
                ds: &ds,
                constraints: &constraints,
                noisy: &noisy,
                violations: &violations,
                stats: &stats,
                matches: &matches,
                config,
            })
        })?;
        let (weights, learn) = t.span("learn", threads, |_| {
            let mut weights = model.weights.clone();
            let stats = (model.stats.evidence_vars > 0).then(|| {
                learn::train_with_threads(&model.graph, &mut weights, &config.learn, threads)
            });
            (weights, stats)
        });
        let (marginals, partition) = t.span("infer", threads, |_| {
            infer_partitioned(
                &model.graph,
                &weights,
                &DatasetContext::new(&ds),
                &PartitionedConfig {
                    gibbs: config.gibbs,
                    exact_limit: config.exact_component_limit,
                    chromatic: config.chromatic_gibbs,
                    score_cache: config.score_cache,
                },
                threads,
            )
        });
        let report = t.span("repair", threads, |_| {
            let report = RepairReport::from_marginals(
                &ds,
                &model.query_cells,
                &model.query_vars,
                &model.graph,
                &marginals,
            );
            drop(report.apply(&ds));
            report
        });
        let c = Counters {
            violations: violations.len(),
            learn,
            partition,
            ..Counters::default()
        };
        Ok::<_, HoloError>((noisy, stats, model, weights, report, c))
    })?;

    // Probes: layers re-run in isolation, off the critical path, to count
    // what they do.
    let mut cells: Vec<CellRef> = noisy.iter().copied().collect();
    cells.sort();
    let domains = t.probe("domain", threads, |_| {
        prune_domains_with_threads(&ds, &cells, &stats, config.tau, config.max_domain, threads)
    });
    t.probe("design", 1, |_| drop(model.graph.compile_design()));
    t.probe("cache", threads, |_| {
        drop(holo_factor::ScoreCache::build(
            model.graph.design(),
            &weights,
            threads,
        ))
    });

    let singletons = domains.iter().filter(|(_, d)| d.len() <= 1).count();
    c.noisy_cells = noisy.len();
    c.stats = stats.stats_stats();
    c.candidates = domains.total_candidates();
    c.singleton_share = singletons as f64 / cells.len().max(1) as f64;
    c.model = model.stats.clone();
    c.design = model.graph.design_stats();
    c.repairs = report.repairs.len();
    Ok((fingerprint(&report, &ds), c))
}

/// Traced run: untraced `run_full` repairs alternate with layer-by-layer
/// drives for `seconds`; every drive must reproduce the untraced repair.
pub fn trace(w: Workload, seed: u64, seconds: f64) -> RunResult {
    let mut out = RunResult::new();
    let gen = w.panel(seed).swap_remove(0);
    let config = w.config(gen.kind, w.threads());
    let reference = repair(&gen, config.clone());
    out.call(reference.is_ok());
    let Ok(reference) = reference else {
        return out;
    };

    let mut t = Tracer::new();
    let mut counters = Counters::default();
    let mut untraced = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds
        || (untraced.len() < MIN_REPAIRS && out.failed == 0)
    {
        let run = repair(&gen, config.clone());
        out.call(
            run.as_ref()
                .is_ok_and(|r| r.fingerprint == reference.fingerprint),
        );
        if let Ok(r) = run {
            untraced.push(r.wall.as_secs_f64());
        }
        let traced = drive(&gen, &config, &mut t);
        out.call(
            traced
                .as_ref()
                .is_ok_and(|(fp, _)| *fp == reference.fingerprint),
        );
        if let Ok((_, c)) = traced {
            counters = c;
        }
    }

    let coverage = t.coverage("drive");
    out.checks_hold = coverage >= 0.95;
    out.notes.extend(t.summary());
    out.notes.push(format!(
        "coverage in-path/drive={coverage} (holds >= 0.95: {})",
        out.checks_hold
    ));
    let c = &counters;
    let learn_ms = t.median_ms("learn");
    out.metric("constraints.detect_ms", t.median_ms("constraints"));
    out.metric("constraints.violations", c.violations as f64);
    out.metric("constraints.noisy_cells", c.noisy_cells as f64);
    out.metric("dataset.stats_build_ms", t.median_ms("dataset"));
    dataset_counters(&mut out, &c.stats);
    out.metric("domain.prune_noisy_ms", t.median_ms("domain"));
    out.metric("domain.candidates", c.candidates as f64);
    out.metric("domain.singleton_share", c.singleton_share);
    out.metric("compile.compile_ms", t.median_ms("compile"));
    out.metric("compile.cpu_util", t.cpu_util("compile"));
    compile_counters(&mut out, &c.model, &c.design);
    out.metric("design.build_ms", t.median_ms("design"));
    out.metric("learn.train_ms", learn_ms);
    out.metric("learn.cpu_util", t.cpu_util("learn"));
    if let Some(ls) = &c.learn {
        learn_counters(&mut out, ls);
        let visits = ls.packed_entries * ls.packed_epochs;
        out.metric(
            "learn.ns_per_entry_visit",
            learn_ms * 1e6 / visits.max(1) as f64,
        );
    }
    out.metric("infer.infer_ms", t.median_ms("infer"));
    out.metric("infer.cpu_util", t.cpu_util("infer"));
    infer_counters(&mut out, &c.partition);
    out.metric("infer.cache_build_ms", t.median_ms("cache"));
    out.metric("repair.extract_ms", t.median_ms("repair"));
    out.metric("repair.repairs", c.repairs as f64);
    out.metric("parallel.cpu_util", t.in_path_cpu_util("drive"));
    trace_metrics(&mut out, &t, "drive", &untraced);
    out
}

/// `trace.*`: the traced repair's own time, the untraced one, their
/// difference (the tracing overhead), coverage and the sample count.
pub fn trace_metrics(out: &mut RunResult, t: &Tracer, root: &str, untraced_s: &[f64]) {
    let traced_s = t.median_ms(root) / 1e3;
    let untraced_s = median(untraced_s);
    out.metric("trace.repair_s", traced_s);
    out.metric("trace.untraced_repair_s", untraced_s);
    out.metric("trace.overhead_s", traced_s - untraced_s);
    out.metric("trace.coverage", t.coverage(root));
    out.metric("trace.drives", t.samples_ms(root).len() as f64);
}

/// `dataset.*` storage counters of the co-occurrence statistics.
pub fn dataset_counters(out: &mut RunResult, s: &holo_dataset::StatsStats) {
    out.metric("dataset.stats_bytes", s.bytes as f64);
    out.metric("dataset.dense_pairs", s.dense_pairs as f64);
    out.metric("dataset.csr_pairs", s.csr_pairs as f64);
}

/// `compile.*` model-shape counters and `design.*` build counters.
pub fn compile_counters(out: &mut RunResult, m: &CompileStats, d: &holo_factor::DesignStats) {
    out.metric("compile.query_vars", m.query_vars as f64);
    out.metric("compile.evidence_vars", m.evidence_vars as f64);
    out.metric("compile.factors", m.factors as f64);
    out.metric("compile.cliques", m.cliques as f64);
    out.metric("compile.dc_pairs", m.dc_pairs_considered as f64);
    out.metric("design.full_builds", d.full_builds as f64);
    out.metric("design.rows_patched", d.rows_patched as f64);
}

/// `learn.*` counters of one training call.
pub fn learn_counters(out: &mut RunResult, ls: &LearnStats) {
    out.metric("learn.minibatches", ls.minibatches as f64);
    let visits = ls.packed_entries * ls.packed_epochs;
    out.metric("learn.entry_visits", visits as f64);
    out.metric("learn.packed_bytes", ls.packed_bytes as f64);
}

/// `infer.*` routing counters of one inference pass.
pub fn infer_counters(out: &mut RunResult, p: &PartitionStats) {
    out.metric("infer.components", p.components as f64);
    out.metric("infer.largest_component", p.largest_component as f64);
    out.metric("infer.closed_form_vars", p.closed_form_vars as f64);
    out.metric("infer.exact_vars", p.exact_vars as f64);
    out.metric("infer.gibbs_vars", p.gibbs_vars as f64);
    out.metric("infer.score_cache_rows", p.score_cache.rows as f64);
}
