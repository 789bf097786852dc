//! Diagnostic tool (not a paper artifact): per-attribute repair quality of
//! HoloClean on one dataset, with missed/wrong repair examples. Used to
//! tune the reproduction; kept because it is genuinely useful for anyone
//! adapting the system to new data.
//!
//! `--stream K` runs the incremental engine (`StreamSession`, K batches)
//! instead of the one-shot pipeline and additionally reports the ingest
//! counters; `--json` emits the machine-readable form either way (via the
//! shared `holo_bench::json` writer). Unknown flags abort with a usage
//! line (exit 2).
//!
//! The `--json` learn object carries `examples`, `epochs`, `minibatches`,
//! `final_log_likelihood`, `grad_norm` (final minibatch), `grad_norm_mean`
//! (mean over the final epoch — the stable number to watch), and the
//! counters `packed_entries` (design entries of the trained rows),
//! `packed_bytes` (always 0: training copies nothing) and
//! `packed_epochs`, kept under the names the benchmark harness reads.
//!
//! The `stats` object carries the co-occurrence engine's `StatsStats`
//! (dense/CSR pair split, cell and byte footprint, build/extend/retract
//! and correlation-recompute counters; the storage gauges are zero under
//! `--naive-stats`). With `--cor-strength F`, diag additionally prunes
//! every cell of the dirty table twice — ungated and correlation-gated —
//! and reports the two domain-size histograms (buckets 1 / 2-3 / 4-15 /
//! 16+, mirroring the partition `size_hist`) so the gate's pruning power
//! is visible at a glance.

use holo_bench::json::{num_exact, JsonObj};
use holo_bench::runner::{run_holoclean_full, HoloOutcome};
use holo_bench::{build, Args, Scale};
use holo_datagen::{DatasetKind, GeneratedDataset};
use holo_dataset::{Dataset, FxHashMap};
use holoclean::features::FeatureKey;
use holoclean::stream::{IngestStats, StreamSession};
use holoclean::{evaluate, HoloConfig};

/// Emits the run's diagnostics as one JSON object for the bench
/// trajectory: stage timings, `DesignStats`, `LearnStats`,
/// `PartitionStats`, the component-index counters, and (for streamed
/// runs) the `IngestStats`. Hand-rolled over `holo_bench::json` — the
/// offline `serde` stub derives are no-ops, and the shape here is small
/// and stable.
fn print_json(dataset: &str, out: &HoloOutcome, gate_hists: Option<&([u64; 4], [u64; 4])>) {
    let t = &out.timings;
    let d = t.design;
    let p = t.partition;
    let ci = t.components;
    let learn = match &out.learn_stats {
        Some(ls) => {
            let mut o = JsonObj::new();
            o.field_u64("examples", ls.examples as u64);
            o.field_u64("epochs", ls.epochs as u64);
            o.field_u64("minibatches", ls.minibatches as u64);
            o.field_num("final_log_likelihood", ls.final_log_likelihood);
            o.field_num("grad_norm", ls.grad_norm);
            o.field_num("grad_norm_mean", ls.grad_norm_mean);
            o.field_u64("packed_entries", ls.packed_entries as u64);
            o.field_u64("packed_bytes", ls.packed_bytes as u64);
            o.field_u64("packed_epochs", ls.packed_epochs as u64);
            o.finish()
        }
        None => "null".to_string(),
    };
    let ingest = if t.ingest.batches > 0 {
        ingest_json(&t.ingest)
    } else {
        "null".to_string()
    };
    let mut quality = JsonObj::new();
    quality.field_num("precision", out.quality.precision);
    quality.field_num("recall", out.quality.recall);
    quality.field_num("f1", out.quality.f1);
    quality.field_u64("repairs", out.quality.total_repairs as u64);
    quality.field_u64("errors", out.quality.total_errors as u64);
    let mut timings = JsonObj::new();
    timings.field_raw("detect_s", &num_exact(t.detect.as_secs_f64()));
    timings.field_raw("compile_s", &num_exact(t.compile.as_secs_f64()));
    timings.field_raw("learn_s", &num_exact(t.learn.as_secs_f64()));
    timings.field_raw("infer_s", &num_exact(t.infer.as_secs_f64()));
    timings.field_raw("total_s", &num_exact(t.total().as_secs_f64()));
    let mut design = JsonObj::new();
    design.field_u64("full_builds", d.full_builds);
    design.field_u64("vars_patched", d.vars_patched);
    design.field_u64("rows_patched", d.rows_patched);
    design.field_u64("entries_patched", d.entries_patched);
    let mut partition = JsonObj::new();
    partition.field_u64("components", p.components);
    partition.field_u64("singleton_components", p.singleton_components);
    partition.field_u64("largest_component", p.largest_component);
    partition.field_raw(
        "size_hist",
        &format!(
            "[{},{},{},{}]",
            p.size_hist[0], p.size_hist[1], p.size_hist[2], p.size_hist[3]
        ),
    );
    partition.field_u64("closed_form_components", p.closed_form_components);
    partition.field_u64("closed_form_vars", p.closed_form_vars);
    partition.field_u64("exact_components", p.exact_components);
    partition.field_u64("exact_vars", p.exact_vars);
    partition.field_u64("gibbs_components", p.gibbs_components);
    partition.field_u64("gibbs_vars", p.gibbs_vars);
    partition.field_u64("colors", p.colors);
    partition.field_u64("color_sweep_blocks", p.color_sweep_blocks);
    partition.field_u64("coloring_full_builds", p.coloring_full_builds);
    partition.field_u64("coloring_patches", p.coloring_patches);
    partition.field_u64("score_cache_builds", p.score_cache.builds);
    partition.field_u64("score_cache_rows", p.score_cache.rows);
    let mut component_index = JsonObj::new();
    component_index.field_u64("full_builds", ci.full_builds);
    component_index.field_u64("merges", ci.merges);
    component_index.field_u64("vars_appended", ci.vars_appended);
    let s = t.stats;
    let mut stats = JsonObj::new();
    stats.field_u64("dense_pairs", s.dense_pairs);
    stats.field_u64("csr_pairs", s.csr_pairs);
    stats.field_u64("dense_cells", s.dense_cells);
    stats.field_u64("bytes", s.bytes);
    stats.field_u64("builds", s.builds);
    stats.field_u64("extends", s.extends);
    stats.field_u64("retracts", s.retracts);
    stats.field_u64("corr_recomputes", s.corr_recomputes);
    if let Some((before, after)) = gate_hists {
        let hist = |h: &[u64; 4]| format!("[{},{},{},{}]", h[0], h[1], h[2], h[3]);
        stats.field_raw("domain_hist_ungated", &hist(before));
        stats.field_raw("domain_hist_gated", &hist(after));
    }
    let r = t.retire;
    let mut retire = JsonObj::new();
    retire.field_u64("cliques_retired", r.cliques_retired);
    retire.field_u64("vars_renumbered", r.vars_renumbered);
    retire.field_u64("compactions", r.compactions);
    retire.field_u64("live_rows", r.live_rows);
    retire.field_u64("dead_rows", r.dead_rows);

    let mut root = JsonObj::new();
    root.field_str("dataset", dataset);
    root.field_raw("quality", &quality.finish());
    root.field_raw("timings", &timings.finish());
    root.field_raw("design", &design.finish());
    root.field_raw("learn", &learn);
    root.field_raw("partition", &partition.finish());
    root.field_raw("component_index", &component_index.finish());
    root.field_raw("stats", &stats.finish());
    root.field_raw("retire", &retire.finish());
    root.field_raw("ingest", &ingest);
    println!("{}", root.finish());
}

/// The `IngestStats` object — also reused verbatim for the new
/// machine-readable ingest dump of streamed runs.
fn ingest_json(i: &IngestStats) -> String {
    let mut o = JsonObj::new();
    o.field_u64("batches", i.batches);
    o.field_u64("tuples", i.tuples);
    o.field_u64("rows_deleted", i.rows_deleted);
    o.field_u64("rows_updated", i.rows_updated);
    o.field_u64("delta_violations", i.delta_violations);
    o.field_u64("affected_tuples", i.affected_tuples);
    o.field_u64("cells_recomputed", i.cells_recomputed);
    o.field_u64("cells_reused", i.cells_reused);
    o.field_u64("vars_added", i.vars_added);
    o.field_u64("vars_retired", i.vars_retired);
    o.field_u64("replay_minibatches", i.replay_minibatches);
    o.field_u64("canonical_retrains", i.canonical_retrains);
    o.finish()
}

/// Runs the dataset through the incremental engine in `batches` batches,
/// shaping the outcome like the one-shot runner's so the reporting is
/// shared. The session's report speaks one-shot coordinates (live tuple
/// ranks, dense first-appearance symbols) rather than the session's
/// physical pool, so the returned [`Dataset`] is a freshly-interned copy
/// of the live table — candidate values must resolve through it.
fn run_streamed(
    gen: &GeneratedDataset,
    mut config: HoloConfig,
    batches: usize,
) -> (
    HoloOutcome,
    holo_factor::FeatureRegistry<FeatureKey>,
    holo_factor::Weights,
    Dataset,
) {
    config.tau = gen.kind.paper_tau();
    let mut session = StreamSession::new(gen.dirty.schema().clone(), &gen.constraints_text, config)
        .unwrap_or_else(|e| {
            eprintln!("diag --stream: {e}");
            std::process::exit(2)
        });
    let rows: Vec<Vec<String>> = gen
        .dirty
        .tuples()
        .map(|t| {
            gen.dirty
                .schema()
                .attrs()
                .map(|a| gen.dirty.cell_str(t, a).to_string())
                .collect()
        })
        .collect();
    for chunk in rows.chunks(rows.len().div_ceil(batches.max(1))) {
        session.push_batch(chunk).unwrap_or_else(|e| {
            eprintln!("diag --stream: {e}");
            std::process::exit(2)
        });
    }
    let report = session.report();
    let mut dense = Dataset::new(gen.dirty.schema().clone());
    {
        let src = session.dataset();
        for t in src.tuples() {
            let row: Vec<String> = gen
                .dirty
                .schema()
                .attrs()
                .map(|a| src.cell_str(t, a).to_string())
                .collect();
            dense.push_row(&row);
        }
    }
    let quality = evaluate(&report, &dense, &gen.clean);
    let outcome = HoloOutcome {
        quality,
        timings: session.timings(),
        report,
        model: session.compile_stats().clone(),
        learn_stats: session.learn_stats().cloned(),
        violations: session.violations(),
        noisy_cells: session.noisy_cells(),
    };
    let registry = session.registry().clone();
    let weights = session.weights().clone();
    (outcome, registry, weights, dense)
}

fn main() {
    let args = Args::parse(std::env::args());
    let kind = match std::env::var("DIAG_DATASET").as_deref() {
        Ok("flights") => DatasetKind::Flights,
        Ok("food") => DatasetKind::Food,
        Ok("physicians") => DatasetKind::Physicians,
        _ => DatasetKind::Hospital,
    };
    let gen = build(
        kind,
        Scale {
            factor: args.scale,
            seed: args.seed,
            full: args.full,
        },
    );
    let config = HoloConfig::default()
        .with_threads(args.threads)
        .with_chromatic_gibbs(args.chromatic)
        .with_score_cache(!args.no_score_cache)
        .with_naive_stats(args.naive_stats)
        .with_cor_strength(args.cor_strength);
    let max_domain = config.max_domain;
    let (out, registry, weights, pool) = if args.stream > 0 {
        run_streamed(&gen, config, args.stream)
    } else {
        let (out, model, weights) = run_holoclean_full(&gen, config, None, false);
        (out, model.registry, weights, gen.dirty.clone())
    };
    // With a gate requested, measure its pruning power directly: prune
    // every cell of the dirty table ungated and gated and histogram the
    // domain sizes (buckets 1 / 2-3 / 4-15 / 16+, like the partition
    // size histogram).
    let gate_hists = args.cor_strength.map(|min_corr| {
        let stats =
            holo_dataset::CooccurStats::build_with_opts(&gen.dirty, args.threads, args.naive_stats);
        let cells: Vec<holo_dataset::CellRef> = gen
            .dirty
            .tuples()
            .flat_map(|t| {
                gen.dirty
                    .schema()
                    .attrs()
                    .map(move |attr| holo_dataset::CellRef { tuple: t, attr })
            })
            .collect();
        let tau = gen.kind.paper_tau();
        let hist = |doms: &holoclean::CellDomains| {
            let mut h = [0u64; 4];
            for (_, d) in doms.iter() {
                let b = match d.len() {
                    1 => 0,
                    2..=3 => 1,
                    4..=15 => 2,
                    _ => 3,
                };
                h[b] += 1;
            }
            h
        };
        let ungated = holoclean::prune_domains_with_threads(
            &gen.dirty,
            &cells,
            &stats,
            tau,
            max_domain,
            args.threads,
        );
        let gate = holoclean::PruneGate {
            corr: stats.correlations(),
            min_corr,
        };
        let gated = holoclean::prune_domains_gated(
            &gen.dirty,
            &cells,
            &stats,
            tau,
            max_domain,
            args.threads,
            Some(gate),
        );
        (hist(&ungated), hist(&gated))
    });
    if args.json {
        print_json(kind.name(), &out, gate_hists.as_ref());
        return;
    }
    println!(
        "{}: P={:.3} R={:.3} F1={:.3} ({} repairs, {} errors, {} noisy cells, {} query vars)",
        kind.name(),
        out.quality.precision,
        out.quality.recall,
        out.quality.f1,
        out.quality.total_repairs,
        out.quality.total_errors,
        out.noisy_cells,
        out.model.query_vars,
    );
    println!(
        "model: {} evidence vars, {} factors, {} singleton noisy cells",
        out.model.evidence_vars, out.model.factors, out.model.singleton_noisy_cells
    );
    println!(
        "stage timings: detect {:?}, compile {:?}, learn {:?}, infer {:?} (total {:?})",
        out.timings.detect,
        out.timings.compile,
        out.timings.learn,
        out.timings.infer,
        out.timings.total()
    );
    let design = out.timings.design;
    println!(
        "design matrix: {} full build(s), {} var(s) patched, {} row(s) / {} entry(ies) spliced",
        design.full_builds, design.vars_patched, design.rows_patched, design.entries_patched
    );
    let p = out.timings.partition;
    println!(
        "partitioned inference: {} component(s) ({} singleton, largest {}), \
         size histogram 1/2-3/4-15/16+ = {:?}",
        p.components, p.singleton_components, p.largest_component, p.size_hist
    );
    println!(
        "  routing: {} closed-form ({} vars), {} exact ({} vars), {} Gibbs ({} vars)",
        p.closed_form_components,
        p.closed_form_vars,
        p.exact_components,
        p.exact_vars,
        p.gibbs_components,
        p.gibbs_vars
    );
    if p.colors > 0 {
        println!(
            "  chromatic: {} color(s), {} sweep block(s), coloring {} full build(s) / {} patch(es)",
            p.colors, p.color_sweep_blocks, p.coloring_full_builds, p.coloring_patches
        );
    }
    if p.score_cache.builds > 0 {
        println!(
            "  score cache: {} build(s), {} row(s) scored once",
            p.score_cache.builds, p.score_cache.rows
        );
    }
    let ci = out.timings.components;
    println!(
        "component index: {} full build(s), {} merge(s), {} singleton(s) appended",
        ci.full_builds, ci.merges, ci.vars_appended
    );
    let s = out.timings.stats;
    println!(
        "cooccur stats: {} dense / {} CSR pair(s), {} dense cell(s), ~{} byte(s); \
         {} build(s), {} extend(s), {} retract(s), {} corr recompute(s)",
        s.dense_pairs,
        s.csr_pairs,
        s.dense_cells,
        s.bytes,
        s.builds,
        s.extends,
        s.retracts,
        s.corr_recomputes
    );
    if let Some((before, after)) = &gate_hists {
        println!(
            "  domain sizes 1/2-3/4-15/16+: ungated {:?} -> gated {:?}",
            before, after
        );
    }
    let ingest = out.timings.ingest;
    if ingest.batches > 0 {
        println!(
            "ingest: {} batch(es), {} tuple(s), {} delta violation(s), {} affected tuple(s)",
            ingest.batches, ingest.tuples, ingest.delta_violations, ingest.affected_tuples
        );
        println!(
            "  delta compile: {} cell(s) recomputed, {} reused; {} var(s) added, {} retired; \
             {} replay minibatch(es), {} canonical retrain(s)",
            ingest.cells_recomputed,
            ingest.cells_reused,
            ingest.vars_added,
            ingest.vars_retired,
            ingest.replay_minibatches,
            ingest.canonical_retrains
        );
        if ingest.rows_deleted > 0 || ingest.rows_updated > 0 {
            println!(
                "  mutations: {} row(s) deleted, {} row(s) updated",
                ingest.rows_deleted, ingest.rows_updated
            );
        }
    }
    let retire = out.timings.retire;
    if retire.compactions > 0 || retire.cliques_retired > 0 || retire.dead_rows > 0 {
        println!(
            "retirement: {} clique(s) retired, {} var(s) renumbered over {} compaction(s); \
             {} live / {} tombstoned row(s)",
            retire.cliques_retired,
            retire.vars_renumbered,
            retire.compactions,
            retire.live_rows,
            retire.dead_rows
        );
    }
    match &out.learn_stats {
        Some(ls) => {
            println!(
                "learning: {} examples, {} epochs, {} minibatches, final LL {:.4}, \
                 final grad L2 {:.6} (epoch mean {:.6})",
                ls.examples,
                ls.epochs,
                ls.minibatches,
                ls.final_log_likelihood,
                ls.grad_norm,
                ls.grad_norm_mean
            );
        }
        None => println!("learning: skipped (no evidence)"),
    }
    println!("\nlearned DC-violation weights:");
    let constraints_text = gen.constraints_text.lines();
    let mut sigma = 0usize;
    for line in constraints_text {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // FD sugar expands to one DC per RHS attribute; approximate the
        // mapping by probing consecutive ids until the registry runs out.
        let _ = line;
        loop {
            match registry.get(&FeatureKey::DcViolation { constraint: sigma }) {
                Some(id) => {
                    println!("  sigma {} -> w = {:+.4}", sigma, weights.get(id));
                }
                None => println!("  sigma {} -> (never grounded)", sigma),
            }
            sigma += 1;
            if sigma > 16 {
                break;
            }
        }
        break;
    }
    println!("minimality prior = {:+.4}", {
        match registry.get(&FeatureKey::Minimality) {
            Some(id) => weights.get(id),
            None => f64::NAN,
        }
    });

    // Per-attribute tallies.
    #[derive(Default)]
    struct Tally {
        errors: usize,
        repaired_ok: usize,
        repaired_wrong: usize,
        missed_not_flagged: usize,
        missed_flagged: usize,
    }
    let mut per_attr: FxHashMap<u16, Tally> = FxHashMap::default();
    let repairs_by_cell: FxHashMap<_, _> = out
        .report
        .repairs
        .iter()
        .map(|r| (r.cell, r.new_value.clone()))
        .collect();
    let posteriors: std::collections::HashSet<_> =
        out.report.posteriors.iter().map(|p| p.cell).collect();
    for &cell in &gen.errors {
        let truth = gen.clean.cell_str(cell.tuple, cell.attr);
        let tally = per_attr.entry(cell.attr.0).or_default();
        tally.errors += 1;
        match repairs_by_cell.get(&cell) {
            Some(new) if new == truth => tally.repaired_ok += 1,
            Some(_) => tally.repaired_wrong += 1,
            None => {
                if posteriors.contains(&cell) {
                    tally.missed_flagged += 1;
                } else {
                    tally.missed_not_flagged += 1;
                }
            }
        }
    }
    let mut attrs: Vec<_> = per_attr.into_iter().collect();
    attrs.sort_by_key(|(a, _)| *a);
    println!(
        "\nattr                      errors  fixed  wrong  missed(flagged)  missed(undetected)"
    );
    for (a, t) in attrs {
        println!(
            "{:<24} {:>7} {:>6} {:>6} {:>16} {:>19}",
            gen.dirty.schema().attr_name(holo_dataset::AttrId(a)),
            t.errors,
            t.repaired_ok,
            t.repaired_wrong,
            t.missed_flagged,
            t.missed_not_flagged
        );
    }

    // A few flagged-but-missed examples with posteriors.
    println!("\nsample flagged-but-missed cells:");
    let mut shown = 0;
    for p in &out.report.posteriors {
        if shown >= 5 {
            break;
        }
        let cell = p.cell;
        if !gen.errors.contains(&cell) || repairs_by_cell.contains_key(&cell) {
            continue;
        }
        let truth = gen.clean.cell_str(cell.tuple, cell.attr);
        let dirty = gen.dirty.cell_str(cell.tuple, cell.attr);
        let cands: Vec<String> = p
            .candidates
            .iter()
            .map(|(s, pr)| format!("{}={pr:.3}", pool.value_str(*s)))
            .collect();
        println!(
            "  {} [{}]: dirty={dirty:?} truth={truth:?} posterior: {}",
            cell,
            gen.dirty.schema().attr_name(cell.attr),
            cands.join(", ")
        );
        shown += 1;
    }

    // Wrong repairs.
    println!("\nsample wrong repairs:");
    for r in out.report.repairs.iter().take(200) {
        let truth = gen.clean.cell_str(r.cell.tuple, r.cell.attr);
        if r.new_value != truth {
            println!(
                "  {} [{}]: {:?} -> {:?} (truth {:?}, p={:.3})",
                r.cell,
                gen.dirty.schema().attr_name(r.cell.attr),
                r.old_value,
                r.new_value,
                truth,
                r.probability
            );
        }
    }
}
