//! Criterion micro-benchmarks for the pipeline stages whose costs the
//! paper's optimisations target: violation detection (blocking vs the
//! naive quadratic scan), statistics construction, Algorithm 2 pruning,
//! model compilation under each variant, SGD learning, Gibbs sweeps, and
//! the end-to-end Hospital pipeline.

use criterion::{criterion_group, BenchRecord, BenchmarkId, Criterion};
use holo_bench::{build, Scale};
use holo_constraints::{
    find_violations, find_violations_naive, find_violations_with_threads, parse_constraints,
};
use holo_datagen::DatasetKind;
use holo_dataset::{CooccurStats, FxHashSet};
use holoclean::compile::{compile, CompileInput};
use holoclean::domain::{prune_domains, prune_domains_with_threads};
use holoclean::{HoloClean, HoloConfig, ModelVariant};
use std::hint::black_box;

fn small_scale() -> Scale {
    Scale {
        factor: 0.25,
        seed: 7,
        full: false,
    }
}

fn bench_violation_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("violation_detection");
    let mut gen = build(DatasetKind::Hospital, small_scale());
    let cons = parse_constraints(&gen.constraints_text, &mut gen.dirty).unwrap();
    group.bench_function("blocked", |b| {
        b.iter(|| black_box(find_violations(&gen.dirty, &cons)))
    });
    group.bench_function("blocked_threads_all", |b| {
        b.iter(|| black_box(find_violations_with_threads(&gen.dirty, &cons, 0)))
    });
    group.bench_function("naive_quadratic", |b| {
        b.iter(|| black_box(find_violations_naive(&gen.dirty, &cons)))
    });
    group.finish();
}

fn bench_statistics(c: &mut Criterion) {
    let gen = build(DatasetKind::Food, small_scale());
    // The headline number tracked across snapshots: the default (dense)
    // engine's full build.
    c.bench_function("cooccur_stats_build", |b| {
        b.iter(|| black_box(CooccurStats::build(&gen.dirty)))
    });
    let mut group = c.benchmark_group("cooccur_stats");
    group.bench_function("dense", |b| {
        b.iter(|| black_box(CooccurStats::build_with_opts(&gen.dirty, 1, false)))
    });
    group.bench_function("naive", |b| {
        b.iter(|| black_box(CooccurStats::build_with_opts(&gen.dirty, 1, true)))
    });
    group.finish();
}

fn bench_pruning(c: &mut Criterion) {
    let mut group = c.benchmark_group("domain_pruning");
    let mut gen = build(DatasetKind::Hospital, small_scale());
    let cons = parse_constraints(&gen.constraints_text, &mut gen.dirty).unwrap();
    let violations = find_violations(&gen.dirty, &cons);
    let mut noisy: FxHashSet<_> = FxHashSet::default();
    for v in &violations {
        noisy.extend(v.cells.iter().copied());
    }
    let stats = CooccurStats::build(&gen.dirty);
    for tau in [0.3, 0.5, 0.7, 0.9] {
        group.bench_with_input(BenchmarkId::from_parameter(tau), &tau, |b, &tau| {
            b.iter(|| {
                black_box(prune_domains(
                    &gen.dirty,
                    noisy.iter().copied(),
                    &stats,
                    tau,
                    50,
                ))
            })
        });
    }
    let noisy_cells: Vec<_> = {
        let mut cells: Vec<_> = noisy.iter().copied().collect();
        cells.sort_unstable();
        cells
    };
    group.bench_function("tau_0.5_threads_all", |b| {
        b.iter(|| {
            black_box(prune_domains_with_threads(
                &gen.dirty,
                &noisy_cells,
                &stats,
                0.5,
                50,
                0,
            ))
        })
    });
    // The same scan against the retained naive hash-map oracle — the
    // dense-vs-naive read-path comparison.
    let naive_stats = CooccurStats::build_with_opts(&gen.dirty, 1, true);
    group.bench_function("tau_0.5_naive_stats", |b| {
        b.iter(|| {
            black_box(prune_domains_with_threads(
                &gen.dirty,
                &noisy_cells,
                &naive_stats,
                0.5,
                50,
                1,
            ))
        })
    });
    // Correlation-gated Algorithm 2 (BClean's cor_strength knob): partner
    // attributes below the threshold are skipped entirely.
    let gate = holoclean::PruneGate {
        corr: stats.correlations(),
        min_corr: 0.3,
    };
    group.bench_function("tau_0.5_gated_0.3", |b| {
        b.iter(|| {
            black_box(holoclean::prune_domains_gated(
                &gen.dirty,
                &noisy_cells,
                &stats,
                0.5,
                50,
                1,
                Some(gate),
            ))
        })
    });
    group.finish();
}

fn bench_compile_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile");
    group.sample_size(10);
    let mut gen = build(DatasetKind::Hospital, small_scale());
    let cons = parse_constraints(&gen.constraints_text, &mut gen.dirty).unwrap();
    let violations = find_violations(&gen.dirty, &cons);
    let mut noisy: FxHashSet<_> = FxHashSet::default();
    for v in &violations {
        noisy.extend(v.cells.iter().copied());
    }
    let stats = CooccurStats::build(&gen.dirty);
    let matches = Default::default();
    for variant in [
        ModelVariant::DcFeats,
        ModelVariant::DcFactors,
        ModelVariant::DcFactorsPartitioned,
    ] {
        let config = HoloConfig::default().with_variant(variant);
        group.bench_function(variant.label(), |b| {
            b.iter(|| {
                black_box(
                    compile(&CompileInput {
                        ds: &gen.dirty,
                        constraints: &cons,
                        noisy: &noisy,
                        violations: &violations,
                        stats: &stats,
                        matches: &matches,
                        config: &config,
                    })
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_learning_and_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("learn_infer");
    group.sample_size(10);
    let mut gen = build(DatasetKind::Hospital, small_scale());
    let cons = parse_constraints(&gen.constraints_text, &mut gen.dirty).unwrap();
    let violations = find_violations(&gen.dirty, &cons);
    let mut noisy: FxHashSet<_> = FxHashSet::default();
    for v in &violations {
        noisy.extend(v.cells.iter().copied());
    }
    let stats = CooccurStats::build(&gen.dirty);
    let matches = Default::default();
    let config = HoloConfig::default();
    let model = compile(&CompileInput {
        ds: &gen.dirty,
        constraints: &cons,
        noisy: &noisy,
        violations: &violations,
        stats: &stats,
        matches: &matches,
        config: &config,
    })
    .unwrap();
    group.bench_function("sgd_training", |b| {
        b.iter(|| {
            let mut w = model.weights.clone();
            black_box(holo_factor::learn::train(
                &model.graph,
                &mut w,
                &config.learn,
            ))
        })
    });
    let mut weights = model.weights.clone();
    holo_factor::learn::train(&model.graph, &mut weights, &config.learn);
    group.bench_function("exact_unary_marginals", |b| {
        b.iter(|| black_box(holo_factor::Marginals::exact_unary(&model.graph, &weights)))
    });
    group.finish();
}

/// The Learn stage in isolation, through the same [`Stage`] seam the
/// pipeline drives: Detect + Compile run once to fill the blackboard,
/// then each iteration re-trains from the model's priors. `threads_1` vs
/// `threads_all` isolates the minibatch-shard parallelism of
/// `learn::train_with_threads` (bit-for-bit identical outputs; wall-clock
/// only).
fn bench_learn_stage(c: &mut Criterion) {
    use holoclean::pipeline::{
        CompileStage, DetectStage, LearnStage, PipelineContext, Stage, StageData,
    };
    let mut group = c.benchmark_group("learn_stage");
    group.sample_size(10);
    let mut gen = build(DatasetKind::Hospital, small_scale());
    let cons = parse_constraints(&gen.constraints_text, &mut gen.dirty).unwrap();
    for (label, threads) in [("threads_1", 1usize), ("threads_all", 0usize)] {
        let cx = PipelineContext::new(
            gen.dirty.clone(),
            cons.clone(),
            HoloConfig::default().with_threads(threads),
        );
        let mut data = StageData::default();
        DetectStage.run(&cx, &mut data).unwrap();
        CompileStage.run(&cx, &mut data).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                LearnStage.run(&cx, &mut data).unwrap();
                black_box(data.weights.as_ref().unwrap().learnable_norm())
            })
        });
    }
    group.finish();
}

fn bench_gibbs(c: &mut Criterion) {
    let mut group = c.benchmark_group("gibbs");
    group.sample_size(10);
    let mut gen = build(DatasetKind::Hospital, small_scale());
    let cons = parse_constraints(&gen.constraints_text, &mut gen.dirty).unwrap();
    let violations = find_violations(&gen.dirty, &cons);
    let mut noisy: FxHashSet<_> = FxHashSet::default();
    for v in &violations {
        noisy.extend(v.cells.iter().copied());
    }
    let stats = CooccurStats::build(&gen.dirty);
    let matches = Default::default();
    let config = HoloConfig::default().with_variant(ModelVariant::DcFactorsPartitioned);
    let model = compile(&CompileInput {
        ds: &gen.dirty,
        constraints: &cons,
        noisy: &noisy,
        violations: &violations,
        stats: &stats,
        matches: &matches,
        config: &config,
    })
    .unwrap();
    let weights = model.weights.clone();
    let ctx = holoclean::context::DatasetContext::new(&gen.dirty);
    group.bench_function("ten_sweeps_with_cliques", |b| {
        b.iter(|| {
            let mut sampler = holo_factor::GibbsSampler::new(&model.graph, &weights, &ctx, 11);
            for _ in 0..10 {
                sampler.sweep();
            }
            black_box(sampler.state().len())
        })
    });
    // Same total sample budget, split 1-way vs 4-way: on a multi-core
    // machine the 4-chain run should approach a 4x wall-clock win.
    for (label, chains, threads) in [("chains_1", 1usize, 1usize), ("chains_4", 4, 0)] {
        let gibbs = holo_factor::GibbsConfig {
            burn_in: 5,
            samples: 40,
            chains,
            ..Default::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(holo_factor::run_chains(
                    &model.graph,
                    &weights,
                    &ctx,
                    &gibbs,
                    threads,
                ))
            })
        });
    }
    group.finish();
}

/// Partitioned hybrid inference vs the monolithic multi-chain sampler it
/// replaces, over the same compiled clique model and the same sampling
/// budget. The partitioned arm decomposes the graph into connected
/// components, solves clique-free ones in closed form, enumerates small
/// coupled ones exactly and samples only the rest (concurrently); the
/// monolithic arm sweeps every query variable of the whole graph. On a
/// multi-core runner the partitioned arm additionally parallelises across
/// components; even single-core it wins by routing most variables away
/// from sampling.
/// The blocked branch-free dot-product kernel behind
/// [`score_var_into`](holo_factor::DesignMatrix::score_var_into) against
/// the pre-blocked per-row map-multiply-sum it replaced, priced over
/// every query variable of the compiled hospital model — the exact score
/// loop every Gibbs sweep and SGD epoch runs hottest. The `blocked` arm
/// must beat `naive_rows`; the committed `BENCH_*.json` snapshot records
/// the margin.
fn bench_gibbs_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("gibbs_kernel");
    let mut gen = build(DatasetKind::Hospital, small_scale());
    let cons = parse_constraints(&gen.constraints_text, &mut gen.dirty).unwrap();
    let violations = find_violations(&gen.dirty, &cons);
    let mut noisy: FxHashSet<_> = FxHashSet::default();
    for v in &violations {
        noisy.extend(v.cells.iter().copied());
    }
    let stats = CooccurStats::build(&gen.dirty);
    let matches = Default::default();
    let config = HoloConfig::default();
    let model = compile(&CompileInput {
        ds: &gen.dirty,
        constraints: &cons,
        noisy: &noisy,
        violations: &violations,
        stats: &stats,
        matches: &matches,
        config: &config,
    })
    .unwrap();
    let weights = model.weights.clone();
    let design = model.graph.design();
    group.bench_function("blocked", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            let mut acc = 0.0f64;
            for &v in &model.query_vars {
                design.score_var_into(v, &weights, &mut out);
                acc += out.iter().sum::<f64>();
            }
            black_box(acc)
        })
    });
    group.bench_function("naive_rows", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            let mut acc = 0.0f64;
            for &v in &model.query_vars {
                design.score_var_into_naive(v, &weights, &mut out);
                acc += out.iter().sum::<f64>();
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_infer_partitioned(c: &mut Criterion) {
    let mut group = c.benchmark_group("infer_partitioned");
    group.sample_size(10);
    let mut gen = build(DatasetKind::Hospital, small_scale());
    let cons = parse_constraints(&gen.constraints_text, &mut gen.dirty).unwrap();
    let violations = find_violations(&gen.dirty, &cons);
    let mut noisy: FxHashSet<_> = FxHashSet::default();
    for v in &violations {
        noisy.extend(v.cells.iter().copied());
    }
    let stats = CooccurStats::build(&gen.dirty);
    let matches = Default::default();
    let config = HoloConfig::default().with_variant(ModelVariant::DcFeatsDcFactors);
    let model = compile(&CompileInput {
        ds: &gen.dirty,
        constraints: &cons,
        noisy: &noisy,
        violations: &violations,
        stats: &stats,
        matches: &matches,
        config: &config,
    })
    .unwrap();
    let weights = model.weights.clone();
    let ctx = holoclean::context::DatasetContext::new(&gen.dirty);
    let gibbs = holo_factor::GibbsConfig {
        burn_in: 5,
        samples: 40,
        ..Default::default()
    };
    let _ = model.graph.components(); // build the index outside the loop
    group.bench_function("partitioned_hybrid", |b| {
        b.iter(|| {
            let (m, stats) = holo_factor::infer_partitioned(
                &model.graph,
                &weights,
                &ctx,
                &holo_factor::PartitionedConfig {
                    gibbs,
                    exact_limit: config.exact_component_limit,
                    chromatic: config.chromatic_gibbs,
                    score_cache: config.score_cache,
                },
                0,
            );
            black_box((m.len(), stats.components))
        })
    });
    group.bench_function("monolithic_gibbs", |b| {
        b.iter(|| {
            black_box(holo_factor::run_chains(
                &model.graph,
                &weights,
                &ctx,
                &gibbs,
                0,
            ))
        })
    });
    group.finish();
}

/// The frozen-weight score cache, priced two ways over the compiled
/// DC-factor hospital model. The `sweeps_*` pair runs ten sequential
/// Gibbs sweeps with conditionals served from the cache (a memcpy of the
/// variable's row range, cache build included in the measured loop)
/// against the matrix-walk baseline — the cached arm must win, and the
/// committed `BENCH_*.json` snapshot records the margin. The `giant_*`
/// quad prices the Scale-generated single-giant-component workload
/// (`exact_limit = 0` forces every coupled component to sample) across
/// chromatic on/off × cache on/off; all four arms produce bit-identical
/// marginals — the spread is pure wall-clock.
fn bench_gibbs_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("gibbs_cache");
    group.sample_size(10);
    let mut gen = build(DatasetKind::Hospital, small_scale());
    let cons = parse_constraints(&gen.constraints_text, &mut gen.dirty).unwrap();
    let violations = find_violations(&gen.dirty, &cons);
    let mut noisy: FxHashSet<_> = FxHashSet::default();
    for v in &violations {
        noisy.extend(v.cells.iter().copied());
    }
    let stats = CooccurStats::build(&gen.dirty);
    let matches = Default::default();
    let config = HoloConfig::default().with_variant(ModelVariant::DcFactorsPartitioned);
    let model = compile(&CompileInput {
        ds: &gen.dirty,
        constraints: &cons,
        noisy: &noisy,
        violations: &violations,
        stats: &stats,
        matches: &matches,
        config: &config,
    })
    .unwrap();
    let weights = model.weights.clone();
    let ctx = holoclean::context::DatasetContext::new(&gen.dirty);
    group.bench_function("sweeps_uncached", |b| {
        b.iter(|| {
            let mut sampler = holo_factor::GibbsSampler::new(&model.graph, &weights, &ctx, 11);
            for _ in 0..10 {
                sampler.sweep();
            }
            black_box(sampler.state().len())
        })
    });
    group.bench_function("sweeps_cached", |b| {
        b.iter(|| {
            let cache = holo_factor::ScoreCache::build(model.graph.design(), &weights, 0);
            let mut sampler = holo_factor::GibbsSampler::new(&model.graph, &weights, &ctx, 11)
                .with_score_cache(&cache);
            for _ in 0..10 {
                sampler.sweep();
            }
            black_box(sampler.state().len())
        })
    });
    let gibbs = holo_factor::GibbsConfig {
        burn_in: 5,
        samples: 40,
        ..Default::default()
    };
    let _ = model.graph.components(); // build the index outside the loop
    for (label, chromatic, score_cache) in [
        ("giant_seq_nocache", false, false),
        ("giant_seq_cache", false, true),
        ("giant_chromatic_nocache", true, false),
        ("giant_chromatic_cache", true, true),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let (m, s) = holo_factor::infer_partitioned(
                    &model.graph,
                    &weights,
                    &ctx,
                    &holo_factor::PartitionedConfig {
                        gibbs,
                        exact_limit: 0,
                        chromatic,
                        score_cache,
                    },
                    0,
                );
                black_box((m.len(), s.gibbs_vars))
            })
        });
    }
    group.finish();
}

/// The feedback loop's design-matrix maintenance, isolated: pinning user
/// labels (out-of-domain values, the expensive case — each appends a
/// candidate row) against a compiled hospital model, then scoring. The
/// `patched` arm keeps the matrix in sync through the in-place splice path
/// `pin_evidence` uses; the `full_rebuild` arm forces the recompile the
/// pre-incremental engine paid on every retrain round. Both arms clone the
/// same compiled graph; the delta is the maintenance strategy.
fn bench_feedback_retrain(c: &mut Criterion) {
    let mut group = c.benchmark_group("feedback_retrain");
    group.sample_size(10);
    let mut gen = build(DatasetKind::Hospital, small_scale());
    let cons = parse_constraints(&gen.constraints_text, &mut gen.dirty).unwrap();
    let violations = find_violations(&gen.dirty, &cons);
    let mut noisy: FxHashSet<_> = FxHashSet::default();
    for v in &violations {
        noisy.extend(v.cells.iter().copied());
    }
    let stats = CooccurStats::build(&gen.dirty);
    let matches = Default::default();
    let config = HoloConfig::default();
    let model = compile(&CompileInput {
        ds: &gen.dirty,
        constraints: &cons,
        noisy: &noisy,
        violations: &violations,
        stats: &stats,
        matches: &matches,
        config: &config,
    })
    .unwrap();
    let mut ds = gen.dirty.clone();
    let labels: Vec<_> = model
        .query_vars
        .iter()
        .copied()
        .take(8)
        .enumerate()
        .map(|(i, v)| (v, ds.intern(&format!("user-label-{i}"))))
        .collect();
    assert!(!labels.is_empty());
    group.bench_function("pin_patched", |b| {
        b.iter(|| {
            let mut g = model.graph.clone();
            for &(v, sym) in &labels {
                g.pin_evidence(v, sym);
            }
            let nnz = g.design().nnz();
            assert_eq!(g.design_stats().full_builds, 1, "no rebuild after compile");
            black_box(nnz)
        })
    });
    group.bench_function("pin_full_rebuild", |b| {
        b.iter(|| {
            let mut g = model.graph.clone();
            // Drop the cache *first* so the pins route through the dirty
            // set — exactly the pre-incremental engine's behavior (mark,
            // then recompile everything on the next scoring access).
            g.invalidate_design();
            for &(v, sym) in &labels {
                g.pin_evidence(v, sym);
            }
            black_box(g.design().nnz())
        })
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    let gen = build(DatasetKind::Hospital, small_scale());
    group.bench_function("hospital_pipeline", |b| {
        b.iter(|| {
            let outcome = HoloClean::new(gen.dirty.clone())
                .with_constraint_text(&gen.constraints_text)
                .unwrap()
                .run()
                .unwrap();
            black_box(outcome.report.repairs.len())
        })
    });
    group.finish();
}

/// The headline parallelism measurement: the same hospital pipeline with
/// `threads = 1` (the sequential engine) vs `threads = 0` (all cores).
/// Both produce bit-for-bit identical repairs; only the wall-clock should
/// differ. Run on a multi-core machine, `threads_all / threads_1` is the
/// engine's end-to-end speedup.
fn bench_end_to_end_parallelism(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_threads");
    group.sample_size(10);
    let gen = build(DatasetKind::Hospital, small_scale());
    for (label, threads) in [("threads_1", 1usize), ("threads_all", 0usize)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let outcome = HoloClean::new(gen.dirty.clone())
                    .with_constraint_text(&gen.constraints_text)
                    .unwrap()
                    .with_config(HoloConfig::default().with_threads(threads))
                    .run()
                    .unwrap();
                black_box(outcome.report.repairs.len())
            })
        });
    }
    group.finish();
}

/// Streaming ingestion: per-batch cost of the incremental engine, patched
/// path vs the `invalidate_design` full-recompute path
/// (`StreamConfig::force_full_rebuild` recompiles every cell and rebuilds
/// the design matrix and component index from scratch each batch — the
/// behaviour the in-place patching replaces). Also prices the one-shot
/// pipeline over the same rows as the amortisation baseline.
fn bench_stream_ingest(c: &mut Criterion) {
    use holoclean::stream::StreamSession;
    let mut group = c.benchmark_group("stream_ingest");
    group.sample_size(10);
    let gen = build(DatasetKind::Hospital, small_scale());
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
    let batches = 8usize;
    let mut config = HoloConfig::default().with_threads(1);
    config.tau = gen.kind.paper_tau();
    for (label, full_rebuild) in [("patched", false), ("full_rebuild", true)] {
        let mut config = config.clone();
        config.stream.force_full_rebuild = full_rebuild;
        config.stream.refine_each_batch = false; // isolate maintenance cost
        group.bench_function(BenchmarkId::new("per_batch", label), |b| {
            b.iter(|| {
                let mut session = StreamSession::new(
                    gen.dirty.schema().clone(),
                    &gen.constraints_text,
                    config.clone(),
                )
                .unwrap();
                for chunk in rows.chunks(rows.len().div_ceil(batches)) {
                    black_box(session.push_batch(chunk).unwrap());
                }
                black_box(session.report().repairs.len())
            })
        });
    }
    group.bench_function(BenchmarkId::new("per_batch", "one_shot_baseline"), |b| {
        b.iter(|| {
            let mut config = config.clone();
            config.tau = gen.kind.paper_tau();
            let outcome = HoloClean::new(gen.dirty.clone())
                .with_constraint_text(&gen.constraints_text)
                .unwrap()
                .with_config(config)
                .run()
                .unwrap();
            black_box(outcome.report.repairs.len())
        })
    });
    group.finish();
}

/// Full-CRUD streaming: per-feed cost when every batch is corrupted on
/// entry (a mangled first row plus a decoy row) and healed with
/// `push_updates`/`push_deletes` before the next batch, ending in one
/// exact read. `scheduled` compacts every second mutation batch
/// (`compact_every = 2`); `lazy` (`compact_every = 0`) defers every
/// compaction to the final exact read. The spread prices what the
/// schedule buys: smaller retired/pinned carry-over per tick versus one
/// big deferred rebuild.
fn bench_stream_crud(c: &mut Criterion) {
    use holo_dataset::TupleId;
    use holoclean::stream::StreamSession;
    let mut group = c.benchmark_group("stream_crud");
    group.sample_size(10);
    let gen = build(DatasetKind::Hospital, small_scale());
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
    let arity = gen.dirty.schema().len();
    let batches = 8usize;
    let mut config = HoloConfig::default().with_threads(1);
    config.tau = gen.kind.paper_tau();
    config.stream.refine_each_batch = false; // isolate maintenance cost
    for (label, compact_every) in [("lazy", 0usize), ("scheduled", 2usize)] {
        let mut config = config.clone();
        config.stream.compact_every = compact_every;
        group.bench_function(BenchmarkId::new("per_feed", label), |b| {
            b.iter(|| {
                let mut session = StreamSession::new(
                    gen.dirty.schema().clone(),
                    &gen.constraints_text,
                    config.clone(),
                )
                .unwrap();
                for chunk in rows.chunks(rows.len().div_ceil(batches)) {
                    let base = session.dataset().tuple_count() as u32;
                    let mut staged = chunk.to_vec();
                    staged[0][0].push_str("~typo");
                    staged.push((0..arity).map(|a| format!("~decoy{a}")).collect());
                    session.push_batch(&staged).unwrap();
                    session
                        .push_deletes(&[TupleId(base + chunk.len() as u32)])
                        .unwrap();
                    session
                        .push_updates(&[(TupleId(base), chunk[0].clone())])
                        .unwrap();
                }
                black_box(session.report().repairs.len())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_violation_detection,
    bench_statistics,
    bench_pruning,
    bench_compile_variants,
    bench_learning_and_inference,
    bench_learn_stage,
    bench_gibbs,
    bench_gibbs_kernel,
    bench_infer_partitioned,
    bench_gibbs_cache,
    bench_feedback_retrain,
    bench_stream_ingest,
    bench_stream_crud,
    bench_end_to_end,
    bench_end_to_end_parallelism
);

/// Runs the groups, then persists the run as a
/// `BENCH_<date>_<unix-secs>.json` snapshot in the workspace root via
/// the shared [`holo_bench::json`] writer — the committed perf
/// trajectory the repo tracks across PRs. The unix-seconds suffix keeps
/// two runs on the same day from silently overwriting each other
/// (`bench_diff` orders on the parsed `(date, secs)` key, so suffixed
/// and legacy date-only names interleave correctly). Smoke runs
/// (`cargo test --benches`) and filtered runs that produced no samples
/// write nothing.
fn main() {
    let criterion = benches();
    if criterion.is_test_mode() || criterion.records().is_empty() {
        return;
    }
    match write_snapshot(criterion.records()) {
        Ok(path) => println!("perf snapshot written to {path}"),
        Err(e) => eprintln!("perf snapshot not written: {e}"),
    }
}

fn write_snapshot(records: &[BenchRecord]) -> std::io::Result<String> {
    use holo_bench::json::JsonObj;
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_unix(secs);
    let mut rows = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        let mut o = JsonObj::new();
        o.field_str("label", &r.label);
        o.field_u64("mean_ns", r.mean_ns);
        o.field_u64("median_ns", r.median_ns);
        o.field_u64("min_ns", r.min_ns);
        o.field_u64("samples", r.samples);
        rows.push_str(&o.finish());
    }
    rows.push(']');
    let mut top = JsonObj::new();
    top.field_str("bench", "pipeline");
    top.field_str("date", &format!("{y:04}-{m:02}-{d:02}"));
    top.field_u64("unix_secs", secs);
    top.field_raw("benchmarks", &rows);
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = format!("{root}/BENCH_{y:04}-{m:02}-{d:02}_{secs}.json");
    std::fs::write(&path, top.finish() + "\n")?;
    Ok(path)
}

/// Unix seconds → UTC civil date (Howard Hinnant's days algorithm).
fn civil_from_unix(secs: u64) -> (i64, u32, u32) {
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = yoe + era * 400 + i64::from(m <= 2);
    (y, m, d)
}
