//! Dumps the full repair list of a default-config hospital run, one line
//! per repair, for before/after equivalence diffs during refactors.
//!
//! With `--marginals`, additionally dumps every query cell's posterior
//! (one `MARGINAL` line per cell, candidates in domain order, printed at
//! shortest round-trip precision so any bit-level probability change
//! shows in a diff) — repairs only surface the MAP candidate, so this is
//! the view that diffs exact-vs-Gibbs routing changes which move
//! probability mass without flipping any repair.
//!
//! With `--stream K`, the dataset is ingested in K batches through the
//! incremental `StreamSession` instead of the one-shot pipeline. The
//! streaming engine's equivalence contract says the output is
//! **byte-identical** either way — CI runs both and diffs them. Adding
//! `--crud` corrupts every batch on entry (a mangled first row plus a
//! decoy row) and heals it with `push_updates`/`push_deletes`, so the
//! live table — and therefore the dump — still matches one-shot byte
//! for byte, now exercising tombstones, retraction and compaction.
//!
//! With `--dc-factors`, the denial constraints ground as clique factors
//! (the partitioned DC-factor variant) so the dump exercises the exact
//! and Gibbs engines — streamed DC grounding rides clique retirement
//! plus compaction, so `--dc-factors --stream` is a supported pair;
//! with `--no-score-cache`, the frozen-weight score cache is disabled.
//! The cache is a pure wall-clock knob, so CI diffs the dump with it on
//! vs off — byte-identical output is the contract. `--naive-stats` routes
//! co-occurrence statistics through the hash-map oracle instead of the
//! dense count blocks — also pure wall-clock, diffed the same way.
//!
//! `--cor-strength F` enables the BClean-style correlation gate on
//! Algorithm 2. Unlike the knobs above it is a *model* change: gated runs
//! legitimately shrink domains, so CI smoke-tests the gated dump instead
//! of byte-pinning it.
//!
//! Flags are parsed strictly (`holo_bench::Args`): a typo'd flag aborts
//! with a usage line and exit code 2 instead of being silently dropped.

use holo_bench::runner::run_holoclean_full;
use holo_bench::{build, Args, Scale};
use holo_datagen::DatasetKind;
use holo_dataset::{Dataset, TupleId};
use holoclean::stream::StreamSession;
use holoclean::{evaluate, HoloConfig, ModelVariant, RepairQuality, RepairReport};

fn main() {
    let args = Args::parse(std::env::args());
    if args.crud && args.stream == 0 {
        eprintln!("error: --crud drives the streaming engine; pass --stream K too");
        std::process::exit(2);
    }
    let gen = build(
        DatasetKind::Hospital,
        Scale {
            factor: args.scale,
            seed: 7,
            full: false,
        },
    );
    let mut config = HoloConfig::default()
        .with_threads(args.threads)
        .with_chromatic_gibbs(args.chromatic)
        .with_score_cache(!args.no_score_cache)
        .with_naive_stats(args.naive_stats)
        .with_cor_strength(args.cor_strength);
    if args.dc_factors {
        config = config.with_variant(ModelVariant::DcFactorsPartitioned);
    }
    let (report, quality, norm, value_of): (
        RepairReport,
        RepairQuality,
        f64,
        Box<dyn Fn(holo_dataset::Sym) -> String>,
    ) = if args.stream > 0 {
        config.tau = gen.kind.paper_tau();
        let mut session =
            StreamSession::new(gen.dirty.schema().clone(), &gen.constraints_text, config)
                .expect("hospital streams every supported variant");
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
        for chunk in rows.chunks(rows.len().div_ceil(args.stream)) {
            if args.crud {
                // Corrupt the batch on entry — mangle its first row and
                // append a decoy — then heal with a delete and an update,
                // leaving the live table byte-identical to a plain ingest.
                let base = session.dataset().tuple_count() as u32;
                let mut staged = chunk.to_vec();
                staged[0][0].push_str("~typo");
                staged.push((0..arity).map(|a| format!("~decoy{a}")).collect());
                session.push_batch(&staged).expect("batch ingest");
                session
                    .push_deletes(&[TupleId(base + chunk.len() as u32)])
                    .expect("decoy delete");
                session
                    .push_updates(&[(TupleId(base), chunk[0].clone())])
                    .expect("healing update");
            } else {
                session.push_batch(chunk).expect("batch ingest");
            }
        }
        let report = session.report();
        // The report speaks one-shot coordinates (live tuple ranks, dense
        // first-appearance symbols), not the session's physical ones —
        // resolve and score it against a freshly-interned live table.
        let mut dense = Dataset::new(gen.dirty.schema().clone());
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
        let quality = evaluate(&report, &dense, &gen.clean);
        let norm = session.weights().learnable_norm();
        (
            report,
            quality,
            norm,
            Box::new(move |s| dense.value_str(s).to_string()),
        )
    } else {
        let (out, _model, weights) = run_holoclean_full(&gen, config, None, false);
        let ds = gen.dirty.clone();
        (
            out.report,
            out.quality,
            weights.learnable_norm(),
            Box::new(move |s| ds.value_str(s).to_string()),
        )
    };

    let mut lines: Vec<String> = report
        .repairs
        .iter()
        .map(|r| {
            format!(
                "{:?} {:?} -> {:?} p={:.12}",
                r.cell, r.old_value, r.new_value, r.probability
            )
        })
        .collect();
    lines.sort();
    for l in &lines {
        println!("{l}");
    }
    if args.marginals {
        let mut mlines: Vec<String> = report
            .posteriors
            .iter()
            .map(|p| {
                let cands: Vec<String> = p
                    .candidates
                    .iter()
                    .map(|(sym, pr)| format!("{:?}={pr}", value_of(*sym)))
                    .collect();
                format!("MARGINAL {:?} {}", p.cell, cands.join(" "))
            })
            .collect();
        mlines.sort();
        for l in &mlines {
            println!("{l}");
        }
    }
    println!(
        "TOTAL {} repairs, P={:.6} R={:.6} F1={:.6}, |w|={:.12}",
        lines.len(),
        quality.precision,
        quality.recall,
        quality.f1,
        norm
    );
}
