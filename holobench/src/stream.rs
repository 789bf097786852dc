//! The `hospital-crud` workload: hospital fed to a `StreamSession` in
//! [`BATCHES`] batches, each corrupted on entry (a mangled first row plus a
//! decoy row) and healed with one delete and one update, then read exactly
//! with `report()`. The live table ends equal to the generated one, so the
//! report must equal a one-shot repair of it bit for bit.

use crate::oneshot::{compile_counters, dataset_counters, infer_counters, learn_counters};
use crate::stats::{self, median};
use crate::trace::{as_ms, Tracer};
use crate::{end_to_end, fingerprint, repeat_setup, RunResult, Workload};
use holo_datagen::GeneratedDataset;
use holo_dataset::{Dataset, TupleId};
use holoclean::stream::StreamSession;
use holoclean::{evaluate, HoloClean, HoloConfig, HoloError, RepairQuality, RepairReport};
use std::time::{Duration, Instant};

/// Ingest batches per feed.
pub const BATCHES: usize = 16;

/// Feeds a run makes at least: one per panel table, and 3 × 48 mutation
/// calls put at least ten samples beyond their 90th percentile.
const MIN_FEEDS: usize = 3;
const _: () = assert!(MIN_FEEDS as u64 >= crate::PANEL);

/// One mutation call of the feed script.
enum Op {
    Insert(Vec<Vec<String>>),
    Delete(Vec<TupleId>),
    Update(Vec<(TupleId, Vec<String>)>),
}

impl Op {
    fn name(&self) -> &'static str {
        match self {
            Op::Insert(_) => "insert",
            Op::Delete(_) => "delete",
            Op::Update(_) => "update",
        }
    }

    fn apply(&self, s: &mut StreamSession) -> Result<(), HoloError> {
        match self {
            Op::Insert(rows) => s.push_batch(rows),
            Op::Delete(ids) => s.push_deletes(ids),
            Op::Update(rows) => s.push_updates(rows),
        }
        .map(drop)
    }
}

/// The workload's inputs: the generated table, the feed script and the
/// session configuration.
struct Feed {
    gen: GeneratedDataset,
    ops: Vec<Op>,
    config: HoloConfig,
}

impl Feed {
    /// Generates the table and writes the corrupt-and-heal script over it:
    /// per batch, insert the rows with the first one mangled plus a decoy
    /// row, delete the decoy, and restore the first row.
    fn new(gen: GeneratedDataset) -> Feed {
        let w = Workload::HospitalCrud;
        let ds = &gen.dirty;
        let rows: Vec<Vec<String>> = ds
            .tuples()
            .map(|t| {
                ds.schema()
                    .attrs()
                    .map(|a| ds.cell_str(t, a).to_string())
                    .collect()
            })
            .collect();
        let arity = ds.schema().len();
        let mut ops = Vec::new();
        let mut base = 0u32;
        for chunk in rows.chunks(rows.len().div_ceil(BATCHES)) {
            let mut staged = chunk.to_vec();
            staged[0][0].push_str("~typo");
            staged.push((0..arity).map(|a| format!("~decoy{a}")).collect());
            let decoy = TupleId(base + chunk.len() as u32);
            ops.push(Op::Insert(staged));
            ops.push(Op::Delete(vec![decoy]));
            ops.push(Op::Update(vec![(TupleId(base), chunk[0].clone())]));
            base += chunk.len() as u32 + 1;
        }
        let config = w.config(gen.kind, w.threads());
        Feed { gen, ops, config }
    }

    fn session(&self) -> Result<StreamSession, HoloError> {
        StreamSession::new(
            self.gen.dirty.schema().clone(),
            &self.gen.constraints_text,
            self.config.clone(),
        )
    }

    /// Fingerprint and quality of a session report. The report speaks
    /// one-shot coordinates over the live table, so its symbols resolve
    /// through a freshly interned copy of that table.
    fn judge(&self, s: &StreamSession, report: &RepairReport) -> (Vec<String>, RepairQuality) {
        let live = s.dataset();
        let mut dense = Dataset::new(live.schema().clone());
        for t in live.tuples() {
            let row: Vec<&str> = live.schema().attrs().map(|a| live.cell_str(t, a)).collect();
            dense.push_row(&row);
        }
        let quality = evaluate(report, &dense, &self.gen.clean);
        (fingerprint(report, &dense), quality)
    }

    /// The one-shot repair of the table the feed leaves live, at
    /// [`Workload::check_threads`].
    fn reference(&self) -> Result<Vec<String>, HoloError> {
        let threads = Workload::HospitalCrud.check_threads();
        let (outcome, _, _) = HoloClean::new(self.gen.dirty.clone())
            .with_constraint_text(&self.gen.constraints_text)?
            .with_config(self.config.clone().with_threads(threads))
            .run_full()?;
        Ok(fingerprint(&outcome.report, &outcome.dataset))
    }
}

/// Per-call latencies of one untraced feed.
#[derive(Default)]
struct FeedTimes {
    /// `(op name, ms)` of every mutation call.
    ops: Vec<(&'static str, f64)>,
    report_ms: f64,
    /// The whole feed plus `report()`.
    total: Duration,
    quality: RepairQuality,
}

/// Runs the whole feed untraced, counting each call into `out`.
fn run_feed(feed: &Feed, reference: &[String], out: &mut RunResult) -> Option<FeedTimes> {
    let session = feed.session();
    out.call(session.is_ok());
    let mut s = session.ok()?;
    let mut times = FeedTimes::default();
    let start = Instant::now();
    for op in &feed.ops {
        let t0 = Instant::now();
        let r = op.apply(&mut s);
        times.ops.push((op.name(), as_ms(t0.elapsed())));
        out.call(r.is_ok());
        r.ok()?;
    }
    let t0 = Instant::now();
    let report = s.report();
    times.report_ms = as_ms(t0.elapsed());
    times.total = start.elapsed();
    let (fp, quality) = feed.judge(&s, &report);
    out.call(fp == reference);
    times.quality = quality;
    Some(times)
}

/// Untraced run: set-up of the panel, repeated (see [`repeat_setup`]); the
/// one-shot reference of each table, then timed feeds cycling over the
/// panel for `seconds`, each between two runs of the calibration kernel.
pub fn measure(seed: u64, seconds: f64) -> RunResult {
    let w = Workload::HospitalCrud;
    let mut out = RunResult::new();
    let (setup, feeds) = repeat_setup(|| {
        let feeds: Vec<Feed> = w.panel(seed).into_iter().map(Feed::new).collect();
        for feed in &feeds {
            out.call(feed.session().is_ok());
        }
        feeds
    });
    let mut references = Vec::new();
    for feed in &feeds {
        let reference = feed.reference();
        out.call(reference.is_ok());
        let Ok(r) = reference else { return out };
        references.push(r);
    }

    let mut runs: Vec<FeedTimes> = Vec::new();
    // `(table, feed wall time, calibration)`, the calibration being the
    // mean of the kernel's runs just before and just after the feed.
    let mut totals = Vec::new();
    let mut quality = vec![None; feeds.len()];
    let start = Instant::now();
    for i in (0..feeds.len()).cycle() {
        if start.elapsed().as_secs_f64() >= seconds && (runs.len() >= MIN_FEEDS || out.failed > 0) {
            break;
        }
        let before = stats::calibrate();
        let run = run_feed(&feeds[i], &references[i], &mut out);
        let after = stats::calibrate();
        if let Some(run) = run {
            quality[i].get_or_insert(run.quality);
            totals.push((i, run.total.as_secs_f64(), (before + after) / 2.0));
            runs.push(run);
        }
    }
    let ops = |kind: Option<&str>| -> Vec<f64> {
        runs.iter()
            .flat_map(|f| &f.ops)
            .filter(|o| kind.is_none_or(|k| o.0 == k))
            .map(|o| o.1)
            .collect()
    };
    let reports: Vec<f64> = runs.iter().map(|f| f.report_ms).collect();
    out.notes.push(format!(
        "calls insert_ms_p50={} update_ms_p50={} delete_ms_p50={} op_ms_p90={} (n={}) report_ms={}",
        median(&ops(Some("insert"))),
        median(&ops(Some("update"))),
        median(&ops(Some("delete"))),
        stats::percentile(&ops(None), 0.9).unwrap_or(f64::NAN),
        ops(None).len(),
        median(&reports),
    ));
    let quality: Vec<RepairQuality> = quality.into_iter().flatten().collect();
    end_to_end(&mut out, &setup, &totals, &quality);
    out
}

/// Traced run: untraced feeds alternate with traced ones for `seconds`.
/// A traced feed spans every session call; the compaction the exact read
/// would take lazily is taken explicitly first, so it gets its own span.
/// The session's cumulative counters are read once the feed is done.
pub fn trace(seed: u64, seconds: f64) -> RunResult {
    let mut out = RunResult::new();
    let feed = Feed::new(Workload::HospitalCrud.panel(seed).swap_remove(0));
    let reference = feed.reference();
    out.call(reference.is_ok());
    let Ok(reference) = reference else {
        return out;
    };
    let mut t = Tracer::new();
    let mut untraced = Vec::new();
    let mut last: Option<(StreamSession, usize)> = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || (untraced.len() < MIN_FEEDS && out.failed == 0)
    {
        untraced.extend(run_feed(&feed, &reference, &mut out).map(|f| f.total.as_secs_f64()));
        let session = feed.session();
        out.call(session.is_ok());
        let Ok(mut s) = session else { continue };
        let report = t.span("feed", 1, |t| -> Result<RepairReport, HoloError> {
            for op in &feed.ops {
                let r = t.span(op.name(), 1, |_| op.apply(&mut s));
                out.call(r.is_ok());
                r?;
            }
            let r = t.span("compact", 1, |_| s.compact());
            out.call(r.is_ok());
            r?;
            Ok(t.span("report", 1, |_| s.report()))
        });
        out.call(
            report
                .as_ref()
                .is_ok_and(|r| feed.judge(&s, r).0 == reference),
        );
        if let Ok(r) = report {
            last = Some((s, r.repairs.len()));
        }
    }

    let coverage = t.coverage("feed");
    out.checks_hold = coverage >= 0.95;
    out.notes.extend(t.summary());
    out.notes.push(format!(
        "coverage in-path/feed={coverage} (holds >= 0.95: {})",
        out.checks_hold
    ));
    let mut ops = t.samples_ms("insert");
    ops.extend(t.samples_ms("update"));
    ops.extend(t.samples_ms("delete"));
    out.metric("stream.insert_ms", t.median_ms("insert"));
    out.metric("stream.update_ms", t.median_ms("update"));
    out.metric("stream.delete_ms", t.median_ms("delete"));
    if let Some(p90) = stats::percentile(&ops, 0.9) {
        out.metric("stream.op_ms_p90", p90);
    }
    out.metric("stream.calls", ops.len() as f64);
    out.metric("stream.compact_ms", t.median_ms("compact"));
    out.metric("stream.report_ms", t.median_ms("report"));
    if let Some((s, repairs)) = &last {
        out.metric("repair.repairs", *repairs as f64);
        let timings = s.timings();
        let ingest = s.ingest_stats();
        let retire = s.retire_stats();
        out.metric("stream.detect_ms", as_ms(timings.detect));
        out.metric("stream.compile_ms", as_ms(timings.compile));
        out.metric("stream.learn_ms", as_ms(timings.learn));
        out.metric("stream.cells_recomputed", ingest.cells_recomputed as f64);
        out.metric("stream.cells_reused", ingest.cells_reused as f64);
        let touched = (ingest.cells_reused + ingest.cells_recomputed).max(1);
        out.metric(
            "stream.reuse_ratio",
            ingest.cells_reused as f64 / touched as f64,
        );
        out.metric("stream.affected_tuples", ingest.affected_tuples as f64);
        out.metric("stream.delta_violations", ingest.delta_violations as f64);
        out.metric(
            "stream.replay_minibatches",
            ingest.replay_minibatches as f64,
        );
        out.metric("stream.vars_renumbered", retire.vars_renumbered as f64);
        out.metric("stream.compactions", retire.compactions as f64);
        // The layers underneath, as the session exposes them.
        out.metric("constraints.violations", s.violations() as f64);
        out.metric("constraints.noisy_cells", s.noisy_cells() as f64);
        dataset_counters(&mut out, &timings.stats);
        compile_counters(&mut out, s.compile_stats(), &s.design_stats());
        if let Some(ls) = s.learn_stats() {
            learn_counters(&mut out, ls);
        }
        infer_counters(&mut out, &s.partition_stats().unwrap_or_default());
    }
    out.metric("parallel.cpu_util", t.in_path_cpu_util("feed"));
    crate::oneshot::trace_metrics(&mut out, &t, "feed", &untraced);
    out
}
