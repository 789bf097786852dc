//! User feedback and incremental retraining (§2.2, §7).
//!
//! "We can use these marginal probabilities to solicit user feedback. For
//! example, we can ask users to verify repairs with low marginal
//! probabilities and use those as labeled examples to retrain the
//! parameters of HoloClean's model using standard incremental learning
//! and inference techniques."
//!
//! [`FeedbackSession`] implements that loop over a compiled model:
//!
//! 1. [`FeedbackSession::requests`] ranks the query cells by how unsure
//!    the model is (lowest MAP marginal first) — the cells a human should
//!    look at next.
//! 2. [`FeedbackSession::apply_labels`] pins user-verified cells as
//!    evidence variables.
//! 3. [`FeedbackSession::retrain`] re-runs SGD — warm-started from the
//!    current weights (the "incremental" part) — and re-infers marginals
//!    for the still-unlabelled cells.
//!
//! ## Incremental recompilation
//!
//! The model's CSR design matrix is compiled once (by the pipeline's
//! Compile stage) and **patched, never rebuilt**, across the session:
//! each out-of-domain label appends exactly one candidate row to its
//! variable via `DesignMatrix::append_candidate_row`, and in-domain
//! labels change nothing in the matrix at all — so a retrain round's
//! matrix maintenance is a per-label row splice (plus a contiguous
//! suffix-index shift, a plain memmove) instead of re-deriving every row
//! from the nested adjacency.
//! [`FeedbackSession::design_stats`] exposes the counters (a healthy
//! session shows `full_builds == 0` and one patched row per out-of-domain
//! label) and [`FeedbackSession::timings`] accumulates the learn/infer
//! wall-clock of every retrain round alongside them.
//!
//! The graph's component index rides the same contract: pinning a label
//! converts a query variable to evidence *inside* its component (clique
//! scopes are unioned over all members, so no split is ever needed) and
//! re-inference runs partitioned over the patched index —
//! [`FeedbackSession::component_stats`] shows zero full rebuilds for any
//! label sequence, and [`FeedbackSession::partition_stats`] reports how
//! the latest pass routed components between closed form, exact
//! enumeration and Gibbs.

use crate::compile::CompiledModel;
use crate::config::HoloConfig;
use crate::context::DatasetContext;
use crate::pipeline::StageTimings;
use crate::repair::RepairReport;
use holo_dataset::{CellRef, Dataset, FxHashMap, Sym};
use holo_factor::{
    infer_partitioned, learn, ComponentStats, DesignStats, Marginals, PartitionStats,
    PartitionedConfig, Weights,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// A cell the model wants verified, with its current best guess.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedbackRequest {
    /// The cell to verify.
    pub cell: CellRef,
    /// The model's current MAP value.
    pub proposed: String,
    /// The marginal probability of the proposal (low = unsure).
    pub confidence: f64,
}

/// One verified label: the true value of a cell, from the user.
#[derive(Debug, Clone, PartialEq)]
pub struct Label {
    /// The verified cell.
    pub cell: CellRef,
    /// Its true value.
    pub value: String,
}

/// Interactive repair refinement over a compiled model.
pub struct FeedbackSession {
    model: CompiledModel,
    weights: Weights,
    config: HoloConfig,
    /// Cells already pinned by the user.
    labelled: FxHashMap<CellRef, Sym>,
    /// Variables pinned since the last retrain, in label order — the
    /// "recent" tail of a replay-mode retrain
    /// ([`HoloConfig::feedback_replay`]).
    fresh_pins: Vec<holo_factor::VarId>,
    marginals: Marginals,
    /// Learn/infer wall-clock accumulated over retrain rounds, plus the
    /// session-relative design-matrix counters.
    timings: StageTimings,
    /// Design-matrix counters at session start; `design_stats` diffs
    /// against this so the compile-stage full build is not billed to the
    /// session.
    design_baseline: DesignStats,
    /// Component-index counters at session start; `component_stats` diffs
    /// against this so the pipeline's one index build is not billed to
    /// the session — a healthy session never rebuilds the index (pins
    /// leave it untouched by construction).
    component_baseline: ComponentStats,
}

impl FeedbackSession {
    /// Starts a session from a finished run (see
    /// [`HoloClean::run_full`](crate::HoloClean::run_full)) — the model,
    /// its learned weights, and the configuration used.
    pub fn new(model: CompiledModel, weights: Weights, config: HoloConfig, ds: &Dataset) -> Self {
        let design_baseline = model.graph.design_stats();
        // Force the index to exist before snapshotting: a model built
        // straight from `compile()` (never inferred) would otherwise pay
        // its one lazy build inside the initial inference below, billing
        // it to the session and tripping the zero-rebuild contract.
        let _ = model.graph.components();
        let component_baseline = model.graph.component_stats();
        let mut timings = StageTimings::default();
        let t0 = Instant::now();
        let (marginals, partition) = infer(&model, &weights, &config, ds);
        timings.infer += t0.elapsed();
        timings.partition = partition;
        FeedbackSession {
            model,
            weights,
            config,
            labelled: FxHashMap::default(),
            fresh_pins: Vec::new(),
            marginals,
            timings,
            design_baseline,
            component_baseline,
        }
    }

    /// The cells most worth human review: unlabelled query cells ordered
    /// by ascending MAP confidence, truncated to `limit`.
    pub fn requests(&self, ds: &Dataset, limit: usize) -> Vec<FeedbackRequest> {
        let mut out: Vec<FeedbackRequest> = self
            .model
            .query_cells
            .iter()
            .zip(&self.model.query_vars)
            .filter(|(cell, _)| !self.labelled.contains_key(cell))
            .map(|(&cell, &var)| {
                let (k, p) = self.marginals.map_candidate(var);
                FeedbackRequest {
                    cell,
                    proposed: ds
                        .value_str(self.model.graph.var(var).domain[k])
                        .to_string(),
                    confidence: p,
                }
            })
            .collect();
        // `total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: a NaN
        // marginal (possible for degenerate empty-count chains) makes the
        // latter an inconsistent comparator — `sort_by` may panic on one
        // and the order is unspecified. Under the IEEE total order NaN
        // confidences sort last, after every real confidence.
        out.sort_by(|a, b| {
            a.confidence
                .total_cmp(&b.confidence)
                .then(a.cell.cmp(&b.cell))
        });
        out.truncate(limit);
        out
    }

    /// Pins user-verified values. Labels whose value is not among the
    /// cell's candidates are added to the variable's domain on the fly
    /// (the user knows values the statistics never proposed) — which
    /// patches one candidate row into the compiled design matrix instead
    /// of invalidating it. Unknown cells are ignored.
    ///
    /// Each pinned cell's marginal becomes a point mass on the label
    /// immediately, so [`FeedbackSession::report`] reflects the pin (with
    /// probability 1, and a probability vector as long as the extended
    /// domain) even before the next [`FeedbackSession::retrain`].
    pub fn apply_labels(&mut self, ds: &mut Dataset, labels: &[Label]) {
        for label in labels {
            let Some(idx) = self.model.query_cells.iter().position(|&c| c == label.cell) else {
                continue;
            };
            let var = self.model.query_vars[idx];
            let sym = ds.intern(&label.value);
            self.model.graph.pin_evidence(var, sym);
            let pinned = self.model.graph.var(var);
            let k = pinned.evidence.expect("pin_evidence just fixed this var");
            self.marginals.pin(var, k, pinned.arity());
            if self.labelled.insert(label.cell, sym).is_none() {
                self.fresh_pins.push(var);
            }
        }
        self.timings.design = self.design_stats();
        self.timings.components = self.component_stats();
    }

    /// Incremental retraining: SGD warm-started from the current weights
    /// (labelled cells now contribute gradients as evidence), then fresh
    /// inference for the remaining query cells. Both phases read the
    /// patched design matrix — no rebuild happens here — and bill their
    /// wall-clock to [`FeedbackSession::timings`].
    ///
    /// With [`HoloConfig::feedback_replay`] set, the SGD pass is the
    /// streaming warm-start replay trainer instead of the canonical
    /// from-scratch retrain: the window is the freshly pinned cells (the
    /// "recent" tail) plus a seeded sample of older evidence, for
    /// O(replay window) work per round. Off (the default), this method is
    /// bit-for-bit the historical full retrain.
    pub fn retrain(&mut self, ds: &Dataset) -> learn::LearnStats {
        let t0 = Instant::now();
        let stats = if self.config.feedback_replay {
            // Evidence examples in ascending id order, with this round's
            // pins moved to the tail — `train_replay` treats the last
            // `recent` entries as the fresh window.
            let graph = &self.model.graph;
            let mut examples: Vec<holo_factor::VarId> = graph
                .var_ids()
                .filter(|&v| graph.var(v).evidence.is_some() && !self.fresh_pins.contains(&v))
                .collect();
            examples.extend_from_slice(&self.fresh_pins);
            let recent = self
                .fresh_pins
                .len()
                .min(self.config.stream.replay_window.max(1));
            // Both retrain flavors read the design matrix in place, so
            // the rows patched by this session's pins are the rows they
            // train on.
            learn::train_replay(
                graph,
                &mut self.weights,
                &self.config.learn,
                self.config.threads,
                &examples,
                recent,
                self.config.stream.replay_epochs.max(1),
            )
        } else {
            learn::train_with_threads(
                &self.model.graph,
                &mut self.weights,
                &self.config.learn,
                self.config.threads,
            )
        };
        self.fresh_pins.clear();
        self.timings.learn += t0.elapsed();
        let t1 = Instant::now();
        let (marginals, partition) = infer(&self.model, &self.weights, &self.config, ds);
        self.marginals = marginals;
        self.timings.infer += t1.elapsed();
        self.timings.design = self.design_stats();
        self.timings.components = self.component_stats();
        self.timings.partition = partition;
        stats
    }

    /// The current repair report (labelled cells report their pinned value
    /// with probability 1).
    pub fn report(&self, ds: &Dataset) -> RepairReport {
        RepairReport::from_marginals(
            ds,
            &self.model.query_cells,
            &self.model.query_vars,
            &self.model.graph,
            &self.marginals,
        )
    }

    /// Number of labels applied so far.
    pub fn labelled_count(&self) -> usize {
        self.labelled.len()
    }

    /// Design-matrix work done *by this session* (the compile-stage build
    /// is not counted): `full_builds` stays 0 as long as every label went
    /// through the patch path, and `rows_patched` counts one row per
    /// out-of-domain label.
    pub fn design_stats(&self) -> DesignStats {
        self.model.graph.design_stats().since(&self.design_baseline)
    }

    /// Component-index work done *by this session* (the pipeline's one
    /// build is not counted): `full_builds` stays 0 for any label
    /// sequence — pins never restructure the index, and even late cliques
    /// merge it in place.
    pub fn component_stats(&self) -> ComponentStats {
        self.model
            .graph
            .component_stats()
            .since(&self.component_baseline)
    }

    /// How the most recent inference pass (session start or the last
    /// [`FeedbackSession::retrain`]) partitioned the graph and routed its
    /// components between closed form, exact enumeration and Gibbs.
    pub fn partition_stats(&self) -> PartitionStats {
        self.timings.partition
    }

    /// Wall-clock accumulated by this session (initial inference plus
    /// every retrain round), with [`StageTimings::design`] /
    /// [`StageTimings::components`] holding the session-relative counters
    /// and [`StageTimings::partition`] the latest routing snapshot.
    pub fn timings(&self) -> StageTimings {
        self.timings
    }
}

/// Partitioned hybrid inference over the session's model — the same
/// engine the pipeline's Infer stage runs, so a retrain round reuses the
/// patched component index (never rebuilding it) and independent
/// components of the graph re-infer concurrently.
fn infer(
    model: &CompiledModel,
    weights: &Weights,
    config: &HoloConfig,
    ds: &Dataset,
) -> (Marginals, PartitionStats) {
    let ctx = DatasetContext::new(ds);
    infer_partitioned(
        &model.graph,
        weights,
        &ctx,
        &PartitionedConfig {
            gibbs: config.gibbs,
            exact_limit: config.exact_component_limit,
            chromatic: config.chromatic_gibbs,
            score_cache: config.score_cache,
        },
        config.threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate;
    use crate::session::HoloClean;
    use holo_dataset::Schema;

    /// A dataset where half the conflicts are 1-vs-1 ties the model cannot
    /// resolve alone — exactly the cells feedback should surface.
    fn ambiguous_dataset() -> (Dataset, Dataset) {
        let mut dirty = Dataset::new(Schema::new(vec!["Key", "Value"]));
        let mut clean = Dataset::new(Schema::new(vec!["Key", "Value"]));
        // Ten 2-row groups with conflicting values: unknowable ties.
        for i in 0..10 {
            let k = format!("k{i}");
            dirty.push_row(&[k.as_str(), "alpha"]);
            dirty.push_row(&[k.as_str(), "beta"]);
            clean.push_row(&[k.as_str(), "alpha"]);
            clean.push_row(&[k.as_str(), "alpha"]);
        }
        // Plus clean mass so evidence exists.
        for i in 10..40 {
            let k = format!("k{i}");
            for _ in 0..2 {
                dirty.push_row(&[k.as_str(), "gamma"]);
                clean.push_row(&[k.as_str(), "gamma"]);
            }
        }
        (dirty, clean)
    }

    fn session_for(dirty: &Dataset) -> (FeedbackSession, Dataset) {
        let (outcome, model, weights) = HoloClean::new(dirty.clone())
            .with_constraint_text("FD: Key -> Value")
            .unwrap()
            .run_full()
            .unwrap();
        let config = HoloConfig::default();
        let ds = outcome.dataset;
        let session = FeedbackSession::new(model, weights, config, &ds);
        (session, ds)
    }

    #[test]
    fn requests_surface_low_confidence_cells_first() {
        let (dirty, _) = ambiguous_dataset();
        let (session, ds) = session_for(&dirty);
        let requests = session.requests(&ds, 100);
        assert!(!requests.is_empty());
        for pair in requests.windows(2) {
            assert!(pair[0].confidence <= pair[1].confidence + 1e-12);
        }
        // The tied cells sit near 0.5 confidence.
        assert!(requests[0].confidence < 0.75, "{:?}", requests[0]);
    }

    #[test]
    fn labels_pin_cells_and_retraining_propagates() {
        let (dirty, clean) = ambiguous_dataset();
        let (mut session, mut ds) = session_for(&dirty);
        let before = evaluate(&session.report(&ds), &dirty, &clean);

        // Label the five least-confident cells with their true values.
        let requests = session.requests(&ds, 5);
        let labels: Vec<Label> = requests
            .iter()
            .map(|r| Label {
                cell: r.cell,
                value: clean.cell_str(r.cell.tuple, r.cell.attr).to_string(),
            })
            .collect();
        session.apply_labels(&mut ds, &labels);
        assert_eq!(session.labelled_count(), 5);
        session.retrain(&ds);

        let after = evaluate(&session.report(&ds), &dirty, &clean);
        assert!(
            after.correct_repairs >= before.correct_repairs,
            "feedback must not lose correct repairs: {before:?} -> {after:?}"
        );
        // The labelled cells themselves now repair correctly.
        let report = session.report(&ds);
        for label in &labels {
            let truth = clean.cell_str(label.cell.tuple, label.cell.attr);
            let observed = dirty.cell_str(label.cell.tuple, label.cell.attr);
            if truth != observed {
                assert!(
                    report
                        .repairs
                        .iter()
                        .any(|r| r.cell == label.cell && r.new_value == truth),
                    "labelled cell {label:?} must be repaired"
                );
            }
        }
    }

    #[test]
    fn labelling_everything_yields_perfect_labelled_cells() {
        let (dirty, clean) = ambiguous_dataset();
        let (mut session, mut ds) = session_for(&dirty);
        let requests = session.requests(&ds, usize::MAX);
        let labels: Vec<Label> = requests
            .iter()
            .map(|r| Label {
                cell: r.cell,
                value: clean.cell_str(r.cell.tuple, r.cell.attr).to_string(),
            })
            .collect();
        session.apply_labels(&mut ds, &labels);
        session.retrain(&ds);
        let q = evaluate(&session.report(&ds), &dirty, &clean);
        assert_eq!(q.precision, 1.0, "{q:?}");
        assert_eq!(q.recall, 1.0, "{q:?}");
        // Nothing left to ask.
        assert!(session.requests(&ds, 10).is_empty());
    }

    #[test]
    fn out_of_domain_labels_are_accepted() {
        let (dirty, _) = ambiguous_dataset();
        let (mut session, mut ds) = session_for(&dirty);
        let cell = session.requests(&ds, 1)[0].cell;
        session.apply_labels(
            &mut ds,
            &[Label {
                cell,
                value: "omega".to_string(), // never seen anywhere
            }],
        );
        session.retrain(&ds);
        let report = session.report(&ds);
        assert!(report
            .repairs
            .iter()
            .any(|r| r.cell == cell && r.new_value == "omega"));
    }

    /// Regression: a NaN confidence must not panic the ranking (`sort_by`
    /// rejects inconsistent comparators) and must sort *after* every real
    /// confidence under the IEEE total order.
    #[test]
    fn nan_confidences_sort_last_without_panicking() {
        let (dirty, _) = ambiguous_dataset();
        let (mut session, ds) = session_for(&dirty);
        // Poison a handful of marginals with NaN, as a degenerate
        // empty-count chain would.
        let n = session.model.query_vars.len();
        assert!(n >= 4, "need a few query vars");
        for &var in session.model.query_vars.iter().step_by(2) {
            let arity = session.model.graph.var(var).arity();
            let raw: Vec<Vec<f64>> = (0..session.marginals.len())
                .map(|i| {
                    if i == var.index() {
                        vec![f64::NAN; arity]
                    } else {
                        session
                            .marginals
                            .probs(holo_factor::VarId(i as u32))
                            .to_vec()
                    }
                })
                .collect();
            session.marginals = Marginals::from_raw(raw);
        }
        let requests = session.requests(&ds, usize::MAX);
        assert_eq!(requests.len(), n);
        let first_nan = requests
            .iter()
            .position(|r| r.confidence.is_nan())
            .expect("poisoned confidences surface");
        assert!(
            requests[first_nan..].iter().all(|r| r.confidence.is_nan()),
            "NaN confidences must form the tail of the ranking"
        );
        assert!(requests[..first_nan]
            .windows(2)
            .all(|p| p[0].confidence <= p[1].confidence));
    }

    /// Regression: between `apply_labels` and `retrain`, a pinned cell —
    /// even one pinned to an out-of-domain value, which extends the
    /// variable's domain past the stale marginal vector — must already
    /// report its label with probability 1, as the `report` docs promise.
    #[test]
    fn pinned_cells_report_immediately_before_retrain() {
        let (dirty, _) = ambiguous_dataset();
        let (mut session, mut ds) = session_for(&dirty);
        let cells: Vec<CellRef> = session.requests(&ds, 2).iter().map(|r| r.cell).collect();
        session.apply_labels(
            &mut ds,
            &[
                Label {
                    cell: cells[0],
                    value: "omega".to_string(), // out-of-domain: appends a candidate
                },
                Label {
                    cell: cells[1],
                    value: "alpha".to_string(), // in-domain
                },
            ],
        );
        // No retrain yet: the report must already pin both cells.
        let report = session.report(&ds);
        for (cell, value) in [(cells[0], "omega"), (cells[1], "alpha")] {
            let post = report
                .posteriors
                .iter()
                .find(|p| p.cell == cell)
                .expect("pinned cell keeps its posterior");
            let var = session.model.query_vars[session
                .model
                .query_cells
                .iter()
                .position(|&c| c == cell)
                .unwrap()];
            assert_eq!(
                post.candidates.len(),
                session.model.graph.var(var).arity(),
                "posterior covers the extended domain"
            );
            let (sym, p) = post
                .candidates
                .iter()
                .find(|(s, _)| ds.value_str(*s) == value)
                .copied()
                .expect("label among candidates");
            assert_eq!(p, 1.0, "pinned {value} at probability 1, got {sym:?}={p}");
        }
    }

    /// The warm-start replay retrain (`feedback_replay = true`) keeps the
    /// session contracts: labelled cells repair correctly after the
    /// O(window) retrain, and the design matrix is still never rebuilt.
    #[test]
    fn replay_retrain_propagates_labels_without_rebuilds() {
        let (dirty, clean) = ambiguous_dataset();
        let (outcome, model, weights) = HoloClean::new(dirty.clone())
            .with_constraint_text("FD: Key -> Value")
            .unwrap()
            .run_full()
            .unwrap();
        let config = HoloConfig::default().with_feedback_replay(true);
        let mut ds = outcome.dataset;
        let mut session = FeedbackSession::new(model, weights, config, &ds);
        for _ in 0..2 {
            let requests = session.requests(&ds, 4);
            if requests.is_empty() {
                break;
            }
            let labels: Vec<Label> = requests
                .iter()
                .map(|r| Label {
                    cell: r.cell,
                    value: clean.cell_str(r.cell.tuple, r.cell.attr).to_string(),
                })
                .collect();
            session.apply_labels(&mut ds, &labels);
            let stats = session.retrain(&ds);
            assert!(stats.examples > 0, "replay window never empty here");
            let report = session.report(&ds);
            for label in &labels {
                let truth = clean.cell_str(label.cell.tuple, label.cell.attr);
                assert!(
                    report
                        .posteriors
                        .iter()
                        .find(|p| p.cell == label.cell)
                        .and_then(|p| p.candidates.iter().find(|(s, _)| ds.value_str(*s) == truth))
                        .is_some_and(|&(_, p)| p == 1.0),
                    "labelled cell {label:?} pinned at probability 1"
                );
            }
        }
        assert!(session.labelled_count() > 0);
        let stats = session.design_stats();
        assert_eq!(stats.full_builds, 0, "replay retrain never rebuilds");
    }

    /// The acceptance criterion of the incremental path: a multi-round
    /// feedback session (requests → apply_labels → retrain → report, with
    /// in-domain and out-of-domain labels) performs **zero** full design
    /// rebuilds, patches exactly one row per out-of-domain label, and the
    /// patched matrix stays bit-for-bit equal to a from-scratch compile of
    /// the mutated adjacency.
    #[test]
    fn feedback_session_never_rebuilds_the_design_matrix() {
        let (dirty, clean) = ambiguous_dataset();
        let (mut session, mut ds) = session_for(&dirty);
        let mut out_of_domain = 0u64;
        for round in 0..3 {
            let requests = session.requests(&ds, 3);
            if requests.is_empty() {
                break;
            }
            let labels: Vec<Label> = requests
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let value = if i == 0 {
                        out_of_domain += 1;
                        format!("novel-{round}-{i}") // never in any domain
                    } else {
                        clean.cell_str(r.cell.tuple, r.cell.attr).to_string()
                    };
                    Label {
                        cell: r.cell,
                        value,
                    }
                })
                .collect();
            session.apply_labels(&mut ds, &labels);
            session.retrain(&ds);
            let _ = session.report(&ds);
        }
        assert!(out_of_domain > 0, "exercised the append path");
        let stats = session.design_stats();
        assert_eq!(stats.full_builds, 0, "no full rebuild in the session");
        assert_eq!(stats.vars_patched, out_of_domain);
        assert_eq!(stats.rows_patched, out_of_domain, "one row per novel label");
        assert_eq!(
            session.model.graph.design(),
            &session.model.graph.compile_design(),
            "patched matrix == fresh compile, bit for bit"
        );
        assert_eq!(session.timings().design, stats);
        assert!(session.timings().learn > std::time::Duration::ZERO);
        // The component index obeys the same incremental contract: zero
        // session rebuilds, and the patched index equals a fresh one.
        let cstats = session.component_stats();
        assert_eq!(cstats.full_builds, 0, "no index rebuild in the session");
        assert_eq!(
            session.model.graph.components(),
            &session.model.graph.compile_components(),
            "patched index == fresh build"
        );
        assert!(session.partition_stats().components > 0);
        assert_eq!(session.timings().components, cstats);
    }
}
