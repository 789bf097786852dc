//! Configuration of the HoloClean pipeline.

use holo_factor::{GibbsConfig, LearnConfig};
use serde::{Deserialize, Serialize};

/// Which probabilistic model to compile — the ablation axis of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelVariant {
    /// Denial constraints ground as multi-variable factors with the fixed
    /// weight [`HoloConfig::dc_factor_weight`] (Algorithm 1). No
    /// partitioning.
    DcFactors,
    /// [`ModelVariant::DcFactors`] plus Algorithm 3 tuple partitioning.
    DcFactorsPartitioned,
    /// Denial constraints relaxed to single-variable features with learned
    /// weights (§5.2). The default; used for Tables 3 and 4.
    DcFeats,
    /// Both relaxed features and constant-weight factors.
    DcFeatsDcFactors,
    /// [`ModelVariant::DcFeatsDcFactors`] plus partitioning.
    DcFeatsDcFactorsPartitioned,
}

impl ModelVariant {
    /// Whether the variant compiles relaxed DC features.
    pub fn uses_dc_features(self) -> bool {
        matches!(
            self,
            ModelVariant::DcFeats
                | ModelVariant::DcFeatsDcFactors
                | ModelVariant::DcFeatsDcFactorsPartitioned
        )
    }

    /// Whether the variant grounds DC clique factors.
    pub fn uses_dc_factors(self) -> bool {
        matches!(
            self,
            ModelVariant::DcFactors
                | ModelVariant::DcFactorsPartitioned
                | ModelVariant::DcFeatsDcFactors
                | ModelVariant::DcFeatsDcFactorsPartitioned
        )
    }

    /// Whether DC factor grounding is restricted to Algorithm 3 groups.
    pub fn uses_partitioning(self) -> bool {
        matches!(
            self,
            ModelVariant::DcFactorsPartitioned | ModelVariant::DcFeatsDcFactorsPartitioned
        )
    }

    /// All five variants, in the order Figure 5 reports them.
    pub fn all() -> [ModelVariant; 5] {
        [
            ModelVariant::DcFactors,
            ModelVariant::DcFactorsPartitioned,
            ModelVariant::DcFeats,
            ModelVariant::DcFeatsDcFactors,
            ModelVariant::DcFeatsDcFactorsPartitioned,
        ]
    }

    /// Short label used by the experiment harness.
    pub fn label(self) -> &'static str {
        match self {
            ModelVariant::DcFactors => "DC Factors",
            ModelVariant::DcFactorsPartitioned => "DC Factors + partitioning",
            ModelVariant::DcFeats => "DC Feats",
            ModelVariant::DcFeatsDcFactors => "DC Feats + DC Factors",
            ModelVariant::DcFeatsDcFactorsPartitioned => "DC Feats + DC Factors + partitioning",
        }
    }
}

/// Optional source-reliability featurization (§4.1: lineage features; used
/// for the Flights dataset, following SLiMFast \[35\]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceConfig {
    /// Attribute identifying the real-world entity rows describe (e.g.
    /// `"Flight"`); assertions are collected across rows sharing it.
    pub entity_attr: String,
    /// Attribute naming the source that contributed the row.
    pub source_attr: String,
}

/// Knobs of the streaming ingestion engine
/// ([`crate::stream::StreamSession`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Run a warm-start replay training pass after every ingested batch,
    /// so interim posteriors served between batches reflect the new
    /// evidence without paying a full retrain. Batch-equivalent reads
    /// ([`crate::stream::StreamSession::report`]) always run the canonical
    /// from-scratch retrain regardless — this knob only trades interim
    /// freshness against per-batch wall-clock.
    pub refine_each_batch: bool,
    /// Replay window: the newest `replay_window` evidence examples (plus
    /// an equally-sized seeded sample of older ones) make up each replay
    /// pass.
    pub replay_window: usize,
    /// Epochs per replay pass.
    pub replay_epochs: usize,
    /// Diagnostics/bench escape hatch: recompute every cell and force a
    /// full design-matrix + component-index rebuild on every batch instead
    /// of patching in place. Output is identical (that is the point of the
    /// equivalence contract); the `stream_ingest` bench uses it to price
    /// the patch path against the rebuild it replaces.
    pub force_full_rebuild: bool,
    /// Scheduled compaction period, measured in ingested mutation batches
    /// (`push_batch` / `push_updates` / `push_deletes` each count one).
    /// Every `compact_every` batches the session runs
    /// [`crate::stream::StreamSession::compact`]: tombstoned rows and
    /// retired/pinned variables are renumbered away and all three cached
    /// structures (design matrix, component index, coloring) pay their one
    /// amortised full rebuild. `0` disables the schedule — compaction then
    /// only happens lazily when an exact read requires it.
    pub compact_every: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            refine_each_batch: true,
            replay_window: 256,
            replay_epochs: 2,
            force_full_rebuild: false,
            compact_every: 0,
        }
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HoloConfig {
    /// The Algorithm 2 co-occurrence threshold τ.
    pub tau: f64,
    /// Hard cap on a noisy cell's candidate count (keeps grounding bounded
    /// when τ is small); candidates are kept in descending co-occurrence
    /// probability. The initial value always survives.
    pub max_domain: usize,
    /// Which model to compile.
    pub variant: ModelVariant,
    /// Fixed weight `w` of DC clique factors (Algorithm 1 "soft
    /// constraint" relaxation; `f64::INFINITY` would make them hard).
    pub dc_factor_weight: f64,
    /// Fixed weight of the minimality prior.
    pub minimality_weight: f64,
    /// Initial (learnable) value of each dictionary's reliability weight
    /// `w(k)`. Dictionaries are trusted a priori; evidence cells covered by
    /// matches adjust the weight during learning.
    pub ext_dict_prior: f64,
    /// Normalizer for relaxed-DC feature values: the emitted feature is
    /// `violation_count / dc_feature_cap`, keeping SGD inputs O(1) while
    /// preserving the linear-in-count semantics of Example 6 (one grounded
    /// factor per violating partner tuple).
    pub dc_feature_cap: u32,
    /// Initial (learnable) value of each constraint's relaxed-DC feature
    /// weight `w(σ)`. Negative: a candidate that would violate a denial
    /// constraint is a priori implausible — that is what the constraint
    /// asserts. Evidence refines the weight per constraint; the prior
    /// carries constraints whose attributes have no clean cells at all
    /// (fully-saturated violation groups).
    pub dc_violation_prior: f64,
    /// Cap on grounded cliques per constraint (safety valve for the
    /// unpartitioned factor variants at small τ; the paper reports exactly
    /// this blow-up in §1 challenge (2)). A constraint stops grounding
    /// outright once the cap is reached.
    pub max_cliques_per_constraint: usize,
    /// Evidence cells sampled per attribute for weight learning.
    pub max_evidence_per_attr: usize,
    /// Evidence variables build their candidate domains with
    /// `min(tau, evidence_tau_cap)`: at large τ most clean cells would
    /// have singleton domains and carry no gradient, starving SGD.
    pub evidence_tau_cap: f64,
    /// Minimum occurrences a conditioning value needs before Algorithm 2
    /// trusts `Pr[v | v']` — rare conditioning values (count 1-2) produce
    /// spurious probability-1 candidates.
    pub min_cond_support: u32,
    /// Initial (learnable) weight of the per-attribute empirical
    /// distribution feature, whose value is the mean conditional
    /// probability `Pr[d | v']` of a candidate across the tuple's other
    /// cells. This is the "empirical distribution characterizing
    /// attributes" signal of §1; unlike the per-(d, f) co-occurrence
    /// weights it needs no per-value evidence, so it keeps defending
    /// frequent values inside fully-noisy violation groups.
    pub distribution_prior: f64,
    /// Optional source-reliability features.
    pub source: Option<SourceConfig>,
    /// SGD hyper-parameters. Every learning site — the one-shot
    /// `LearnStage`, feedback retrains and streaming replay/report
    /// retrains — reads them here and runs the one SGD kernel of
    /// `holo_factor::learn`, whose fixed addition order makes weights
    /// bitwise identical at every thread count.
    pub learn: LearnConfig,
    /// Gibbs hyper-parameters (clique variants only).
    pub gibbs: GibbsConfig,
    /// Joint-state ceiling for per-component **exact** inference: during
    /// partitioned inference, a clique-coupled connected component whose
    /// query variables span at most this many joint assignments is
    /// enumerated exactly (exact marginals, no sampling noise) instead of
    /// Gibbs-sampled; `0` disables enumeration. Components with no cliques
    /// at all — singleton variables are the common case after pruning —
    /// always take the closed-form softmax regardless of this limit, so
    /// for the relaxed (clique-free) model the knob has **no effect on
    /// output**. Determinism contract: like [`GibbsConfig::chains`] this
    /// is a *model* knob — changing it changes which engine produces a
    /// coupled component's marginals — while at any fixed value every
    /// thread count remains bit-for-bit identical to `threads = 1`.
    pub exact_component_limit: u64,
    /// Chromatic Gibbs sweeps for sampled components: when set, a
    /// Gibbs-routed connected component whose query variables span several
    /// colors of the graph's greedy interaction-graph coloring resamples
    /// whole color classes in parallel fixed-size blocks instead of
    /// sweeping variables one at a time — within-component parallelism for
    /// the densely constrained graphs that collapse into one giant
    /// component. Like [`HoloConfig::exact_component_limit`] this is a
    /// *model* knob: it changes the sampling schedule (and therefore the
    /// stream) of multi-color components, while clique-free components are
    /// bit-for-bit unaffected and any thread count remains bit-for-bit
    /// `threads = 1`. Off by default.
    pub chromatic_gibbs: bool,
    /// Frozen-weight score cache for partitioned inference: when set (the
    /// default), [`holo_factor::infer_partitioned`] scores every design
    /// row once up front through the blocked kernel and all three engines
    /// — closed-form softmax, exact enumeration, and Gibbs conditionals —
    /// read the cached rows instead of re-walking the design matrix.
    /// Because the cache reproduces the kernel's exact addition order,
    /// this is a pure *wall-clock* knob like [`HoloConfig::threads`]:
    /// repairs and posteriors are byte-identical on or off, at every
    /// thread count. The cache is built per inference pass and never
    /// stored in the graph, so feedback retrains can't read stale scores.
    pub score_cache: bool,
    /// Route [`crate::feedback::FeedbackSession::retrain`] through the
    /// streaming warm-start replay trainer instead of the canonical
    /// from-scratch retrain: replay passes start from the current weights
    /// and prioritise the freshly pinned cells, trading bit-exact
    /// batch-equivalence for O(replay window) updates per retrain. Off by
    /// default — the default retrain stays bit-for-bit the one-shot
    /// pipeline's training.
    pub feedback_replay: bool,
    /// Streaming-ingestion knobs (only read by
    /// [`crate::stream::StreamSession`]; the one-shot pipeline ignores
    /// them).
    pub stream: StreamConfig,
    /// Statistics-engine oracle switch: when set, `CooccurStats` stores
    /// its counts in the original nested hash-map tables instead of the
    /// dense per-attribute-pair count blocks. Both backends answer every
    /// query identically (proptested in `holo_dataset::stats`), so like
    /// [`HoloConfig::score_cache`] this is a pure *wall-clock* knob:
    /// repairs and posteriors are byte-identical on or off, at every
    /// thread count. Off by default — the dense engine is the fast path;
    /// `--naive-stats` on the bench binaries flips this on for the CI
    /// equivalence diffs.
    pub naive_stats: bool,
    /// BClean-style correlation gate for Algorithm 2 domain pruning (the
    /// `cor_strength` knob of the Python HoloClean API): when set,
    /// conditioning attributes whose uncertainty coefficient toward the
    /// repaired attribute falls below this threshold are skipped entirely
    /// during the partner scan, shrinking candidate domains and everything
    /// downstream (design matrix, learning, inference). Unlike
    /// [`HoloConfig::naive_stats`] this is a *model* knob — gating changes
    /// which candidates exist — so it is opt-in: `None` (the default)
    /// scans all partners, preserving every byte-identical contract.
    pub cor_strength: Option<f64>,
    /// Master seed (evidence sampling).
    pub seed: u64,
    /// Worker threads for the data-parallel stages (violation detection
    /// and its blocking index, statistics, domain pruning, featurization,
    /// DC-factor grounding, minibatch-SGD gradient shards, and — when
    /// [`GibbsConfig::chains`] > 1 — the Gibbs chains). `0` = all cores.
    /// Every thread count produces bit-for-bit the `threads = 1` result —
    /// the knob trades wall-clock only, never output. Note the chain
    /// *count* is a model knob ([`HoloConfig::with_gibbs_chains`]), not a
    /// thread knob: changing it changes which seeds sample, so it is
    /// deliberately not derived from `threads`.
    pub threads: usize,
}

impl Default for HoloConfig {
    fn default() -> Self {
        HoloConfig {
            tau: 0.5,
            max_domain: 50,
            variant: ModelVariant::DcFeats,
            dc_factor_weight: 4.0,
            minimality_weight: 0.5,
            ext_dict_prior: 2.0,
            dc_feature_cap: 4,
            dc_violation_prior: -1.0,
            max_cliques_per_constraint: 500_000,
            max_evidence_per_attr: 800,
            evidence_tau_cap: 0.3,
            min_cond_support: 2,
            distribution_prior: 2.0,
            source: None,
            learn: LearnConfig::default(),
            gibbs: GibbsConfig::default(),
            exact_component_limit: 4096,
            chromatic_gibbs: false,
            score_cache: true,
            feedback_replay: false,
            stream: StreamConfig::default(),
            naive_stats: false,
            cor_strength: None,
            seed: 0x401c,
            threads: 0,
        }
    }
}

impl HoloConfig {
    /// Sets τ (builder style).
    pub fn with_tau(mut self, tau: f64) -> Self {
        self.tau = tau;
        self
    }

    /// Sets the model variant (builder style).
    pub fn with_variant(mut self, variant: ModelVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Sets the worker-thread budget (builder style); `0` = all cores,
    /// `1` = fully sequential. Output is identical either way.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the number of independent Gibbs chains (builder style). Chains
    /// run in parallel over the thread budget and their sample counts
    /// merge into one marginal estimate; `1` (the default) reproduces the
    /// single-chain sampler exactly. Unlike `threads`, this knob *does*
    /// change the output (different seeds sample), which is why it is
    /// separate.
    pub fn with_gibbs_chains(mut self, chains: usize) -> Self {
        self.gibbs.chains = chains.max(1);
        self
    }

    /// Sets the SGD minibatch size (builder style); `0`/`1` = classic
    /// per-example SGD. Like the Gibbs chain count this is a *model* knob
    /// — it changes where gradients are applied, hence the learned
    /// weights — while `threads` only changes how each minibatch's
    /// gradient work is sharded.
    pub fn with_minibatch(mut self, minibatch: usize) -> Self {
        self.learn.minibatch = minibatch;
        self
    }

    /// Sets the per-component exact-inference ceiling (builder style);
    /// `0` disables exact enumeration so every clique-coupled component
    /// samples. See the field docs for the determinism contract.
    pub fn with_exact_component_limit(mut self, limit: u64) -> Self {
        self.exact_component_limit = limit;
        self
    }

    /// Enables chromatic Gibbs sweeps for sampled components (builder
    /// style). See the field docs for the determinism contract.
    pub fn with_chromatic_gibbs(mut self, chromatic: bool) -> Self {
        self.chromatic_gibbs = chromatic;
        self
    }

    /// Toggles the frozen-weight score cache for partitioned inference
    /// (builder style). A wall-clock-only knob — see the field docs.
    pub fn with_score_cache(mut self, score_cache: bool) -> Self {
        self.score_cache = score_cache;
        self
    }

    /// Toggles the naive hash-map statistics oracle (builder style; the
    /// dense engine is the default). A wall-clock-only knob — see the
    /// field docs.
    pub fn with_naive_stats(mut self, naive: bool) -> Self {
        self.naive_stats = naive;
        self
    }

    /// Sets the Algorithm 2 correlation gate (builder style); `None`
    /// scans all partner attributes. A *model* knob — see the field docs.
    pub fn with_cor_strength(mut self, cor_strength: Option<f64>) -> Self {
        self.cor_strength = cor_strength;
        self
    }

    /// Routes feedback retraining through the warm-start replay trainer
    /// (builder style). See the field docs for the trade.
    pub fn with_feedback_replay(mut self, replay: bool) -> Self {
        self.feedback_replay = replay;
        self
    }

    /// Sets the streaming-ingestion knobs (builder style).
    pub fn with_stream(mut self, stream: StreamConfig) -> Self {
        self.stream = stream;
        self
    }

    /// Resolved thread budget (`threads`, with `0` mapped to the core
    /// count of the machine).
    pub fn effective_threads(&self) -> usize {
        holo_parallel::effective_threads(self.threads)
    }

    /// Enables source features (builder style).
    pub fn with_source(mut self, entity_attr: &str, source_attr: &str) -> Self {
        self.source = Some(SourceConfig {
            entity_attr: entity_attr.to_string(),
            source_attr: source_attr.to_string(),
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_capabilities() {
        assert!(!ModelVariant::DcFeats.uses_dc_factors());
        assert!(ModelVariant::DcFeats.uses_dc_features());
        assert!(!ModelVariant::DcFeats.uses_partitioning());

        assert!(ModelVariant::DcFactors.uses_dc_factors());
        assert!(!ModelVariant::DcFactors.uses_dc_features());

        assert!(ModelVariant::DcFactorsPartitioned.uses_partitioning());
        assert!(ModelVariant::DcFeatsDcFactorsPartitioned.uses_dc_features());
        assert!(ModelVariant::DcFeatsDcFactorsPartitioned.uses_dc_factors());
        assert!(ModelVariant::DcFeatsDcFactorsPartitioned.uses_partitioning());
    }

    #[test]
    fn all_variants_distinct_labels() {
        let labels: Vec<_> = ModelVariant::all().iter().map(|v| v.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn default_is_the_paper_table3_setup() {
        let c = HoloConfig::default();
        assert_eq!(c.variant, ModelVariant::DcFeats);
        assert!(c.tau > 0.0 && c.tau < 1.0);
    }

    #[test]
    fn builder_setters() {
        let c = HoloConfig::default()
            .with_tau(0.3)
            .with_variant(ModelVariant::DcFactors)
            .with_source("Flight", "Source");
        assert_eq!(c.tau, 0.3);
        assert_eq!(c.variant, ModelVariant::DcFactors);
        assert_eq!(c.source.as_ref().unwrap().entity_attr, "Flight");
    }

    #[test]
    fn score_cache_defaults_on_and_toggles() {
        let c = HoloConfig::default();
        assert!(c.score_cache);
        assert!(!c.with_score_cache(false).score_cache);
    }

    #[test]
    fn naive_stats_defaults_off_and_toggles() {
        let c = HoloConfig::default();
        assert!(!c.naive_stats);
        assert!(c.with_naive_stats(true).naive_stats);
    }

    #[test]
    fn cor_strength_defaults_off_and_toggles() {
        let c = HoloConfig::default();
        assert!(c.cor_strength.is_none());
        assert_eq!(c.with_cor_strength(Some(0.3)).cor_strength, Some(0.3));
    }
}
