//! Weight learning: empirical risk minimisation over evidence variables.
//!
//! §2.2 of the paper: "Variables that correspond to clean cells in `D_c`
//! are treated as evidence and are used to learn the parameters of the
//! model … efficient methods such as stochastic gradient descent are used."
//!
//! For each evidence variable, the conditional likelihood of its observed
//! candidate under the unary features is a multinomial logistic regression
//! term; SGD ascends the log-likelihood with L2 shrinkage. Clique factors
//! do not enter the gradient: in HoloClean's groundings, cliques touch
//! query variables (noisy cells), whose values are unknown at training
//! time — the same simplification DeepDive applies when evidence
//! separates from the query set.
//!
//! ## Minibatch parallelism and determinism
//!
//! Training is minibatch SGD over the compiled
//! [`DesignMatrix`](crate::design::DesignMatrix): a seed-fixed permutation
//! of the evidence set is cut into minibatches of
//! [`LearnConfig::minibatch`] examples, every example's sparse gradient is
//! computed against the weights frozen at minibatch start, and the summed
//! gradient is applied once per minibatch. Inside a minibatch the examples
//! are folded in **fixed-size shards** ([`holo_parallel::sharded_fold`]):
//! each shard accumulates its examples' gradients in example order into a
//! sparse accumulator, shards run on up to `threads` workers, and the
//! shard accumulators merge strictly in shard order. Because the shard
//! boundaries depend only on the shard size — never on the thread count —
//! every floating-point addition happens in the same order at every
//! thread count, so `threads = N` is **bit-for-bit identical** to
//! `threads = 1`. The gradient is summed (not averaged) over the
//! minibatch, so one epoch applies the same total step mass as classic
//! per-example SGD at the same learning rate.
//!
//! ## Addition order
//!
//! There is one SGD kernel, and its floating-point addition order is part
//! of its contract. Per epoch the example list takes exactly one seeded
//! length-`n` shuffle. Inside a shard, gradient increments accumulate per
//! weight in entry-visit order: examples in minibatch order, candidate
//! rows in CSR order, entries in row order. Shard accumulators merge in
//! shard order, and the summed gradient is applied in ascending weight-id
//! order. Learned weights, [`LearnStats`] and therefore every repair are
//! a bitwise function of that sequence; the thread-invariance, stream ≡
//! one-shot and CRUD ≡ one-shot contracts rest on it, so any change to
//! the loop must keep it.

use crate::graph::{FactorGraph, VarId};
use crate::math::softmax_in_place;
use crate::weights::{WeightId, Weights};
use holo_dataset::FxHashMap;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Examples per gradient shard — the fixed parallel work unit inside a
/// minibatch. Independent of the thread count by design (that is what
/// makes the merge order, and hence the result, thread-count invariant);
/// small enough that the default minibatch spans 16 shards.
const GRAD_SHARD_EXAMPLES: usize = 8;

/// SGD hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LearnConfig {
    /// Passes over the evidence set.
    pub epochs: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
    /// Multiplicative per-epoch learning-rate decay.
    pub decay: f64,
    /// L2 regularisation strength.
    pub l2: f64,
    /// Shuffle seed — learning is deterministic given the seed.
    pub seed: u64,
    /// Examples per minibatch: gradients are computed against the weights
    /// frozen at minibatch start and applied once per minibatch. `0` is
    /// treated as `1` (classic per-example SGD, fully sequential).
    pub minibatch: usize,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig {
            epochs: 10,
            learning_rate: 0.1,
            decay: 0.95,
            l2: 1e-4,
            seed: 0x1ea2,
            minibatch: 128,
        }
    }
}

/// Diagnostics from a training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LearnStats {
    /// Mean per-example log-likelihood after the final epoch.
    pub final_log_likelihood: f64,
    /// Number of evidence variables trained on.
    pub examples: usize,
    /// Number of epochs executed.
    pub epochs: usize,
    /// Total minibatches executed across all epochs.
    pub minibatches: usize,
    /// L2 norm of the **last** minibatch's accumulated gradient. A noisy
    /// convergence signal (one minibatch's draw); see
    /// [`LearnStats::grad_norm_mean`] for the stable one.
    pub grad_norm: f64,
    /// Mean minibatch gradient L2 norm over the **final epoch** — the
    /// stable convergence signal `diag` reports (near zero when the
    /// model has stopped moving).
    pub grad_norm_mean: f64,
    /// Design-matrix entries in the trained examples' candidate rows;
    /// times [`LearnStats::packed_epochs`] this is the entry-visit count.
    /// The `packed_*` names are kept for the benchmark harness, which
    /// reads them.
    pub packed_entries: usize,
    /// Always `0`: training reads the design matrix in place and makes
    /// no copy. Kept for the benchmark harness.
    pub packed_bytes: usize,
    /// Epochs run over the examples. Kept for the benchmark harness.
    pub packed_epochs: usize,
}

impl LearnStats {
    /// A zeroed stats record for `examples` examples and `epochs`
    /// epochs — the starting point every trainer fills in.
    fn empty(examples: usize, epochs: usize) -> LearnStats {
        LearnStats {
            final_log_likelihood: 0.0,
            examples,
            epochs,
            minibatches: 0,
            grad_norm: 0.0,
            grad_norm_mean: 0.0,
            packed_entries: 0,
            packed_bytes: 0,
            packed_epochs: 0,
        }
    }

    /// Folds an epoch-loop outcome into the record.
    fn absorb(&mut self, out: EpochOutcome) {
        self.final_log_likelihood = if self.examples == 0 {
            0.0
        } else {
            out.ll_sum / self.examples as f64
        };
        self.minibatches = out.minibatches;
        self.grad_norm = out.grad_norm;
        self.grad_norm_mean = out.grad_norm_mean;
    }
}

/// [`train_with_threads`] on a single thread.
pub fn train(graph: &FactorGraph, weights: &mut Weights, config: &LearnConfig) -> LearnStats {
    train_with_threads(graph, weights, config, 1)
}

/// Trains the learnable weights on the evidence variables of `graph`,
/// sharding minibatch gradient computation over up to `threads` worker
/// threads (`0` = all cores). Bit-for-bit identical for every thread
/// count (see the module docs for the scheme).
///
/// Returns diagnostics; `weights` is updated in place. Evidence variables
/// with a single candidate carry no gradient signal and are skipped.
///
/// Examples are visited in the graph's variable-id order — for a graph
/// built by one compile pass that *is* the canonical (attribute-major,
/// cell-sorted) evidence order. A long-lived graph whose variables were
/// appended across batches must use [`train_examples`] with an explicit
/// canonical order instead: SGD's seeded shuffle permutes example
/// *positions*, so the example sequence — and therefore every learned
/// weight, bitwise — depends on the initial order.
pub fn train_with_threads(
    graph: &FactorGraph,
    weights: &mut Weights,
    config: &LearnConfig,
    threads: usize,
) -> LearnStats {
    train_examples(graph, weights, config, threads, &graph.evidence_vars())
}

/// [`train_with_threads`] over a caller-supplied example order.
///
/// This is the streaming engine's learning entry point: a
/// [`StreamSession`]-maintained graph accumulates evidence variables in
/// arrival order, which differs from the order a one-shot compile of the
/// same data would produce. Passing the canonical order explicitly makes
/// the SGD trajectory — and the final weights, bit for bit — a function
/// of the *model content* rather than of the mutation history, which is
/// what the streaming-equals-batch equivalence rests on.
///
/// Single-candidate entries are skipped (no gradient signal); order is
/// otherwise preserved. Variables must be evidence.
///
/// [`StreamSession`]: https://docs.rs/holoclean (crates/core `stream`)
pub fn train_examples(
    graph: &FactorGraph,
    weights: &mut Weights,
    config: &LearnConfig,
    threads: usize,
    examples: &[VarId],
) -> LearnStats {
    let mut examples: Vec<VarId> = examples
        .iter()
        .copied()
        .filter(|&v| eligible_example(graph, v))
        .collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    train_window(
        graph,
        weights,
        config,
        threads,
        &mut examples,
        &mut rng,
        config.epochs,
    )
}

/// An example carries gradient signal only if it is evidence (it has an
/// observed target) with more than one candidate. Non-evidence ids in a
/// caller's window are dropped here — the gradient loops downstream
/// assert the invariant instead of panicking on it.
fn eligible_example(graph: &FactorGraph, v: VarId) -> bool {
    let var = graph.var(v);
    var.evidence.is_some() && var.arity() > 1
}

/// What one epoch loop reports back to [`train_window`]'s stats
/// assembly.
struct EpochOutcome {
    /// `Σ log P(target)` of the final epoch, divided by the example
    /// count by the caller.
    ll_sum: f64,
    minibatches: usize,
    grad_norm: f64,
    grad_norm_mean: f64,
}

/// Trains on an already filtered example list and assembles its
/// [`LearnStats`]: the shared tail of [`train_examples`] and
/// [`train_replay`].
fn train_window(
    graph: &FactorGraph,
    weights: &mut Weights,
    config: &LearnConfig,
    threads: usize,
    examples: &mut [VarId],
    rng: &mut StdRng,
    epochs: usize,
) -> LearnStats {
    let design = graph.design();
    let mut stats = LearnStats::empty(examples.len(), epochs);
    stats.packed_entries = examples
        .iter()
        .flat_map(|&v| design.var_range(v))
        .map(|r| design.row(r).len())
        .sum();
    stats.packed_epochs = epochs;
    stats.absorb(run_epochs(
        graph, weights, config, threads, examples, rng, epochs,
    ));
    stats
}

/// The epoch loop: one seeded shuffle per epoch, minibatch chunks whose
/// gradients [`minibatch_gradient`] computes against frozen weights, and
/// one sorted-order weight update per minibatch.
fn run_epochs(
    graph: &FactorGraph,
    weights: &mut Weights,
    config: &LearnConfig,
    threads: usize,
    examples: &mut [VarId],
    rng: &mut StdRng,
    epochs: usize,
) -> EpochOutcome {
    let design = graph.design();
    let batch = config.minibatch.max(1);
    let mut lr = config.learning_rate;
    let mut keys: Vec<WeightId> = Vec::new();
    let mut out = EpochOutcome {
        ll_sum: 0.0,
        minibatches: 0,
        grad_norm: 0.0,
        grad_norm_mean: 0.0,
    };
    for _epoch in 0..epochs {
        examples.shuffle(rng);
        let mut ll_sum = 0.0;
        let mut norm_sum = 0.0;
        let mut epoch_minibatches = 0usize;
        for minibatch in examples.chunks(batch) {
            let Some((grad, ll)) =
                minibatch_gradient(graph, design, weights, config, threads, minibatch)
            else {
                continue;
            };
            ll_sum += ll;
            out.minibatches += 1;
            epoch_minibatches += 1;
            // Apply once per minibatch, in weight-id order. The order is
            // cosmetic for determinism (each weight is touched exactly
            // once) but makes the update sequence easy to reason about.
            keys.clear();
            keys.extend(grad.keys().copied());
            keys.sort_unstable();
            let mut norm_sq = 0.0;
            for &w in &keys {
                let g = grad[&w];
                norm_sq += g * g;
                weights.update(w, lr * g);
            }
            out.grad_norm = norm_sq.sqrt();
            norm_sum += out.grad_norm;
        }
        out.ll_sum = ll_sum;
        out.grad_norm_mean = if epoch_minibatches == 0 {
            0.0
        } else {
            norm_sum / epoch_minibatches as f64
        };
        lr *= config.decay;
    }
    out
}

/// Warm-start replay training — the incremental-learning path of the
/// streaming engine (and of feedback retraining workloads shaped like
/// it).
///
/// Instead of re-running full SGD from the priors over *all* evidence,
/// this resumes from the **current** `weights` and replays a window
/// biased to new evidence: the last `recent` examples (the batch that
/// just arrived) plus an equally-sized seeded sample of the older
/// examples (so the new signal cannot drag shared weights away from what
/// the old evidence supports). `epochs` replay epochs run with the usual
/// minibatch/shard machinery, so the result is bit-for-bit identical at
/// every thread count.
///
/// This is an *approximation*: an SGD endpoint depends on its whole
/// trajectory, so replayed weights differ from a canonical from-scratch
/// retrain (which is what batch-equivalent reads use). The point is
/// wall-clock — `O(window)` per batch instead of `O(all evidence ·
/// epochs)` — for serving interim posteriors between batches.
pub fn train_replay(
    graph: &FactorGraph,
    weights: &mut Weights,
    config: &LearnConfig,
    threads: usize,
    examples: &[VarId],
    recent: usize,
    epochs: usize,
) -> LearnStats {
    let eligible: Vec<VarId> = examples
        .iter()
        .copied()
        .filter(|&v| eligible_example(graph, v))
        .collect();
    let recent_n = recent.min(eligible.len());
    let (older, fresh) = eligible.split_at(eligible.len() - recent_n);
    // Deterministic replay sample of the old evidence: seed mixes the
    // stream position so successive batches revisit different slices.
    let mut rng = StdRng::seed_from_u64(
        config
            .seed
            .wrapping_add((eligible.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let mut sampled: Vec<VarId> = older.to_vec();
    sampled.shuffle(&mut rng);
    sampled.truncate(recent_n);
    let mut window: Vec<VarId> = fresh.to_vec();
    window.extend(sampled);
    if window.is_empty() {
        return LearnStats::empty(0, epochs);
    }
    // The epoch loop continues on the sampling RNG — the replay
    // trajectory is one deterministic stream per (seed, window size).
    train_window(
        graph,
        weights,
        config,
        threads,
        &mut window,
        &mut rng,
        epochs,
    )
}

/// Sparse summed gradient of one minibatch (plus its log-likelihood sum),
/// computed against the frozen `weights`. Examples fold in fixed-size
/// shards merged in shard order, so the accumulation order — and the
/// floating-point result — is independent of the thread count. Below
/// [`holo_parallel::MIN_PARALLEL_ITEMS`] examples the shards fold inline,
/// since thread spawns would rival the gradient work; the shard
/// boundaries, and hence the result, are the same either way.
fn minibatch_gradient(
    graph: &FactorGraph,
    design: &crate::design::DesignMatrix,
    weights: &Weights,
    config: &LearnConfig,
    threads: usize,
    minibatch: &[VarId],
) -> Option<(FxHashMap<WeightId, f64>, f64)> {
    let threads = if minibatch.len() < holo_parallel::MIN_PARALLEL_ITEMS {
        1
    } else {
        threads
    };
    holo_parallel::sharded_fold(
        threads,
        minibatch,
        GRAD_SHARD_EXAMPLES,
        |shard| {
            let mut grad: FxHashMap<WeightId, f64> = FxHashMap::default();
            let mut ll = 0.0;
            let mut scores: Vec<f64> = Vec::new();
            for &v in shard {
                let Some(target) = graph.var(v).evidence else {
                    // `eligible_example` filters these out of every
                    // window before the epoch loop; assert the invariant
                    // instead of panicking in release builds.
                    debug_assert!(
                        false,
                        "non-evidence variable {v:?} reached the gradient loop"
                    );
                    continue;
                };
                design.score_var_into(v, weights, &mut scores);
                softmax_in_place(&mut scores);
                ll += scores[target].max(1e-300).ln();
                // Gradient of log P(target): x_f · (1[k = target] − p_k),
                // with L2 shrinkage toward zero per feature occurrence.
                // The variable's candidates are its contiguous CSR rows.
                let rows = design.var_range(v);
                for (k, (r, &p_k)) in rows.zip(scores.iter()).enumerate() {
                    let residual = f64::from(u8::from(k == target)) - p_k;
                    if residual == 0.0 {
                        continue;
                    }
                    for &(w, x) in design.row(r) {
                        if weights.is_fixed(w) {
                            continue;
                        }
                        *grad.entry(w).or_insert(0.0) += x * residual - config.l2 * weights.get(w);
                    }
                }
            }
            (grad, ll)
        },
        |(mut acc, acc_ll), (grad, ll)| {
            for (w, g) in grad {
                *acc.entry(w).or_insert(0.0) += g;
            }
            (acc, acc_ll + ll)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Variable;
    use crate::marginals::Marginals;
    use crate::weights::{FeatureRegistry, WeightId};
    use holo_dataset::Sym;

    fn sym(i: u32) -> Sym {
        Sym(i)
    }

    /// Perfectly separable evidence: candidate 0 always carries feature A
    /// and is always correct; candidate 1 always carries feature B. SGD
    /// must drive w(A) up and leave candidate 0 dominant.
    #[test]
    fn learns_separating_weights() {
        let mut reg: FeatureRegistry<&'static str> = FeatureRegistry::new();
        let fa = reg.learnable("A");
        let fb = reg.learnable("B");
        let mut g = FactorGraph::new();
        for _ in 0..50 {
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], 0));
            g.add_feature(v, 0, fa, 1.0);
            g.add_feature(v, 1, fb, 1.0);
        }
        let q = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(1)));
        g.add_feature(q, 0, fa, 1.0);
        g.add_feature(q, 1, fb, 1.0);
        let mut w = reg.build_weights();
        let stats = train(&g, &mut w, &LearnConfig::default());
        assert_eq!(stats.examples, 50);
        assert!(stats.minibatches > 0);
        assert!(
            w.get(fa) > w.get(fb),
            "w(A)={} w(B)={}",
            w.get(fa),
            w.get(fb)
        );
        let m = Marginals::exact_unary(&g, &w);
        assert!(m.prob(q, 0) > 0.8, "query prefers the learned signal");
        assert!(stats.final_log_likelihood > -0.5);
    }

    /// Mixed evidence (70/30): the learned model must put ≈0.7 on the
    /// majority candidate — weights calibrate, not saturate.
    #[test]
    fn calibrates_to_empirical_frequencies() {
        let mut reg: FeatureRegistry<&'static str> = FeatureRegistry::new();
        let f = reg.learnable("shared");
        let mut g = FactorGraph::new();
        for i in 0..100 {
            let target = usize::from(i >= 70);
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], target));
            // Feature fires only for candidate 0; its weight must settle at
            // log(0.7/0.3).
            g.add_feature(v, 0, f, 1.0);
        }
        let mut w = reg.build_weights();
        train(
            &g,
            &mut w,
            &LearnConfig {
                epochs: 200,
                learning_rate: 0.05,
                decay: 1.0,
                l2: 0.0,
                seed: 1,
                minibatch: 32,
            },
        );
        let logit = w.get(f);
        let p = 1.0 / (1.0 + (-logit).exp());
        assert!((p - 0.7).abs() < 0.03, "calibrated p = {p}");
    }

    #[test]
    fn fixed_weights_untouched() {
        let mut reg: FeatureRegistry<&'static str> = FeatureRegistry::new();
        let prior = reg.fixed("prior", 2.5);
        let feat = reg.learnable("feat");
        let mut g = FactorGraph::new();
        let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], 0));
        g.add_feature(v, 0, prior, 1.0);
        g.add_feature(v, 1, feat, 1.0);
        let mut w = reg.build_weights();
        train(&g, &mut w, &LearnConfig::default());
        assert_eq!(w.get(prior), 2.5);
        assert!(w.get(feat) < 0.0, "competing learnable weight pushed down");
    }

    #[test]
    fn deterministic_under_seed() {
        let mut g = FactorGraph::new();
        let f = WeightId(0);
        for i in 0..20 {
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], i % 2));
            g.add_feature(v, 0, f, 1.0);
        }
        let cfg = LearnConfig::default();
        let mut w1 = Weights::zeros(1);
        let mut w2 = Weights::zeros(1);
        train(&g, &mut w1, &cfg);
        train(&g, &mut w2, &cfg);
        assert_eq!(w1.get(f), w2.get(f));
    }

    /// The headline determinism contract: any thread count is bit-for-bit
    /// `threads = 1`, across minibatch sizes that do and don't divide the
    /// example count or the shard size.
    #[test]
    fn thread_count_never_changes_weights() {
        let mut reg: FeatureRegistry<(u8, usize)> = FeatureRegistry::new();
        let mut g = FactorGraph::new();
        // 150 examples over 30 tied weights with irregular feature values.
        for i in 0..150usize {
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2), sym(3)], i % 3));
            for k in 0..3usize {
                let w = reg.learnable((b'a', (i + k) % 30));
                g.add_feature(v, k, w, 0.1 + ((i * 7 + k) % 5) as f64 * 0.3);
            }
        }
        for minibatch in [1, 7, 32, 64, 150, 400] {
            let cfg = LearnConfig {
                minibatch,
                ..LearnConfig::default()
            };
            let mut reference = reg.build_weights();
            let ref_stats = train_with_threads(&g, &mut reference, &cfg, 1);
            for threads in [2, 4] {
                let mut w = reg.build_weights();
                let stats = train_with_threads(&g, &mut w, &cfg, threads);
                assert_eq!(w, reference, "minibatch = {minibatch}, threads = {threads}");
                assert_eq!(stats.minibatches, ref_stats.minibatches);
                assert_eq!(stats.grad_norm.to_bits(), ref_stats.grad_norm.to_bits());
                assert_eq!(
                    stats.grad_norm_mean.to_bits(),
                    ref_stats.grad_norm_mean.to_bits()
                );
                assert_eq!(
                    stats.final_log_likelihood.to_bits(),
                    ref_stats.final_log_likelihood.to_bits()
                );
            }
        }
    }

    /// The benchmark counters: `packed_entries` is the design-matrix
    /// entry count of the trained examples' rows (single-candidate and
    /// query variables excluded), `packed_epochs` the epochs run, and
    /// `packed_bytes` stays zero because training copies nothing.
    #[test]
    fn benchmark_counters_count_trained_design_entries() {
        let mut reg: FeatureRegistry<(u8, usize)> = FeatureRegistry::new();
        let prior = reg.fixed((b'p', 0), 1.25);
        let mut g = FactorGraph::new();
        let mut expected = 0usize;
        for i in 0..90usize {
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2), sym(3)], i % 3));
            for k in 0..3usize {
                let w = reg.learnable((b'a', (i * 3 + k) % 17));
                g.add_feature(v, k, w, 0.2 + ((i + k) % 4) as f64 * 0.4);
            }
            g.add_feature(v, i % 3, prior, 1.0);
            expected += 4;
        }
        let single = g.add_variable(Variable::evidence(vec![sym(1)], 0));
        g.add_feature(single, 0, prior, 1.0);
        let q = g.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        g.add_feature(q, 0, prior, 1.0);
        let cfg = LearnConfig::default();
        let mut w = reg.build_weights();
        let stats = train_with_threads(&g, &mut w, &cfg, 2);
        assert_eq!(stats.examples, 90);
        assert_eq!(stats.packed_entries, expected);
        assert_eq!(stats.packed_epochs, cfg.epochs);
        assert_eq!(stats.packed_bytes, 0);

        let mut w_empty = Weights::zeros(0);
        let empty = train(&FactorGraph::new(), &mut w_empty, &cfg);
        assert_eq!(empty.packed_entries, 0);
        assert_eq!(empty.packed_bytes, 0);
    }

    /// Regression: a non-evidence `VarId` slipping into an explicit
    /// example window is filtered out (it carries no target), not a
    /// release-mode panic as `expect("evidence variable")` used to be.
    #[test]
    fn non_evidence_examples_are_filtered_not_a_panic() {
        let mut reg: FeatureRegistry<usize> = FeatureRegistry::new();
        let mut g = FactorGraph::new();
        let mut window = Vec::new();
        for i in 0..12usize {
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], i % 2));
            g.add_feature(v, 0, reg.learnable(i % 3), 1.0);
            window.push(v);
        }
        let q = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0)));
        g.add_feature(q, 0, reg.learnable(0), 1.0);
        window.insert(4, q);
        let cfg = LearnConfig::default();
        let mut w = reg.build_weights();
        let stats = train_examples(&g, &mut w, &cfg, 1, &window);
        assert_eq!(stats.examples, 12, "query var dropped");
        let mut w_clean = reg.build_weights();
        let clean: Vec<VarId> = window.iter().copied().filter(|&v| v != q).collect();
        let stats_clean = train_examples(&g, &mut w_clean, &cfg, 1, &clean);
        assert_eq!(w, w_clean, "filtered window trains identically");
        assert_eq!(stats.minibatches, stats_clean.minibatches);
        // Replay windows get the same treatment.
        let mut w_replay = w.clone();
        let s = train_replay(&g, &mut w_replay, &cfg, 1, &window, 4, 1);
        assert_eq!(s.examples, 8, "4 fresh + 4 replayed, query excluded");
    }

    /// `grad_norm_mean` averages the final epoch's minibatch norms: with
    /// one minibatch per epoch it equals `grad_norm`, and it is stable
    /// across thread counts (covered bitwise above).
    #[test]
    fn grad_norm_mean_reports_the_final_epoch_mean() {
        let mut g = FactorGraph::new();
        let f = WeightId(0);
        for i in 0..10 {
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], i % 2));
            g.add_feature(v, 0, f, 1.0);
        }
        let one_batch = LearnConfig {
            minibatch: 16,
            ..LearnConfig::default()
        };
        let mut w = Weights::zeros(1);
        let stats = train(&g, &mut w, &one_batch);
        assert_eq!(stats.grad_norm_mean.to_bits(), stats.grad_norm.to_bits());
        // Several minibatches per epoch: the mean is a different (and
        // positive) statistic than the last draw.
        let many = LearnConfig {
            minibatch: 2,
            ..LearnConfig::default()
        };
        let mut w2 = Weights::zeros(1);
        let stats2 = train(&g, &mut w2, &many);
        assert!(stats2.grad_norm_mean > 0.0);
    }

    /// `minibatch = 1` applies every example's gradient immediately —
    /// classic per-example SGD — and still counts one minibatch per
    /// example.
    #[test]
    fn minibatch_one_is_per_example_sgd() {
        let mut g = FactorGraph::new();
        let f = WeightId(0);
        for i in 0..10 {
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], i % 2));
            g.add_feature(v, 0, f, 1.0);
        }
        let cfg = LearnConfig {
            epochs: 2,
            minibatch: 1,
            ..LearnConfig::default()
        };
        let mut w = Weights::zeros(1);
        let stats = train(&g, &mut w, &cfg);
        assert_eq!(stats.minibatches, 20);
        // Zero treated as one.
        let cfg0 = LearnConfig {
            minibatch: 0,
            ..cfg
        };
        let mut w0 = Weights::zeros(1);
        let stats0 = train(&g, &mut w0, &cfg0);
        assert_eq!(stats0.minibatches, stats.minibatches);
        assert_eq!(w0.get(f), w.get(f));
    }

    /// `train_examples` with the graph's own evidence order is exactly
    /// `train_with_threads`; a permuted order changes the SGD trajectory
    /// (which is why streaming callers must pass the canonical one).
    #[test]
    fn explicit_example_order_controls_the_trajectory() {
        let mut reg: FeatureRegistry<usize> = FeatureRegistry::new();
        let mut g = FactorGraph::new();
        for i in 0..40usize {
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], i % 2));
            let w = reg.learnable(i % 5);
            g.add_feature(v, 0, w, 1.0 + (i % 3) as f64 * 0.5);
        }
        let cfg = LearnConfig::default();
        let order = g.evidence_vars();
        let mut w_graph = reg.build_weights();
        let mut w_explicit = reg.build_weights();
        train_with_threads(&g, &mut w_graph, &cfg, 1);
        train_examples(&g, &mut w_explicit, &cfg, 1, &order);
        assert_eq!(w_graph, w_explicit, "graph order == explicit graph order");

        let mut reversed: Vec<VarId> = order.clone();
        reversed.reverse();
        let mut w_rev = reg.build_weights();
        train_examples(&g, &mut w_rev, &cfg, 1, &reversed);
        assert_ne!(w_graph, w_rev, "order is load-bearing for the trajectory");
    }

    /// Replay training is deterministic, thread-count invariant, and
    /// bounded by the window (not the full evidence set). The 80-example
    /// window is one minibatch of at least
    /// [`holo_parallel::MIN_PARALLEL_ITEMS`] examples, so threads 2 and 4
    /// fold its shards on worker threads rather than inline.
    #[test]
    fn replay_is_deterministic_and_windowed() {
        let mut reg: FeatureRegistry<usize> = FeatureRegistry::new();
        let mut g = FactorGraph::new();
        for i in 0..100usize {
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], i % 2));
            let w = reg.learnable(i % 7);
            g.add_feature(v, 0, w, 1.0);
        }
        let order = g.evidence_vars();
        let cfg = LearnConfig::default();
        let mut w1 = reg.build_weights();
        let base = train_with_threads(&g, &mut w1, &cfg, 1);
        let mut w2 = w1.clone();
        let stats = train_replay(&g, &mut w2, &cfg, 1, &order, 40, 2);
        assert_eq!(stats.examples, 80, "40 fresh + 40 replayed old");
        assert!(stats.examples >= holo_parallel::MIN_PARALLEL_ITEMS);
        assert!(stats.minibatches > 0);
        assert!(
            stats.minibatches < base.minibatches,
            "cheaper than full SGD"
        );
        for threads in [2, 4] {
            let mut w3 = w1.clone();
            let s3 = train_replay(&g, &mut w3, &cfg, threads, &order, 40, 2);
            assert_eq!(w3, w2, "threads = {threads}");
            assert_eq!(s3.minibatches, stats.minibatches);
        }
        // Empty window is a no-op.
        let mut w4 = w1.clone();
        let s4 = train_replay(&g, &mut w4, &cfg, 1, &order, 0, 2);
        assert_eq!(s4.examples, 0);
        assert_eq!(w4, w1);
    }

    #[test]
    fn no_evidence_is_a_noop() {
        let mut g = FactorGraph::new();
        g.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        let mut w = Weights::zeros(1);
        let stats = train(&g, &mut w, &LearnConfig::default());
        assert_eq!(stats.examples, 0);
        assert_eq!(stats.minibatches, 0);
        assert_eq!(w.get(WeightId(0)), 0.0);
    }

    #[test]
    fn single_candidate_evidence_skipped() {
        let mut g = FactorGraph::new();
        g.add_variable(Variable::evidence(vec![sym(1)], 0));
        let mut w = Weights::zeros(0);
        let stats = train(&g, &mut w, &LearnConfig::default());
        assert_eq!(stats.examples, 0);
    }
}
