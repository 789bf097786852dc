//! Cross-module property tests: the Gibbs sampler against the brute-force
//! enumeration oracle on randomly generated small factor graphs, and
//! structural invariants of marginals.

#![cfg(test)]

use crate::cache::ScoreCache;
use crate::exact::exact_marginals;
use crate::gibbs::{conditional_scores_into, GibbsConfig, GibbsSampler};
use crate::graph::{
    CliqueFactor, CmpOp, EqOnlyContext, FactorGraph, FactorOperand, FactorPredicate, Variable,
};
use crate::learn::{self, LearnConfig};
use crate::marginals::Marginals;
use crate::weights::{FeatureRegistry, WeightId, Weights};
use holo_dataset::Sym;
use proptest::prelude::*;

/// A compact description of a random small model.
#[derive(Debug, Clone)]
struct RandomModel {
    /// Candidate-count per variable (2..=3), max 4 variables.
    arities: Vec<usize>,
    /// Unary feature weights per (var, candidate), in [-1.5, 1.5].
    unary: Vec<Vec<f64>>,
    /// Pairwise "must differ" cliques: (a, b, weight in [0, 2]).
    cliques: Vec<(usize, usize, f64)>,
}

fn random_model() -> impl Strategy<Value = RandomModel> {
    (2usize..=4)
        .prop_flat_map(|n_vars| {
            let arities = proptest::collection::vec(2usize..=3, n_vars);
            arities.prop_flat_map(move |arities| {
                let unary = arities
                    .iter()
                    .map(|&a| proptest::collection::vec(-1.5f64..1.5, a))
                    .collect::<Vec<_>>();
                let cliques = proptest::collection::vec(
                    (0..arities.len(), 0..arities.len(), 0.0f64..2.0),
                    0..3,
                );
                (Just(arities.clone()), unary, cliques).prop_map(|(arities, unary, cliques)| {
                    RandomModel {
                        arities,
                        unary,
                        cliques: cliques.into_iter().filter(|(a, b, _)| a != b).collect(),
                    }
                })
            })
        })
        .prop_filter("at least one variable", |m| !m.arities.is_empty())
}

fn build(model: &RandomModel) -> (FactorGraph, Weights) {
    let mut graph = FactorGraph::new();
    let mut weight_values = Vec::new();
    let mut vars = Vec::new();
    for (v, &arity) in model.arities.iter().enumerate() {
        // Shared symbol space so "must differ" cliques are meaningful.
        let domain: Vec<Sym> = (1..=arity as u32).map(Sym).collect();
        let var = graph.add_variable(Variable::query(domain, Some(0)));
        vars.push(var);
        for k in 0..arity {
            let w = WeightId(weight_values.len() as u32);
            weight_values.push(model.unary[v][k]);
            graph.add_feature(var, k, w, 1.0);
        }
    }
    for &(a, b, w) in &model.cliques {
        let wid = WeightId(weight_values.len() as u32);
        weight_values.push(w);
        graph.add_clique(CliqueFactor {
            vars: vec![vars[a], vars[b]],
            weight: wid,
            predicates: vec![FactorPredicate {
                lhs: FactorOperand::Var(0),
                op: CmpOp::Eq,
                rhs: FactorOperand::Var(1),
            }],
        });
    }
    let mut weights = Weights::zeros(weight_values.len());
    for (i, v) in weight_values.into_iter().enumerate() {
        weights.set(WeightId(i as u32), v);
    }
    (graph, weights)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Gibbs marginals converge to the exact enumeration on random small
    /// graphs (loose tolerance — finite sampling).
    #[test]
    fn gibbs_matches_exact_on_random_graphs(model in random_model()) {
        let (graph, weights) = build(&model);
        let ctx = EqOnlyContext;
        let exact = exact_marginals(&graph, &weights, &ctx);
        let approx = GibbsSampler::new(&graph, &weights, &ctx, 99).run(&GibbsConfig {
            burn_in: 300,
            samples: 12_000,
            seed: 99,
            chains: 1,
        });
        for v in graph.var_ids() {
            for k in 0..graph.var(v).arity() {
                let diff = (exact.prob(v, k) - approx.prob(v, k)).abs();
                prop_assert!(diff < 0.06, "var {v:?} cand {k}: |{} - {}| = {diff}",
                    exact.prob(v, k), approx.prob(v, k));
            }
        }
    }

    /// Every marginal vector is a probability distribution.
    #[test]
    fn marginals_are_distributions(model in random_model()) {
        let (graph, weights) = build(&model);
        let ctx = EqOnlyContext;
        for marginals in [
            exact_marginals(&graph, &weights, &ctx),
            GibbsSampler::new(&graph, &weights, &ctx, 5).run(&GibbsConfig {
                burn_in: 10,
                samples: 200,
                seed: 5,
            chains: 1,
            }),
        ] {
            for v in graph.var_ids() {
                let total: f64 = marginals.probs(v).iter().sum();
                prop_assert!((total - 1.0).abs() < 1e-9);
                prop_assert!(marginals.probs(v).iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
        }
    }

    /// Without cliques, Gibbs and the closed-form softmax agree — the §5.2
    /// independence property.
    #[test]
    fn independent_graphs_need_no_sampling(model in random_model()) {
        let model = RandomModel { cliques: Vec::new(), ..model };
        let (graph, weights) = build(&model);
        let closed = Marginals::exact_unary(&graph, &weights);
        let sampled = GibbsSampler::new(&graph, &weights, &EqOnlyContext, 17).run(&GibbsConfig {
            burn_in: 200,
            samples: 12_000,
            seed: 17,
            chains: 1,
        });
        for v in graph.var_ids() {
            for k in 0..graph.var(v).arity() {
                prop_assert!((closed.prob(v, k) - sampled.prob(v, k)).abs() < 0.06);
            }
        }
    }

    /// Chromatic sweeps converge to the same exact marginals the
    /// sequential sampler does, on random cliquey graphs (loose tolerance
    /// — finite sampling; a different but equally valid sampling stream).
    #[test]
    fn chromatic_gibbs_matches_exact_on_random_graphs(model in random_model()) {
        let (graph, weights) = build(&model);
        let ctx = EqOnlyContext;
        let exact = exact_marginals(&graph, &weights, &ctx);
        let approx = GibbsSampler::new(&graph, &weights, &ctx, 101)
            .with_chromatic(graph.coloring(), 4)
            .run(&GibbsConfig {
                burn_in: 300,
                samples: 12_000,
                seed: 101,
                chains: 1,
            });
        for v in graph.var_ids() {
            for k in 0..graph.var(v).arity() {
                let diff = (exact.prob(v, k) - approx.prob(v, k)).abs();
                prop_assert!(diff < 0.06, "var {v:?} cand {k}: |{} - {}| = {diff}",
                    exact.prob(v, k), approx.prob(v, k));
            }
        }
    }

    /// Chromatic sweeps are bit-identical across thread counts on random
    /// graphs, and on single-color (clique-free) graphs bit-identical to
    /// the sequential sweep.
    #[test]
    fn chromatic_gibbs_deterministic_across_threads(model in random_model()) {
        let (graph, weights) = build(&model);
        let ctx = EqOnlyContext;
        let cfg = GibbsConfig { burn_in: 20, samples: 300, seed: 7, chains: 1 };
        let reference = GibbsSampler::new(&graph, &weights, &ctx, cfg.seed)
            .with_chromatic(graph.coloring(), 1)
            .run(&cfg);
        for threads in [2usize, 4] {
            let m = GibbsSampler::new(&graph, &weights, &ctx, cfg.seed)
                .with_chromatic(graph.coloring(), threads)
                .run(&cfg);
            prop_assert_eq!(&m, &reference, "threads = {}", threads);
        }
        if graph.coloring().num_colors() == 1 {
            let sequential = GibbsSampler::new(&graph, &weights, &ctx, cfg.seed).run(&cfg);
            prop_assert_eq!(&sequential, &reference, "single color keeps the sequential sweep");
        }
    }

    /// The frozen-weight score cache serves the Gibbs conditional
    /// bit-for-bit: on random graphs, weights and states, the cached
    /// `conditional_scores_into` (memcpy of the cached row range + clique
    /// deltas) produces exactly the bytes of the uncached matrix walk, at
    /// every cache-build thread count. This is the invariant that lets
    /// `PartitionedConfig::score_cache` be a pure wall-clock knob.
    #[test]
    fn cached_conditionals_bit_identical_to_uncached(model in random_model(),
                                                     state_salt in 0usize..64) {
        let (graph, weights) = build(&model);
        let ctx = EqOnlyContext;
        let state: Vec<usize> = graph
            .var_ids()
            .map(|v| (v.index() + state_salt) % graph.var(v).arity())
            .collect();
        for threads in [1usize, 4] {
            let cache = ScoreCache::build(graph.design(), &weights, threads);
            let (mut cached, mut uncached) = (Vec::new(), Vec::new());
            let (mut syms_a, mut syms_b) = (Vec::new(), Vec::new());
            for v in graph.var_ids() {
                conditional_scores_into(
                    &graph, &weights, &ctx, Some(&cache), &state, v, &mut cached, &mut syms_a,
                );
                conditional_scores_into(
                    &graph, &weights, &ctx, None, &state, v, &mut uncached, &mut syms_b,
                );
                let cached_bits: Vec<u64> = cached.iter().map(|x| x.to_bits()).collect();
                let uncached_bits: Vec<u64> = uncached.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(cached_bits, uncached_bits,
                    "var {:?}, cache built with {} thread(s)", v, threads);
            }
        }
    }

    /// Cost-aware dispatch is a pure scheduling change: for any weight
    /// vector and thread count, `parallel_jobs_weighted` returns exactly
    /// what `parallel_jobs` returns for a pure job function — results in
    /// index order, every index exactly once.
    #[test]
    fn weighted_jobs_match_plain_jobs(ws in proptest::collection::vec(0u64..1_000, 0..40),
                                      threads in 1usize..6) {
        let n = ws.len();
        let f = |i: usize| i.wrapping_mul(0x9e37_79b9) ^ (ws[i] as usize);
        let plain = holo_parallel::parallel_jobs(1, n, f);
        let weighted = holo_parallel::parallel_jobs_weighted(threads, n, |i| ws[i], f);
        prop_assert_eq!(weighted, plain);
    }

    /// The coloring invariants survive random late mutations: the patched
    /// coloring stays proper, clique-free variables stay at color 0, and
    /// the graph never rebuilds it.
    #[test]
    fn coloring_patches_stay_proper(model in random_model(),
                                    extra in proptest::collection::vec(
                                        (0usize..16, 0usize..16), 0..6)) {
        let (mut graph, _) = build(&model);
        let _ = graph.coloring(); // the one full build
        for (a, b) in extra {
            let n = graph.var_count();
            let (a, b) = (crate::graph::VarId((a % n) as u32), crate::graph::VarId((b % n) as u32));
            if a == b {
                continue;
            }
            graph.add_clique(CliqueFactor {
                vars: vec![a, b],
                weight: WeightId(0),
                predicates: vec![FactorPredicate {
                    lhs: FactorOperand::Var(0),
                    op: CmpOp::Eq,
                    rhs: FactorOperand::Var(1),
                }],
            });
            let coloring = graph.coloring();
            for clique in graph.cliques() {
                let mut colors: Vec<u32> =
                    clique.vars.iter().map(|&v| coloring.color_of(v)).collect();
                let total = colors.len();
                colors.sort_unstable();
                colors.dedup();
                prop_assert_eq!(colors.len(), total, "improper after patch");
            }
            for v in graph.var_ids() {
                if graph.cliques_of(v).is_empty() {
                    prop_assert_eq!(coloring.color_of(v), 0, "clique-free var off color 0");
                }
            }
        }
        prop_assert_eq!(graph.coloring_stats().full_builds, 1, "patches only");
    }
}

/// One evidence variable of a random training model: `(arity, target,
/// per-candidate sparse features)`. Feature keys < 8 intern as tied
/// learnable weights, keys ≥ 8 as fixed weights — so tied weights and
/// the fixed-weight skip both get exercised. Arity-1 variables exercise
/// the eligibility filter.
type EvidenceVar = (usize, usize, Vec<Vec<(usize, f64)>>);

fn evidence_model() -> impl Strategy<Value = Vec<EvidenceVar>> {
    proptest::collection::vec(
        (1usize..=3).prop_flat_map(|arity| {
            (
                Just(arity),
                0..arity,
                proptest::collection::vec(
                    proptest::collection::vec((0usize..10, -1.5f64..1.5), 0..4),
                    arity,
                ),
            )
        }),
        1..12,
    )
}

fn build_evidence(model: &[EvidenceVar]) -> (FactorGraph, Weights, Vec<crate::graph::VarId>) {
    let mut reg: FeatureRegistry<usize> = FeatureRegistry::new();
    let mut graph = FactorGraph::new();
    let mut order = Vec::new();
    for &(arity, target, ref per_candidate) in model {
        let domain: Vec<Sym> = (1..=arity as u32).map(Sym).collect();
        let v = graph.add_variable(Variable::evidence(domain, target));
        for (k, features) in per_candidate.iter().enumerate() {
            for &(key, x) in features {
                let wid = if key >= 8 {
                    reg.fixed(key, 0.75)
                } else {
                    reg.learnable(key)
                };
                graph.add_feature(v, k, wid, x);
            }
        }
        order.push(v);
    }
    (graph, reg.build_weights(), order)
}

fn weight_bits(w: &Weights) -> Vec<u64> {
    (0..w.len())
        .map(|i| w.get(WeightId(i as u32)).to_bits())
        .collect()
}

/// Every `LearnStats` field, floats as bits, for bitwise comparison.
fn learn_stats_bits(s: &learn::LearnStats) -> [u64; 9] {
    [
        s.final_log_likelihood.to_bits(),
        s.examples as u64,
        s.epochs as u64,
        s.minibatches as u64,
        s.grad_norm.to_bits(),
        s.grad_norm_mean.to_bits(),
        s.packed_entries as u64,
        s.packed_bytes as u64,
        s.packed_epochs as u64,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Threads {2, 4} train bit-for-bit like threads 1 — weights and
    /// `LearnStats` — for both full training and replay windows. The
    /// random model is replicated `copies` times so that minibatches and
    /// replay windows reach `holo_parallel::MIN_PARALLEL_ITEMS` examples
    /// and fold their shards on worker threads, not inline.
    #[test]
    fn trainer_is_bitwise_thread_invariant(model in evidence_model(),
                                           copies in 24usize..=48,
                                           minibatch in 64usize..=160,
                                           recent in 32usize..=96,
                                           replay_epochs in 1usize..3) {
        let replicated: Vec<EvidenceVar> =
            std::iter::repeat_n(model.iter().cloned(), copies).flatten().collect();
        let (graph, weights, order) = build_evidence(&replicated);
        let cfg = LearnConfig {
            epochs: 3,
            minibatch,
            ..LearnConfig::default()
        };
        let mut w_ref = weights.clone();
        let s_ref = learn::train_examples(&graph, &mut w_ref, &cfg, 1, &order);
        let mut r_ref = w_ref.clone();
        let s2_ref =
            learn::train_replay(&graph, &mut r_ref, &cfg, 1, &order, recent, replay_epochs);
        for threads in [2usize, 4] {
            let mut w = weights.clone();
            let s = learn::train_examples(&graph, &mut w, &cfg, threads, &order);
            prop_assert_eq!(
                weight_bits(&w),
                weight_bits(&w_ref),
                "train_examples, threads = {}",
                threads
            );
            prop_assert_eq!(learn_stats_bits(&s), learn_stats_bits(&s_ref));

            let mut r = w_ref.clone();
            let s2 =
                learn::train_replay(&graph, &mut r, &cfg, threads, &order, recent, replay_epochs);
            prop_assert_eq!(
                weight_bits(&r),
                weight_bits(&r_ref),
                "train_replay, threads = {}, recent = {}",
                threads,
                recent
            );
            prop_assert_eq!(learn_stats_bits(&s2), learn_stats_bits(&s2_ref));
        }
    }
}
