//! Algorithm 2 — pruning the domain of the noisy-cell random variables.
//!
//! For a noisy cell `c` in tuple `t` with attribute `A_c`, the candidate
//! repairs are the values `v` of `A_c`'s active domain that co-occur with
//! some other cell value `v_c'` of `t` with conditional probability
//! `Pr[v | v_c'] = #(v, v_c') / #v_c' ≥ τ`. The cell's initial value is
//! always kept (the model must be able to keep the observation), and the
//! candidate list is capped at [`HoloConfig::max_domain`] by descending
//! best conditional probability.
//!
//! Varying τ trades recall (small τ, large domains) against precision and
//! runtime (large τ) — the axis swept in Figures 3 and 4.
//!
//! # One scan per group per pass
//!
//! A cell reads one co-occurrence group `(A', v_c', A_c)` per partner
//! value, and the answer depends only on the group: every `City = Chicago`
//! row reads the same `Chicago → A_c` counts. So each pruning pass first
//! builds a memo of the groups its cells read. It scans each distinct group
//! **once**, in parallel over the sorted group keys, and keeps only the
//! entries whose `#(v, v_c') / #v_c'` reaches the pass's *floor* τ — the
//! lowest τ any of its cells is pruned at. One memo thus serves the
//! compiler's noisy cells (τ) and evidence cells (`min(τ,
//! evidence_tau_cap)`) alike. Storage is flat: one entry vector plus a
//! group → `(start, len, #v_c')` index. Each cell then filters its groups'
//! few surviving entries at its own τ, recomputing every probability
//! exactly as a full scan would, so domains are bit-for-bit those of the
//! per-cell scan (kept as the test oracle). The compiler and the streaming
//! engine drop the memo before featurization, so it never coexists with
//! the feature buffers.
//!
//! [`HoloConfig::max_domain`]: crate::config::HoloConfig::max_domain

use holo_dataset::{
    AttrId, CellRef, CooccurStats, CorrelationView, Dataset, FxHashMap, FxHashSet, Sym,
};

/// BClean-style correlation gate for Algorithm 2 (the `cor_strength` knob
/// of the Python HoloClean API): conditioning attributes whose uncertainty
/// coefficient toward the repaired attribute falls below `min_corr` are
/// skipped entirely — their co-occurrence rows are never scanned and their
/// candidates never enter the domain. Opt-in via
/// [`HoloConfig::cor_strength`](crate::config::HoloConfig::cor_strength);
/// ungated pruning scans every partner.
#[derive(Debug, Clone, Copy)]
pub struct PruneGate<'a> {
    /// The dependency view of the statistics being pruned against.
    pub corr: &'a CorrelationView,
    /// Minimum correlation for a partner attribute to participate.
    pub min_corr: f64,
}

/// Pruned candidate domains per noisy cell. Candidates are deduplicated,
/// always contain the cell's initial value (even if null), and are sorted
/// by descending score (initial value first when tied).
#[derive(Debug, Clone, Default)]
pub struct CellDomains {
    domains: FxHashMap<CellRef, Vec<Sym>>,
}

impl CellDomains {
    /// The candidate list of `cell`; empty slice if the cell is unknown.
    pub fn get(&self, cell: CellRef) -> &[Sym] {
        self.domains.get(&cell).map_or(&[], Vec::as_slice)
    }

    /// Whether the cell has a pruned domain.
    pub fn contains(&self, cell: CellRef) -> bool {
        self.domains.contains_key(&cell)
    }

    /// Number of cells covered.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether no cells are covered.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Iterates `(cell, candidates)`.
    pub fn iter(&self) -> impl Iterator<Item = (CellRef, &[Sym])> {
        self.domains.iter().map(|(c, d)| (*c, d.as_slice()))
    }

    /// Total candidate count over all cells (a size proxy for the factor
    /// graph, reported by the harness).
    pub fn total_candidates(&self) -> usize {
        self.domains.values().map(Vec::len).sum()
    }

    /// Inserts a domain (used by compile for evidence variables).
    pub(crate) fn insert(&mut self, cell: CellRef, domain: Vec<Sym>) {
        self.domains.insert(cell, domain);
    }
}

/// Runs Algorithm 2 over the noisy cells.
///
/// Conditioning values are used however rarely they occur (minimum
/// support 1). The compiler and the streaming engine prune at
/// [`HoloConfig::min_cond_support`](crate::config::HoloConfig::min_cond_support)
/// (default 2) instead, so domains from this function — and the `diag`
/// `domain_hist*` histograms built from them — can be larger than the
/// model's.
pub fn prune_domains<I>(
    ds: &Dataset,
    noisy: I,
    stats: &CooccurStats,
    tau: f64,
    max_domain: usize,
) -> CellDomains
where
    I: IntoIterator<Item = CellRef>,
{
    let cells: Vec<CellRef> = noisy.into_iter().collect();
    prune_domains_with_threads(ds, &cells, stats, tau, max_domain, 1)
}

/// [`prune_domains`] on up to `threads` worker threads (`0` = all cores):
/// the group scans and the per-cell reads both shard, and the result is
/// identical for every thread count. Like [`prune_domains`] it prunes at
/// minimum support 1, not at the model's
/// [`HoloConfig::min_cond_support`](crate::config::HoloConfig::min_cond_support).
pub fn prune_domains_with_threads(
    ds: &Dataset,
    noisy: &[CellRef],
    stats: &CooccurStats,
    tau: f64,
    max_domain: usize,
    threads: usize,
) -> CellDomains {
    prune_domains_gated(ds, noisy, stats, tau, max_domain, threads, None)
}

/// [`prune_domains_with_threads`] with an optional correlation gate.
/// `gate = None` scans all partner attributes — byte-identical to the
/// ungated path. Minimum support is 1 here too, not the model's
/// [`HoloConfig::min_cond_support`](crate::config::HoloConfig::min_cond_support).
pub fn prune_domains_gated(
    ds: &Dataset,
    noisy: &[CellRef],
    stats: &CooccurStats,
    tau: f64,
    max_domain: usize,
    threads: usize,
    gate: Option<PruneGate<'_>>,
) -> CellDomains {
    let pruner = DomainPruner::build(ds, stats, noisy.iter().copied(), tau, 1, gate, threads);
    let domains = holo_parallel::parallel_map(threads, noisy, |_, &cell| {
        pruner.prune(ds, cell, tau, max_domain)
    });
    let mut out = CellDomains::default();
    for (&cell, domain) in noisy.iter().zip(domains) {
        out.insert(cell, domain);
    }
    out
}

/// A co-occurrence group: `(conditioning attribute, its value, target
/// attribute)`.
type GroupKey = (AttrId, Sym, AttrId);

/// Where one group's surviving entries sit in the pruner's entry vector.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    len: u32,
    /// `#v'`, the denominator of the group's conditional probabilities.
    denom: u32,
}

/// One pruning pass's memo of Algorithm 2 group scans: the entries of
/// every group the pass reads whose conditional probability reaches the
/// pass's floor τ (see the module docs).
pub(crate) struct DomainPruner<'a> {
    floor: f64,
    gate: Option<PruneGate<'a>>,
    index: FxHashMap<GroupKey, Span>,
    entries: Vec<(Sym, u32)>,
}

impl<'a> DomainPruner<'a> {
    /// Scans each group that `cells` read once, keeping the entries with
    /// `count / #v' ≥ floor`. Conditioning values occurring fewer than
    /// `min_support` times contribute nothing — a value seen twice yields
    /// meaningless `Pr[v | v'] = 1` estimates. Groups are scanned on up to
    /// `threads` threads in sorted-key order, so the memo is the same for
    /// every thread count.
    pub(crate) fn build(
        ds: &Dataset,
        stats: &CooccurStats,
        cells: impl IntoIterator<Item = CellRef>,
        floor: f64,
        min_support: u32,
        gate: Option<PruneGate<'a>>,
        threads: usize,
    ) -> Self {
        let mut seen: FxHashSet<GroupKey> = FxHashSet::default();
        for cell in cells {
            for_each_partner(ds, cell, gate, |cond_attr, v_cond| {
                seen.insert((cond_attr, v_cond, cell.attr));
            });
        }
        let mut keys: Vec<GroupKey> = seen.into_iter().collect();
        keys.sort_unstable();
        let min_support = min_support.max(1);
        let parts = holo_parallel::parallel_chunks(threads, &keys, |_, chunk| {
            let mut spans = Vec::with_capacity(chunk.len());
            let mut entries = Vec::new();
            for &key in chunk {
                let (cond_attr, v_cond, target) = key;
                let denom = stats.freq().count(cond_attr, v_cond);
                if denom < min_support {
                    continue;
                }
                let Some(group) = stats.group(cond_attr, v_cond, target) else {
                    continue;
                };
                let start = entries.len();
                group.for_each(|v, count| {
                    if f64::from(count) / f64::from(denom) >= floor {
                        entries.push((v, count));
                    }
                });
                let len = u32::try_from(entries.len() - start).expect("group fits u32");
                if len > 0 {
                    spans.push((key, start, len, denom));
                }
            }
            vec![(spans, entries)]
        });
        let mut index = FxHashMap::with_capacity_and_hasher(
            parts.iter().map(|(s, _)| s.len()).sum(),
            Default::default(),
        );
        let mut entries = Vec::with_capacity(parts.iter().map(|(_, e)| e.len()).sum());
        for (spans, part) in parts {
            let base = entries.len();
            for (key, start, len, denom) in spans {
                let start = base + start;
                index.insert(key, Span { start, len, denom });
            }
            entries.extend(part);
        }
        Self {
            floor,
            gate,
            index,
            entries,
        }
    }

    /// Candidate repairs for one cell at threshold `tau` (at least the
    /// floor): always ≥ 1 entry, the initial value first. Recomputes each
    /// kept entry's `count / #v'` exactly as a full group scan would, so
    /// the domain is the one the per-cell scan returns.
    pub(crate) fn prune(
        &self,
        ds: &Dataset,
        cell: CellRef,
        tau: f64,
        max_domain: usize,
    ) -> Vec<Sym> {
        assert!(
            tau >= self.floor,
            "τ {tau} is below the pruner's floor {}",
            self.floor
        );
        let mut passing = Vec::new();
        for_each_partner(ds, cell, self.gate, |cond_attr, v_cond| {
            let Some(span) = self.index.get(&(cond_attr, v_cond, cell.attr)) else {
                return;
            };
            let denom = f64::from(span.denom);
            for &(v, count) in &self.entries[span.start..span.start + span.len as usize] {
                let p = f64::from(count) / denom;
                if p >= tau {
                    passing.push((v, p));
                }
            }
        });
        rank(ds, cell, passing, max_domain)
    }
}

/// Calls `f(A', v')` for every conditioning value Algorithm 2 reads for
/// `cell`: each other attribute of its tuple that holds a non-null value
/// and passes the gate.
fn for_each_partner(
    ds: &Dataset,
    cell: CellRef,
    gate: Option<PruneGate<'_>>,
    mut f: impl FnMut(AttrId, Sym),
) {
    for cond_attr in ds.schema().attrs() {
        if cond_attr == cell.attr {
            continue;
        }
        if let Some(g) = gate {
            if g.corr.correlation(cond_attr, cell.attr) < g.min_corr {
                continue;
            }
        }
        let v_cond = ds.cell(cell.tuple, cond_attr);
        if !v_cond.is_null() {
            f(cond_attr, v_cond);
        }
    }
}

/// Orders a cell's passing `(candidate, probability)` pairs into its
/// domain: each candidate at its best probability, the initial value
/// first, then descending probability, capped at `max_domain`.
fn rank(
    ds: &Dataset,
    cell: CellRef,
    mut candidates: Vec<(Sym, f64)>,
    max_domain: usize,
) -> Vec<Sym> {
    let init = ds.cell_ref(cell);
    if candidates.is_empty() {
        return vec![init];
    }
    // The initial value always survives pruning with top priority.
    candidates.push((init, f64::INFINITY));
    // Best probability per candidate: sort each value's pairs
    // best-first, keep the first.
    candidates.sort_unstable_by(|(s1, p1), (s2, p2)| s1.cmp(s2).then(p2.total_cmp(p1)));
    candidates.dedup_by_key(|&mut (s, _)| s);
    // Ties break on the *value string*, not the symbol id: symbol ids
    // encode interning order, and the streaming engine interns values in
    // arrival order (constraints first, rows as they arrive) while the
    // one-shot loader interns all rows up front — a pool-dependent
    // tie-break would make the two paths disagree on domain order (and
    // therefore on MAP ties) for identical data.
    candidates.sort_by(|(s1, p1), (s2, p2)| {
        p2.partial_cmp(p1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| ds.value_str(*s1).cmp(ds.value_str(*s2)))
    });
    candidates.truncate(max_domain.max(1));
    candidates.into_iter().map(|(s, _)| s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_dataset::Schema;
    use proptest::prelude::*;

    /// Zip 60608 maps to Chicago in 3/4 tuples, Cicago in 1/4.
    fn city_ds() -> Dataset {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        ds.push_row(&["60608", "Chicago"]);
        ds.push_row(&["60608", "Chicago"]);
        ds.push_row(&["60608", "Chicago"]);
        ds.push_row(&["60608", "Cicago"]);
        ds.push_row(&["60609", "Evanston"]);
        ds
    }

    fn cell(ds: &Dataset, t: usize, attr: &str) -> CellRef {
        CellRef {
            tuple: t.into(),
            attr: ds.schema().attr_id(attr).unwrap(),
        }
    }

    /// One cell through a pass pruner of its own, at minimum support 1.
    fn prune_one(
        ds: &Dataset,
        c: CellRef,
        stats: &CooccurStats,
        tau: f64,
        max_domain: usize,
    ) -> Vec<Sym> {
        DomainPruner::build(ds, stats, [c], tau, 1, None, 1).prune(ds, c, tau, max_domain)
    }

    /// The per-cell Algorithm 2 scan the pass pruner replaced: every cell
    /// rescans each of its groups in full. The oracle the memo must match.
    fn scan_cell(
        ds: &Dataset,
        cell: CellRef,
        stats: &CooccurStats,
        tau: f64,
        max_domain: usize,
        min_support: u32,
        gate: Option<PruneGate<'_>>,
    ) -> Vec<Sym> {
        let mut scores: FxHashMap<Sym, f64> = FxHashMap::default();
        for_each_partner(ds, cell, gate, |cond_attr, v_cond| {
            let denom = stats.freq().count(cond_attr, v_cond);
            if denom == 0 || denom < min_support {
                return;
            }
            if let Some(group) = stats.group(cond_attr, v_cond, cell.attr) {
                group.for_each(|v, count| {
                    let p = f64::from(count) / f64::from(denom);
                    if p >= tau {
                        let entry = scores.entry(v).or_insert(0.0);
                        if p > *entry {
                            *entry = p;
                        }
                    }
                });
            }
        });
        rank(ds, cell, scores.into_iter().collect(), max_domain)
    }

    #[test]
    fn threshold_filters_candidates() {
        let ds = city_ds();
        let stats = CooccurStats::build(&ds);
        let c = cell(&ds, 3, "City"); // the "Cicago" cell
                                      // τ=0.5: only Chicago (p=0.75) passes; initial value kept.
        let dom = prune_one(&ds, c, &stats, 0.5, 50);
        let names: Vec<_> = dom.iter().map(|&s| ds.value_str(s)).collect();
        assert_eq!(names, vec!["Cicago", "Chicago"]);
        // τ=0.2: Cicago (p=0.25) also passes on merit.
        let dom = prune_one(&ds, c, &stats, 0.2, 50);
        assert_eq!(dom.len(), 2);
        // τ=0.9: nothing passes; only the initial value remains.
        let dom = prune_one(&ds, c, &stats, 0.9, 50);
        let names: Vec<_> = dom.iter().map(|&s| ds.value_str(s)).collect();
        assert_eq!(names, vec!["Cicago"]);
    }

    #[test]
    fn initial_value_always_first() {
        let ds = city_ds();
        let stats = CooccurStats::build(&ds);
        for t in 0..ds.tuple_count() {
            let c = cell(&ds, t, "City");
            let dom = prune_one(&ds, c, &stats, 0.1, 50);
            assert_eq!(dom[0], ds.cell_ref(c), "initial value leads the domain");
        }
    }

    #[test]
    fn max_domain_cap() {
        let mut ds = Dataset::new(Schema::new(vec!["K", "V"]));
        for i in 0..20 {
            ds.push_row(&["k".to_string(), format!("v{i}")]);
        }
        let stats = CooccurStats::build(&ds);
        let c = cell(&ds, 0, "V");
        let dom = prune_one(&ds, c, &stats, 0.0, 5);
        assert_eq!(dom.len(), 5);
        assert_eq!(dom[0], ds.cell_ref(c));
    }

    #[test]
    fn null_conditioning_cells_ignored() {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        ds.push_row(&["", "Chicago"]);
        ds.push_row(&["", "Boston"]);
        let stats = CooccurStats::build(&ds);
        let c = cell(&ds, 0, "City");
        // No non-null conditioning cell: only the initial value.
        let dom = prune_one(&ds, c, &stats, 0.0, 50);
        assert_eq!(dom.len(), 1);
    }

    #[test]
    fn prune_domains_covers_all_noisy_cells() {
        let ds = city_ds();
        let stats = CooccurStats::build(&ds);
        let noisy = [cell(&ds, 3, "City"), cell(&ds, 3, "Zip")];
        let domains = prune_domains(&ds, noisy.iter().copied(), &stats, 0.5, 50);
        assert_eq!(domains.len(), 2);
        assert!(domains.contains(noisy[0]));
        assert!(!domains.get(noisy[1]).is_empty());
        assert!(domains.total_candidates() >= 2);
    }

    /// A dataset of `width` attributes (value 0 encodes a null cell, so
    /// codes and hash keys diverge early) with dense and naive statistics
    /// maintained through a full CRUD interleaving: build → extend with
    /// `extra` → update every `update_step`-th row in place → delete every
    /// `delete_step`-th row.
    fn crud_fixture(
        width: usize,
        rows: &[Vec<u8>],
        extra: &[Vec<u8>],
        update_step: usize,
        delete_step: usize,
    ) -> (Dataset, CooccurStats, CooccurStats) {
        use holo_dataset::TupleId;
        const MODULI: [usize; 4] = [6, 3, 5, 7];
        let row = |r: &[u8]| -> Vec<String> {
            r.iter()
                .enumerate()
                .map(|(k, &v)| {
                    if v == 0 {
                        String::new()
                    } else {
                        format!("a{k}v{v}")
                    }
                })
                .collect()
        };
        let mut ds = Dataset::new(Schema::new((0..width).map(|k| format!("a{k}")).collect()));
        for r in rows {
            ds.push_row(&row(r));
        }
        let mut dense = CooccurStats::build_with_opts(&ds, 4, false);
        let mut naive = CooccurStats::build_with_opts(&ds, 4, true);

        // Extend with a fresh batch.
        let batch: Vec<Vec<String>> = extra.iter().map(|r| row(r)).collect();
        if !batch.is_empty() {
            let from = ds.append_rows(&batch);
            dense.extend_with_threads(&ds, from, 4);
            naive.extend_with_threads(&ds, from, 4);
        }

        // In-place update of a stride of rows.
        let updated: Vec<TupleId> = (0..ds.tuple_count())
            .step_by(update_step)
            .map(TupleId::from)
            .filter(|&t| ds.is_live(t))
            .collect();
        dense.retract_with_threads(&ds, &updated, 4);
        naive.retract_with_threads(&ds, &updated, 4);
        let new_rows: Vec<(TupleId, Vec<String>)> = updated
            .iter()
            .map(|&t| {
                let i = t.index();
                let vals: Vec<u8> = MODULI[..width].iter().map(|&m| (i % m) as u8).collect();
                (t, row(&vals))
            })
            .collect();
        ds.update_rows(&new_rows);
        dense.absorb_rows_with_threads(&ds, &updated, 4);
        naive.absorb_rows_with_threads(&ds, &updated, 4);

        // Delete a stride of rows.
        let deleted: Vec<TupleId> = (0..ds.tuple_count())
            .step_by(delete_step)
            .map(TupleId::from)
            .filter(|&t| ds.is_live(t))
            .collect();
        dense.retract_with_threads(&ds, &deleted, 4);
        ds.delete_rows(&deleted);
        naive.retract_with_threads(&ds, &deleted, 4);
        (ds, dense, naive)
    }

    /// Every cell of every live tuple.
    fn live_cells(ds: &Dataset) -> Vec<CellRef> {
        ds.tuples()
            .flat_map(|t| {
                ds.schema()
                    .attrs()
                    .map(move |attr| CellRef { tuple: t, attr })
            })
            .collect()
    }

    /// Domains in cell order.
    fn dump(doms: &CellDomains) -> Vec<(CellRef, Vec<Sym>)> {
        let mut v: Vec<_> = doms.iter().map(|(c, d)| (c, d.to_vec())).collect();
        v.sort_unstable_by_key(|&(c, _)| (c.tuple.index(), c.attr.index()));
        v
    }

    proptest! {
        /// Monotonicity: raising τ never grows a domain, and every domain
        /// contains the initial value.
        #[test]
        fn prop_monotone_in_tau(
            rows in proptest::collection::vec((0u8..4, 0u8..6), 1..40),
            t1 in 0.0f64..0.5,
            delta in 0.0f64..0.5
        ) {
            let mut ds = Dataset::new(Schema::new(vec!["K", "V"]));
            for (k, v) in &rows {
                ds.push_row(&[format!("k{k}"), format!("v{v}")]);
            }
            let stats = CooccurStats::build(&ds);
            let t2 = t1 + delta;
            for t in 0..rows.len() {
                let c = CellRef { tuple: t.into(), attr: holo_dataset::AttrId(1) };
                let d1 = prune_one(&ds, c, &stats, t1, 100);
                let d2 = prune_one(&ds, c, &stats, t2, 100);
                prop_assert!(d2.len() <= d1.len());
                prop_assert!(d1.contains(&ds.cell_ref(c)));
                prop_assert!(d2.contains(&ds.cell_ref(c)));
                // Subset: every τ₂ candidate also passes τ₁.
                for v in &d2 {
                    prop_assert!(d1.contains(v));
                }
            }
        }

        /// The dense statistics engine and the retained naive oracle give
        /// Algorithm 2 identical domains — same cells, same candidates,
        /// same order — across random datasets (with nulls), a full CRUD
        /// interleaving (build → extend → update → delete), thread counts
        /// {1, 4}, and both the ungated and correlation-gated scans.
        #[test]
        fn prop_prune_domains_dense_matches_naive(
            rows in proptest::collection::vec((0u8..5, 0u8..4, 0u8..4), 5..30),
            extra in proptest::collection::vec((0u8..5, 0u8..4, 0u8..4), 0..10),
            update_step in 2usize..5,
            delete_step in 3usize..6,
            tau in 0.0f64..0.6,
            min_corr in 0.0f64..0.8,
        ) {
            let rows: Vec<Vec<u8>> = rows.iter().map(|r| vec![r.0, r.1, r.2]).collect();
            let extra: Vec<Vec<u8>> = extra.iter().map(|r| vec![r.0, r.1, r.2]).collect();
            let (ds, dense, naive) = crud_fixture(3, &rows, &extra, update_step, delete_step);
            // Every live cell is "noisy": prune them all.
            let noisy = live_cells(&ds);
            for threads in [1usize, 4] {
                for gated in [false, true] {
                    let gd = gated.then(|| PruneGate {
                        corr: dense.correlations(),
                        min_corr,
                    });
                    let gn = gated.then(|| PruneGate {
                        corr: naive.correlations(),
                        min_corr,
                    });
                    let d = prune_domains_gated(&ds, &noisy, &dense, tau, 10, threads, gd);
                    let n = prune_domains_gated(&ds, &noisy, &naive, tau, 10, threads, gn);
                    prop_assert_eq!(dump(&d), dump(&n));
                }
            }
        }

        /// One pass pruner serves two τ values (noisy τ ≥ evidence τ, the
        /// memo built at the lower) and returns, for every cell at either
        /// τ, exactly the domain of the per-cell full scan — on both
        /// statistics backends after a CRUD interleaving, gated and
        /// ungated, at minimum support 1–3 and 1 or 4 threads. Four
        /// attributes of up to 12 values give enough groups and cells that
        /// the 4-thread fill and prune really shard.
        #[test]
        fn prop_pass_pruner_matches_per_cell_scan(
            rows in proptest::collection::vec((0u8..13, 0u8..13, 0u8..6, 0u8..4), 5..60),
            extra in proptest::collection::vec((0u8..13, 0u8..13, 0u8..6, 0u8..4), 0..20),
            update_step in 2usize..5,
            delete_step in 3usize..6,
            evidence_tau in 0.0f64..0.5,
            delta in 0.0f64..0.5,
            min_corr in 0.0f64..0.8,
            max_domain in 1usize..8,
        ) {
            let wide = |r: &(u8, u8, u8, u8)| vec![r.0, r.1, r.2, r.3];
            let rows: Vec<Vec<u8>> = rows.iter().map(wide).collect();
            let extra: Vec<Vec<u8>> = extra.iter().map(wide).collect();
            let (ds, dense, naive) = crud_fixture(4, &rows, &extra, update_step, delete_step);
            let cells = live_cells(&ds);
            let noisy_tau = evidence_tau + delta;
            for stats in [&dense, &naive] {
                for gated in [false, true] {
                    let gate = gated.then(|| PruneGate {
                        corr: stats.correlations(),
                        min_corr,
                    });
                    for min_support in 1u32..=3 {
                        let oracle: Vec<(Vec<Sym>, Vec<Sym>)> = cells
                            .iter()
                            .map(|&c| {
                                let scan = |tau| scan_cell(&ds, c, stats, tau, max_domain, min_support, gate);
                                (scan(noisy_tau), scan(evidence_tau))
                            })
                            .collect();
                        for threads in [1usize, 4] {
                            let pruner = DomainPruner::build(
                                &ds,
                                stats,
                                cells.iter().copied(),
                                evidence_tau,
                                min_support,
                                gate,
                                threads,
                            );
                            let got = holo_parallel::parallel_map(threads, &cells, |_, &c| {
                                (
                                    pruner.prune(&ds, c, noisy_tau, max_domain),
                                    pruner.prune(&ds, c, evidence_tau, max_domain),
                                )
                            });
                            prop_assert_eq!(&got, &oracle);
                        }
                    }
                }
            }
        }

        /// Domains are duplicate-free.
        #[test]
        fn prop_no_duplicates(
            rows in proptest::collection::vec((0u8..3, 0u8..3), 1..30)
        ) {
            let mut ds = Dataset::new(Schema::new(vec!["K", "V"]));
            for (k, v) in &rows {
                ds.push_row(&[format!("k{k}"), format!("v{v}")]);
            }
            let stats = CooccurStats::build(&ds);
            let c = CellRef { tuple: 0usize.into(), attr: holo_dataset::AttrId(1) };
            let dom = prune_one(&ds, c, &stats, 0.0, 100);
            let mut dedup = dom.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), dom.len());
        }
    }
}
