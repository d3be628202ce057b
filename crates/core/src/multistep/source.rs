//! Candidate sources: where the first filter stage gets its candidates.
//!
//! A [`CandidateSource`] abstracts over the two first-stage organizations
//! the paper compares: a **sequential scan** evaluating a filter distance
//! for every object ([`ScanSource`]), and a **multidimensional index**
//! pruning by rectangle lower bounds ([`RtreeSource`], over reduced 3-D
//! keys as in §4.7). Both expose the two access patterns multistep
//! algorithms need: an ε-range lookup and an incremental
//! distance ranking.

use crate::cache::CacheKey;
use crate::db::HistogramDb;
use crate::error::PipelineError;
use crate::histogram::Histogram;
use crate::lower_bounds::DistanceMeasure;
use crate::reduce::IndexReducer;
use earthmover_rtree::{QueryStats as RtreeStats, RTree, WeightedLp};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Work performed inside a candidate source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SourceCost {
    /// Filter distance evaluations (point-level).
    pub filter_evaluations: u64,
    /// Index node accesses (zero for scans).
    pub node_accesses: u64,
}

/// A source of first-stage candidates ordered or selected by a filter
/// distance that lower bounds the exact distance.
///
/// Sources are fallible: a source backed by persistent storage (a
/// paged index, a memory-mapped file) can hit corruption at query time.
/// The in-memory sources here never fail, but the engine reacts to
/// [`PipelineError::Source`] from any source by degrading to a
/// sequential scan (see [`crate::pipeline::QueryEngine`]).
pub trait CandidateSource {
    /// Number of database objects behind the source.
    fn len(&self) -> usize;

    /// True when the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stage name for statistics (typically the filter's name).
    fn name(&self) -> &str;

    /// Starts an incremental ranking: candidates are produced in
    /// nondecreasing filter-distance order.
    fn ranking<'s>(&'s self, q: &Histogram) -> Result<Box<dyn RankingCursor + 's>, PipelineError>;

    /// All objects whose filter distance from `q` is at most `epsilon`,
    /// with their filter distances, plus the work performed.
    fn range(
        &self,
        q: &Histogram,
        epsilon: f64,
    ) -> Result<(Vec<(usize, f64)>, SourceCost), PipelineError>;
}

/// An in-progress incremental ranking over a [`CandidateSource`].
pub trait RankingCursor {
    /// The next candidate `(id, filter_distance)` in nondecreasing
    /// filter-distance order, or `None` when the database is exhausted.
    fn next(&mut self) -> Result<Option<(usize, f64)>, PipelineError>;

    /// Cumulative work performed by this cursor so far.
    fn cost(&self) -> SourceCost;

    /// The bins of the candidate last returned by
    /// [`RankingCursor::next`], when the cursor still holds a copy of
    /// them (a paged scan stages the rows at the head of its ranking
    /// while their blocks are leased). `None` means the caller reads the
    /// row from the database. A staged row is bit-identical to the
    /// database's.
    fn row(&self) -> Option<&[f64]> {
        None
    }
}

// ---------------------------------------------------------------------------
// Sequential scan source
// ---------------------------------------------------------------------------

/// A sequential-scan candidate source: evaluates `filter` against every
/// database object.
///
/// The ranking variant materializes and sorts all distances up front —
/// that *is* the cost profile of a scan-based filter, and it is the shape
/// the paper's "simple multistep" configurations use.
pub struct ScanSource<'a, F: DistanceMeasure> {
    db: &'a HistogramDb,
    filter: F,
}

impl<'a, F: DistanceMeasure> ScanSource<'a, F> {
    /// Wraps a database and a filter distance.
    pub fn new(db: &'a HistogramDb, filter: F) -> Self {
        ScanSource { db, filter }
    }

    /// The wrapped filter.
    pub fn filter(&self) -> &F {
        &self.filter
    }

    /// Evaluates the filter for every database object through the
    /// query-compiled block kernel ([`DistanceMeasure::prepare`]), in id
    /// order — the per-query cost profile of a scan source.
    ///
    /// The scan streams storage blocks (one whole-arena block when the
    /// database is resident, pinned buffer-pool leases when paged); the
    /// kernel block contract keeps either path bit-identical to the
    /// scalar per-pair evaluation. Whole distance columns are memoized
    /// in the database's [`crate::cache::FilterCache`] keyed by
    /// *(filter, parameters, query)* — a hit skips the disk entirely and
    /// returns the identical column. Reported work statistics stay
    /// nominal on a hit: the cache is an executor optimization, not a
    /// change to the logical scan.
    ///
    /// With `stage` set on a paged database, the scan also copies out the
    /// rows of the `rows_per_block` best-ranked objects while their
    /// blocks are leased (see [`StagedRows`]); on a cache hit, or on a
    /// resident database, nothing is staged.
    fn scan_block(
        &self,
        q: &Histogram,
        stage: bool,
    ) -> Result<(Arc<Vec<f64>>, Option<StagedRows>), PipelineError> {
        let cache = self.db.filter_cache();
        let key = self.filter.cache_signature().map(|params| CacheKey {
            filter: self.filter.name(),
            params,
            query: crate::cache::signature_of(q.bins()),
            rows: self.db.len(),
        });
        if let Some(key) = &key {
            if let Some(column) = cache.get(key) {
                return Ok((column, None));
            }
        }
        let kernel = self.filter.prepare(q);
        let dims = self.db.dims();
        let mut dists = vec![0.0; self.db.len()];
        let rows_per_block = self.db.rows_per_block().max(1);
        let mut stager = (stage && self.db.is_paged())
            .then(|| Stager::new(rows_per_block.min(self.db.len()), dims));
        for (b, slot) in dists.chunks_mut(rows_per_block).enumerate() {
            let data = self.db.block(b).map_err(|e| PipelineError::Source {
                stage: self.filter.name().to_string(),
                reason: match e {
                    PipelineError::Source { reason, .. } => reason,
                    other => other.to_string(),
                },
            })?;
            kernel.eval_block(&data, dims, slot);
            if let Some(stager) = &mut stager {
                let rows = slot.iter().zip(data.chunks_exact(dims));
                for (id, (&dist, bins)) in (b * rows_per_block..).zip(rows) {
                    stager.offer(dist, id, bins);
                }
            }
        }
        let column = Arc::new(dists);
        if let Some(key) = key {
            cache.insert(key, Arc::clone(&column));
        }
        Ok((column, stager.map(Stager::finish)))
    }
}

impl<'a, F: DistanceMeasure> CandidateSource for ScanSource<'a, F> {
    fn len(&self) -> usize {
        self.db.len()
    }

    fn name(&self) -> &str {
        self.filter.name()
    }

    fn ranking<'s>(&'s self, q: &Histogram) -> Result<Box<dyn RankingCursor + 's>, PipelineError> {
        let (column, staged) = self.scan_block(q, true)?;
        let mut ranked: Vec<(usize, f64)> = column.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        Ok(Box::new(ScanCursor {
            evaluations: ranked.len() as u64,
            ranked: ranked.into_iter(),
            staged,
            last: None,
        }))
    }

    fn range(
        &self,
        q: &Histogram,
        epsilon: f64,
    ) -> Result<(Vec<(usize, f64)>, SourceCost), PipelineError> {
        let out = self
            .scan_block(q, false)?
            .0
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, d)| *d <= epsilon)
            .collect();
        Ok((
            out,
            SourceCost {
                filter_evaluations: self.db.len() as u64,
                node_accesses: 0,
            },
        ))
    }
}

struct ScanCursor {
    ranked: std::vec::IntoIter<(usize, f64)>,
    evaluations: u64,
    /// Rows of the ranking's head, staged during a paged scan.
    staged: Option<StagedRows>,
    /// Rank and id of the candidate last returned.
    last: Option<(usize, usize)>,
}

impl RankingCursor for ScanCursor {
    fn next(&mut self) -> Result<Option<(usize, f64)>, PipelineError> {
        let next = self.ranked.next();
        if let Some((id, _)) = next {
            self.last = Some((self.last.map_or(0, |(rank, _)| rank + 1), id));
        }
        Ok(next)
    }

    fn cost(&self) -> SourceCost {
        SourceCost {
            filter_evaluations: self.evaluations,
            node_accesses: 0,
        }
    }

    fn row(&self) -> Option<&[f64]> {
        let (rank, id) = self.last?;
        self.staged.as_ref()?.row(rank, id)
    }
}

/// Copies of the rows at the head of a paged scan's ranking, taken while
/// the scan held their blocks leased, so that refining those candidates
/// reads no block a second time.
///
/// The staged set is the `M` smallest `(filter distance, id)` pairs under
/// `f64::total_cmp` then id — the ranking's own order — so it is exactly
/// the ranking's first `M` entries, stored in ranking order. `M` is the
/// database's `rows_per_block`: the arena costs one block frame.
struct StagedRows {
    dims: usize,
    /// Ids in ranking order.
    ids: Vec<usize>,
    /// Row-major bins aligned with `ids`.
    bins: Vec<f64>,
}

impl StagedRows {
    /// The bins of candidate `id` at ranking position `rank`, if staged.
    fn row(&self, rank: usize, id: usize) -> Option<&[f64]> {
        if self.ids.get(rank) != Some(&id) {
            return None;
        }
        self.bins.get(rank * self.dims..(rank + 1) * self.dims)
    }
}

/// A staged row's key and its slot in the [`Stager`] arena.
struct StagedKey {
    dist: f64,
    id: usize,
    slot: usize,
}

impl StagedKey {
    fn order(&self, dist: f64, id: usize) -> Ordering {
        self.dist.total_cmp(&dist).then(self.id.cmp(&id))
    }
}

impl PartialEq for StagedKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for StagedKey {}
impl PartialOrd for StagedKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for StagedKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order(other.dist, other.id)
    }
}

/// Keeps the rows with the `cap` smallest `(distance, id)` keys seen so
/// far: a max-heap of keys over a fixed arena of `cap` row slots, where a
/// better row overwrites the slot of the current worst.
struct Stager {
    cap: usize,
    dims: usize,
    heap: BinaryHeap<StagedKey>,
    arena: Vec<f64>,
}

impl Stager {
    fn new(cap: usize, dims: usize) -> Self {
        Stager {
            cap,
            dims,
            heap: BinaryHeap::with_capacity(cap),
            arena: Vec::with_capacity(cap * dims),
        }
    }

    fn offer(&mut self, dist: f64, id: usize, bins: &[f64]) {
        if self.heap.len() < self.cap {
            let slot = self.heap.len();
            self.arena.extend_from_slice(bins);
            self.heap.push(StagedKey { dist, id, slot });
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if worst.order(dist, id) == Ordering::Greater {
                let range = worst.slot * self.dims..(worst.slot + 1) * self.dims;
                if let Some(dst) = self.arena.get_mut(range) {
                    dst.copy_from_slice(bins);
                }
                worst.dist = dist;
                worst.id = id;
            }
        }
    }

    fn finish(self) -> StagedRows {
        let keys = self.heap.into_sorted_vec();
        let mut bins = Vec::with_capacity(self.arena.len());
        for key in &keys {
            let range = key.slot * self.dims..(key.slot + 1) * self.dims;
            bins.extend_from_slice(self.arena.get(range).unwrap_or_default());
        }
        StagedRows {
            dims: self.dims,
            ids: keys.iter().map(|k| k.id).collect(),
            bins,
        }
    }
}

// ---------------------------------------------------------------------------
// R-tree index source
// ---------------------------------------------------------------------------

/// An R-tree candidate source over reduced index keys (§4.7).
///
/// Construction reduces every database histogram to a low-dimensional key
/// (3-D in the paper) and bulk-loads an R-tree. Queries reduce the query
/// histogram once and run entirely on the index; the filter distance is
/// the reducer's metric over keys, which lower bounds the EMD by the
/// reducer contract.
pub struct RtreeSource<'a, R: IndexReducer> {
    reducer: R,
    metric: WeightedLp,
    tree: RTree,
    len: usize,
    _db: std::marker::PhantomData<&'a HistogramDb>,
}

impl<'a, R: IndexReducer> RtreeSource<'a, R> {
    /// Reduces all histograms of `db` and bulk-loads the index.
    pub fn build(db: &'a HistogramDb, reducer: R) -> Self {
        let items: Vec<(Vec<f64>, u64)> = db
            .iter()
            .map(|(id, h)| (reducer.key(&h.to_histogram()), id as u64))
            .collect();
        let metric = reducer.metric();
        let dims = reducer.key_dims();
        let tree = RTree::bulk_load(dims, items);
        RtreeSource {
            reducer,
            metric,
            tree,
            len: db.len(),
            _db: std::marker::PhantomData,
        }
    }

    /// The underlying R-tree (e.g. for inspecting height or node count).
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// The reducer building index keys.
    pub fn reducer(&self) -> &R {
        &self.reducer
    }
}

impl<'a, R: IndexReducer> CandidateSource for RtreeSource<'a, R> {
    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> &str {
        self.reducer.name()
    }

    fn ranking<'s>(&'s self, q: &Histogram) -> Result<Box<dyn RankingCursor + 's>, PipelineError> {
        let key = self.reducer.key(q);
        Ok(Box::new(RtreeCursor {
            inner: self.tree.rank_by_distance_owned(key, self.metric.clone()),
        }))
    }

    fn range(
        &self,
        q: &Histogram,
        epsilon: f64,
    ) -> Result<(Vec<(usize, f64)>, SourceCost), PipelineError> {
        let key = self.reducer.key(q);
        let mut stats = RtreeStats::default();
        let hits = self
            .tree
            .range_within(&key, epsilon, &self.metric, &mut stats);
        Ok((
            hits.into_iter().map(|(id, d)| (id as usize, d)).collect(),
            SourceCost {
                filter_evaluations: stats.distance_evaluations,
                node_accesses: stats.node_accesses,
            },
        ))
    }
}

/// Lazy cursor over the R-tree's owned incremental ranking: only as much
/// of the index is traversed as the consumer pulls, which is what lets
/// the optimal multistep algorithm stop after a handful of candidates.
struct RtreeCursor<'t> {
    inner: earthmover_rtree::OwnedRanking<'t, WeightedLp>,
}

impl<'t> RankingCursor for RtreeCursor<'t> {
    fn next(&mut self) -> Result<Option<(usize, f64)>, PipelineError> {
        Ok(self.inner.next().map(|(id, d)| (id as usize, d)))
    }

    fn cost(&self) -> SourceCost {
        let stats = self.inner.stats();
        SourceCost {
            filter_evaluations: stats.distance_evaluations,
            node_accesses: stats.node_accesses,
        }
    }
}

// ---------------------------------------------------------------------------
// Failing source (fault injection)
// ---------------------------------------------------------------------------

/// A candidate source that fails on demand — the query-layer counterpart
/// of the storage crate's fault-injecting VFS.
///
/// Wraps an inner source and errors either immediately (`fail_after = 0`)
/// or after the ranking cursor has produced `fail_after` candidates,
/// simulating an index that goes bad mid-traversal (e.g. a corrupt page
/// deep in a persisted R-tree). Used to test the engine's degradation
/// path; see `QueryEngine` for the fallback contract.
pub struct FailingSource<S> {
    inner: S,
    fail_after: usize,
    reason: String,
}

impl<S: CandidateSource> FailingSource<S> {
    /// Fails `range` immediately and `ranking` cursors after they have
    /// produced `fail_after` candidates.
    pub fn new(inner: S, fail_after: usize, reason: impl Into<String>) -> Self {
        FailingSource {
            inner,
            fail_after,
            reason: reason.into(),
        }
    }

    fn error(&self) -> PipelineError {
        PipelineError::Source {
            stage: self.inner.name().to_string(),
            reason: self.reason.clone(),
        }
    }
}

impl<S: CandidateSource> CandidateSource for FailingSource<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn ranking<'s>(&'s self, q: &Histogram) -> Result<Box<dyn RankingCursor + 's>, PipelineError> {
        if self.fail_after == 0 {
            return Err(self.error());
        }
        Ok(Box::new(FailingCursor {
            inner: self.inner.ranking(q)?,
            remaining: self.fail_after,
            error: self.error(),
        }))
    }

    fn range(
        &self,
        _q: &Histogram,
        _epsilon: f64,
    ) -> Result<(Vec<(usize, f64)>, SourceCost), PipelineError> {
        Err(self.error())
    }
}

struct FailingCursor<'s> {
    inner: Box<dyn RankingCursor + 's>,
    remaining: usize,
    error: PipelineError,
}

impl<'s> RankingCursor for FailingCursor<'s> {
    fn next(&mut self) -> Result<Option<(usize, f64)>, PipelineError> {
        if self.remaining == 0 {
            return Err(self.error.clone());
        }
        self.remaining -= 1;
        self.inner.next()
    }

    fn cost(&self) -> SourceCost {
        self.inner.cost()
    }

    fn row(&self) -> Option<&[f64]> {
        self.inner.row()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::BinGrid;
    use crate::lower_bounds::test_support::random_histogram;
    use crate::lower_bounds::LbManhattan;
    use crate::reduce::AvgReducer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(count: usize) -> (BinGrid, HistogramDb) {
        let grid = BinGrid::new(vec![2, 2, 2]);
        let mut rng = StdRng::seed_from_u64(99);
        let mut db = HistogramDb::new(grid.num_bins());
        for _ in 0..count {
            db.push(random_histogram(&mut rng, grid.num_bins()));
        }
        (grid, db)
    }

    #[test]
    fn scan_ranking_is_sorted_and_complete() {
        let (grid, db) = setup(50);
        let source = ScanSource::new(&db, LbManhattan::new(&grid.cost_matrix()));
        let q = db.get(0).to_histogram();
        let mut cursor = source.ranking(&q).unwrap();
        let mut prev = f64::NEG_INFINITY;
        let mut count = 0;
        while let Some((_, d)) = cursor.next().unwrap() {
            assert!(d >= prev);
            prev = d;
            count += 1;
        }
        assert_eq!(count, 50);
        assert_eq!(cursor.cost().filter_evaluations, 50);
    }

    #[test]
    fn staged_rows_are_the_ranking_prefix() {
        // Ties, a negative zero and a NaN: the stager must keep exactly
        // the first `cap` entries of the ranking's (total_cmp, id) order,
        // with each id's own row.
        let dists = [0.5, 0.25, 0.5, -0.0, 0.0, f64::NAN, 0.25, 0.75, 0.0, 0.5];
        for cap in 0..=dists.len() {
            let mut stager = Stager::new(cap, 2);
            for (id, &d) in dists.iter().enumerate() {
                stager.offer(d, id, &[id as f64, d]);
            }
            let staged = stager.finish();
            let mut ranked: Vec<(usize, f64)> = dists.iter().copied().enumerate().collect();
            ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let prefix: Vec<usize> = ranked.iter().take(cap).map(|(id, _)| *id).collect();
            assert_eq!(staged.ids, prefix, "cap {cap}");
            for (rank, &id) in prefix.iter().enumerate() {
                let row = staged.row(rank, id).unwrap();
                assert_eq!(row[0], id as f64);
                assert_eq!(row[1].to_bits(), dists[id].to_bits());
            }
            assert!(staged.row(cap, 0).is_none());
        }
    }

    #[test]
    fn scan_range_matches_manual_filter() {
        let (grid, db) = setup(40);
        let filter = LbManhattan::new(&grid.cost_matrix());
        let source = ScanSource::new(&db, filter.clone());
        let q = db.get(3).to_histogram();
        let eps = 0.05;
        let (hits, cost) = source.range(&q, eps).unwrap();
        let expect: Vec<usize> = db
            .iter()
            .filter(|(_, h)| filter.distance(&q, &h.to_histogram()) <= eps)
            .map(|(id, _)| id)
            .collect();
        let got: Vec<usize> = hits.iter().map(|(id, _)| *id).collect();
        assert_eq!(got, expect);
        assert_eq!(cost.filter_evaluations, 40);
    }

    #[test]
    fn rtree_source_agrees_with_scan_over_reduced_distance() {
        let (grid, db) = setup(60);
        let reducer = AvgReducer::new(grid.centroids().to_vec());
        let source = RtreeSource::build(&db, reducer);
        let q = db.get(5).to_histogram();

        // Ranking must be sorted and complete.
        let mut cursor = source.ranking(&q).unwrap();
        let mut seen = Vec::new();
        let mut prev = f64::NEG_INFINITY;
        while let Some((id, d)) = cursor.next().unwrap() {
            assert!(d >= prev - 1e-12);
            prev = d;
            seen.push(id);
        }
        assert_eq!(seen.len(), 60);
        assert!(cursor.cost().node_accesses > 0);

        // Range must agree with a brute-force reduced-distance scan.
        let reducer = AvgReducer::new(grid.centroids().to_vec());
        let metric = reducer.metric();
        let qk = reducer.key(&q);
        let eps = 0.1;
        let (hits, _) = source.range(&q, eps).unwrap();
        let mut got: Vec<usize> = hits.iter().map(|(id, _)| *id).collect();
        got.sort_unstable();
        let mut expect: Vec<usize> = db
            .iter()
            .filter(|(_, h)| {
                earthmover_rtree::PointMetric::distance(
                    &metric,
                    &qk,
                    &reducer.key(&h.to_histogram()),
                ) <= eps
            })
            .map(|(id, _)| id)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn failing_source_errors_as_configured() {
        let (grid, db) = setup(20);
        let q = db.get(0).to_histogram();

        let inner = ScanSource::new(&db, LbManhattan::new(&grid.cost_matrix()));
        let broken = FailingSource::new(inner, 0, "injected");
        assert!(matches!(
            broken.ranking(&q),
            Err(PipelineError::Source { .. })
        ));
        assert!(broken.range(&q, 1.0).is_err());

        let inner = ScanSource::new(&db, LbManhattan::new(&grid.cost_matrix()));
        let flaky = FailingSource::new(inner, 3, "injected");
        let mut cursor = flaky.ranking(&q).unwrap();
        for _ in 0..3 {
            assert!(cursor.next().unwrap().is_some());
        }
        assert!(matches!(cursor.next(), Err(PipelineError::Source { .. })));
    }
}
