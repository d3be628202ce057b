//! The traced run: spans recorded from the benchmark's own files around
//! calls into each layer's public functions. Nothing inside the program
//! is instrumented.
//!
//! A span has a name, a start, an end, a parent and a query id. The
//! layer is the part of the name before the first `.`. A span's self
//! time is its duration minus its children's; spans on one thread nest,
//! so children never overlap.
//!
//! Two executions of each query are traced and linked by query id:
//!
//! * `serve.client` — the served call (`Client::knn`/`knn_mode`) over
//!   loopback, one client at a time. The server reports its engine time
//!   (`QueryStats::elapsed`); the rest of the round trip is the serve
//!   layer (queue, wire, codec on both ends).
//! * `replay` — the same query in-process: the workload's own frames
//!   through the `protocol` encode/decode functions, and the engine
//!   path the server takes (`optimal_knn_within` with timing wrappers
//!   around the candidate source, `LB_IM` and exact EMD; or
//!   `SketchTier::knn`). On a paged database the candidate scan is
//!   [`TracedScan`], which mirrors `ScanSource`'s block loop so that
//!   `HistogramDb::block` and the filter cache get spans of their own.
//!
//! The multistep loop's own time — including the row leases
//! `optimal_knn_within` takes inside it — stays in `pipeline.knn`'s self
//! time, which no layer claims.

use crate::spec::K;
use earthmover_core::cache::{signature_of, CacheKey};
use earthmover_core::deadline::Deadline;
use earthmover_core::error::PipelineError;
use earthmover_core::lower_bounds::{DistanceKernel, DistanceMeasure, LbAvg};
use earthmover_core::multistep::{CandidateSource, RankingCursor, SourceCost};
use earthmover_core::{Histogram, HistogramDb};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One recorded span; times are nanoseconds since the first span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<u32>,
    pub query: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<u32>,
    query: u32,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Tags the spans opened from now on with `query`.
pub fn set_query(query: u32) {
    RECORDER.with(|r| r.borrow_mut().query = query);
}

/// Opens a span on this thread; it closes when the guard drops.
pub fn span(name: &'static str) -> SpanGuard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let index = r.spans.len() as u32;
        let parent = r.open.last().copied();
        let query = r.query;
        r.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            query,
        });
        r.open.push(index);
        SpanGuard { index }
    })
}

/// Closes its span on drop.
pub struct SpanGuard {
    index: u32,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = now_ns();
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[self.index as usize].end_ns = end;
            r.open.pop();
        });
    }
}

/// Hands over this thread's recording and starts a new one.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Summed self time per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0) += t;
    }
    out
}

/// Writes the spans as JSON lines, one span per line.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"query\":{}}}",
            s.name, s.start_ns, s.end_ns, s.query
        )?;
    }
    out.flush()
}

// ---------------------------------------------------------------------------
// Timing wrappers around the program's public traits
// ---------------------------------------------------------------------------

/// A [`DistanceMeasure`] whose preparation and every evaluation run
/// under a span.
pub struct Timed<M> {
    inner: M,
    prepare: &'static str,
    eval: &'static str,
}

impl<M: DistanceMeasure> Timed<M> {
    pub fn new(inner: M, prepare: &'static str, eval: &'static str) -> Self {
        Timed {
            inner,
            prepare,
            eval,
        }
    }
}

impl<M: DistanceMeasure> DistanceMeasure for Timed<M> {
    fn distance(&self, x: &Histogram, y: &Histogram) -> f64 {
        let _s = span(self.eval);
        self.inner.distance(x, y)
    }

    fn try_distance(&self, x: &Histogram, y: &Histogram) -> Result<f64, PipelineError> {
        let _s = span(self.eval);
        self.inner.try_distance(x, y)
    }

    fn try_distance_noted(
        &self,
        x: &Histogram,
        y: &Histogram,
    ) -> Result<(f64, Option<&'static str>), PipelineError> {
        let _s = span(self.eval);
        self.inner.try_distance_noted(x, y)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cache_signature(&self) -> Option<u64> {
        self.inner.cache_signature()
    }

    fn prepare<'m>(&'m self, q: &Histogram) -> Box<dyn DistanceKernel + 'm> {
        let _s = span(self.prepare);
        Box::new(TimedKernel {
            inner: self.inner.prepare(q),
            eval: self.eval,
        })
    }
}

struct TimedKernel<'m> {
    inner: Box<dyn DistanceKernel + 'm>,
    eval: &'static str,
}

impl DistanceKernel for TimedKernel<'_> {
    fn eval(&self, cand: &[f64]) -> f64 {
        let _s = span(self.eval);
        self.inner.eval(cand)
    }

    fn try_eval_noted(&self, cand: &[f64]) -> Result<(f64, Option<&'static str>), PipelineError> {
        let _s = span(self.eval);
        self.inner.try_eval_noted(cand)
    }

    fn eval_block(&self, block: &[f64], stride: usize, out: &mut [f64]) {
        let _s = span(self.eval);
        self.inner.eval_block(block, stride, out);
    }
}

/// A [`CandidateSource`] whose ranking start and every cursor step run
/// under a `candidates.*` span.
pub struct TimedSource<S> {
    pub inner: S,
}

impl<S: CandidateSource> CandidateSource for TimedSource<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn ranking<'s>(&'s self, q: &Histogram) -> Result<Box<dyn RankingCursor + 's>, PipelineError> {
        let _s = span("candidates.ranking");
        let inner = self.inner.ranking(q)?;
        Ok(Box::new(TimedCursor { inner }))
    }

    fn range(
        &self,
        q: &Histogram,
        epsilon: f64,
    ) -> Result<(Vec<(usize, f64)>, SourceCost), PipelineError> {
        let _s = span("candidates.range");
        self.inner.range(q, epsilon)
    }
}

struct TimedCursor<'s> {
    inner: Box<dyn RankingCursor + 's>,
}

impl RankingCursor for TimedCursor<'_> {
    fn next(&mut self) -> Result<Option<(usize, f64)>, PipelineError> {
        let _s = span("candidates.next");
        self.inner.next()
    }

    fn cost(&self) -> SourceCost {
        self.inner.cost()
    }
}

/// The `LB_Avg` scan a paged database's engine runs, with its block
/// loop spelled out so that `HistogramDb::block` (`storage.block`), the
/// filter kernel (`candidates.kernel`) and the filter cache
/// (`filter_cache.*`) get spans of their own. It follows
/// `ScanSource::scan_block` step for step: the same cache key, the same
/// block order, the same kernel; the reference check holds its answers
/// to the served ones.
pub struct TracedScan<'a> {
    db: &'a HistogramDb,
    filter: LbAvg,
}

impl<'a> TracedScan<'a> {
    pub fn new(db: &'a HistogramDb, filter: LbAvg) -> Self {
        TracedScan { db, filter }
    }

    fn column(&self, q: &Histogram) -> Result<Arc<Vec<f64>>, PipelineError> {
        let cache = self.db.filter_cache();
        let key = self.filter.cache_signature().map(|params| CacheKey {
            filter: self.filter.name(),
            params,
            query: signature_of(q.bins()),
            rows: self.db.len(),
        });
        if let Some(key) = &key {
            let hit = {
                let _s = span("filter_cache.get");
                cache.get(key)
            };
            if let Some(column) = hit {
                return Ok(column);
            }
        }
        let kernel = self.filter.prepare(q);
        let dims = self.db.dims();
        let mut dists = vec![0.0; self.db.len()];
        let rows_per_block = self.db.rows_per_block().max(1);
        for (b, slot) in dists.chunks_mut(rows_per_block).enumerate() {
            let data = {
                let _s = span("storage.block");
                self.db.block(b)?
            };
            let _s = span("candidates.kernel");
            kernel.eval_block(&data, dims, slot);
        }
        let column = Arc::new(dists);
        if let Some(key) = key {
            let _s = span("filter_cache.insert");
            cache.insert(key, Arc::clone(&column));
        }
        Ok(column)
    }
}

impl CandidateSource for TracedScan<'_> {
    fn len(&self) -> usize {
        self.db.len()
    }

    fn name(&self) -> &str {
        self.filter.name()
    }

    fn ranking<'s>(&'s self, q: &Histogram) -> Result<Box<dyn RankingCursor + 's>, PipelineError> {
        let mut ranked: Vec<(usize, f64)> = self.column(q)?.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        Ok(Box::new(VecCursor {
            evaluations: ranked.len() as u64,
            ranked: ranked.into_iter(),
        }))
    }

    fn range(
        &self,
        q: &Histogram,
        epsilon: f64,
    ) -> Result<(Vec<(usize, f64)>, SourceCost), PipelineError> {
        let hits = self
            .column(q)?
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, d)| *d <= epsilon)
            .collect();
        let cost = SourceCost {
            filter_evaluations: self.db.len() as u64,
            node_accesses: 0,
        };
        Ok((hits, cost))
    }
}

struct VecCursor {
    ranked: std::vec::IntoIter<(usize, f64)>,
    evaluations: u64,
}

impl RankingCursor for VecCursor {
    fn next(&mut self) -> Result<Option<(usize, f64)>, PipelineError> {
        Ok(self.ranked.next())
    }

    fn cost(&self) -> SourceCost {
        SourceCost {
            filter_evaluations: self.evaluations,
            node_accesses: 0,
        }
    }
}

/// The engine path of one query in the replay, under `pipeline.knn`.
pub fn engine_knn(
    source: &dyn CandidateSource,
    db: &HistogramDb,
    q: &Histogram,
    intermediates: &[&dyn DistanceMeasure],
    exact: &dyn DistanceMeasure,
) -> Result<earthmover_core::multistep::QueryResult, PipelineError> {
    let _s = span("pipeline.knn");
    earthmover_core::multistep::optimal_knn_within(
        source,
        db,
        q,
        K,
        intermediates,
        exact,
        Deadline::none(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: "pipeline.knn",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                query: 0,
            },
            Span {
                name: "exact.eval",
                start_ns: 10,
                end_ns: 50,
                parent: Some(0),
                query: 0,
            },
            Span {
                name: "exact.eval",
                start_ns: 60,
                end_ns: 90,
                parent: Some(0),
                query: 0,
            },
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 30]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["pipeline"], 30);
        assert_eq!(layers["exact"], 70);
    }

    #[test]
    fn guards_nest_and_close() {
        let _ = take();
        set_query(3);
        {
            let _outer = span("replay");
            let _inner = span("pipeline.knn");
        }
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.query == 3 && s.end_ns >= s.start_ns));
    }
}
