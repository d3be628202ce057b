//! The workloads and the inputs each one generates from `--seed`.
//!
//! NOTES.md records why each workload exists and which layer metrics it
//! should move.

use earthmover_bench::Workload;
use earthmover_core::ground::BinGrid;
use earthmover_core::Histogram;
use earthmover_imaging::corpus::{CorpusConfig, SyntheticCorpus};
use earthmover_serve::splitmix64;

/// Seed of the synthetic corpus every database is drawn from. The
/// corpus seed picks the scene classes, and with them the cost of the
/// whole database, so it stays fixed; `--seed` picks the queries.
pub const CORPUS_SEED: u64 = 2006;

/// Server worker threads.
pub const WORKERS: usize = 2;
/// Neighbours per query.
pub const K: usize = 10;

/// A seeded hot set: one query in `one_in` is drawn from `size` queries
/// shared by every client, so the filter-distance cache can hit.
#[derive(Debug, Clone, Copy)]
pub struct HotSet {
    pub size: usize,
    pub one_in: usize,
}

/// One workload's shape.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub dims: usize,
    pub rows: usize,
    /// Closed-loop client threads, each on one keep-alive connection.
    pub clients: usize,
    /// Queries in each client's list; the first pass over it is warm-up.
    pub per_client: usize,
    /// Requests ask for `RetrievalMode::SketchOnly` instead of the
    /// mode-less exact k-NN.
    pub sketch_only: bool,
    /// The sketch tier is built and attached to the server.
    pub builds_sketch: bool,
    /// Rows are written to a paged column file and mounted with a
    /// buffer pool of `1 / pool_divisor` of the data.
    pub pool_divisor: Option<usize>,
    pub hot: Option<HotSet>,
    /// Full set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Queries of the interleaved client lists the traced run replays.
    pub trace_queries: usize,
    /// Length of the measured closed-loop window when the command line
    /// does not set it (smoke mode).
    pub smoke_window_ms: Option<u64>,
}

pub const NAMES: [&str; 3] = ["exact_d64", "sketch_d64", "paged_d16"];

/// The named workload, at full size or at the toy size of smoke mode.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let pick = |full: usize, toy: usize| if smoke { toy } else { full };
    let base = Spec {
        name: "",
        dims: 64,
        rows: pick(4_000, 300),
        clients: 2,
        per_client: pick(60, 3),
        sketch_only: false,
        builds_sketch: true,
        pool_divisor: None,
        hot: None,
        setup_repeats: pick(25, 2),
        trace_queries: pick(24, 8),
        smoke_window_ms: smoke.then_some(300),
    };
    match name {
        "exact_d64" => Some(Spec {
            name: "exact_d64",
            ..base
        }),
        "sketch_d64" => Some(Spec {
            name: "sketch_d64",
            sketch_only: true,
            // Sub-millisecond queries: replay every one.
            trace_queries: pick(120, 8),
            ..base
        }),
        "paged_d16" => Some(Spec {
            name: "paged_d16",
            dims: 16,
            rows: pick(20_000, 3_000),
            clients: 1,
            per_client: pick(128, 8),
            builds_sketch: false,
            pool_divisor: Some(4),
            hot: Some(HotSet {
                size: pick(8, 2),
                one_in: 4,
            }),
            ..base
        }),
        _ => None,
    }
}

/// Everything a run sends, generated from the seed. The program only
/// ever sees these histograms.
pub struct Inputs {
    pub grid: BinGrid,
    /// Database histograms, in id order.
    pub rows: Vec<Histogram>,
    /// Distinct query histograms; none is a database member.
    pub queries: Vec<Histogram>,
    /// Each client's fixed list, as indices into `queries`.
    pub lists: Vec<Vec<usize>>,
}

/// A small deterministic generator over `splitmix64`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let hot_per_client = spec.hot.map_or(0, |h| spec.per_client / h.one_in);
        let unique_per_client = spec.per_client - hot_per_client;
        let hot_size = spec.hot.map_or(0, |h| h.size);
        let total_queries = spec.clients * unique_per_client + hot_size;
        let w = Workload::build(spec.dims, spec.rows, 0, CORPUS_SEED);
        let rows = w.db.iter().map(|(_, h)| h.to_histogram()).collect();
        // Query images sit past the database's ids, at a seeded offset;
        // consecutive ids cycle through the scene classes evenly.
        let corpus = SyntheticCorpus::new(CorpusConfig::default().with_seed(CORPUS_SEED));
        let first = spec.rows as u64 + splitmix64(seed) % (1 << 40);
        let queries = (first..first + total_queries as u64)
            .map(|id| {
                corpus
                    .histogram(id, &w.grid)
                    .into_normalized()
                    .expect("corpus images have positive mass")
            })
            .collect();

        let mut rng = Rng(seed ^ 0x005E_ED0F_1157);
        let hot_base = spec.clients * unique_per_client;
        let lists = (0..spec.clients)
            .map(|c| {
                let mut list: Vec<usize> = (0..unique_per_client)
                    .map(|i| c * unique_per_client + i)
                    .collect();
                list.extend((0..hot_per_client).map(|_| hot_base + rng.below(hot_size)));
                rng.shuffle(&mut list);
                list
            })
            .collect();
        Inputs {
            grid: w.grid,
            rows,
            queries,
            lists,
        }
    }

    /// Every distinct query index any client sends, ascending.
    pub fn distinct(&self) -> Vec<usize> {
        let mut all: Vec<usize> = self.lists.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_are_seeded_and_mix_hot_queries() {
        let spec = spec("paged_d16", true).unwrap();
        let a = Inputs::generate(&spec, 7);
        let b = Inputs::generate(&spec, 7);
        assert_eq!(a.lists, b.lists);
        assert_eq!(a.queries, b.queries);
        let hot = spec.hot.unwrap();
        let hot_base = a.queries.len() - hot.size;
        for list in &a.lists {
            assert_eq!(list.len(), spec.per_client);
            let hot_hits = list.iter().filter(|&&q| q >= hot_base).count();
            assert_eq!(hot_hits, spec.per_client / hot.one_in);
        }
        // Unique queries are never shared between clients.
        let unique: Vec<usize> = a
            .lists
            .iter()
            .flatten()
            .filter(|&&q| q < hot_base)
            .copied()
            .collect();
        let mut dedup = unique.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), unique.len());
    }
}
