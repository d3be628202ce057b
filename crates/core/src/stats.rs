//! Work accounting for multistep queries.
//!
//! The paper's evaluation reports two quantities per experiment:
//! *selectivity* (the fraction of the database that reaches the exact EMD
//! refinement step) and *response time*. [`QueryStats`] captures both,
//! plus the hardware-independent operation counts (filter evaluations,
//! index node accesses) that make runs comparable across machines, and a
//! per-stage wall-clock breakdown (where inside the pipeline the time
//! went: candidate generation, each scan filter, exact refinement).

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Canonical stage names used in [`QueryStats::stage_elapsed`].
///
/// Intermediate filter stages use the filter's own
/// [`crate::lower_bounds::DistanceMeasure::name`] (e.g. `"LB_IM"`); these
/// constants name the two stages every pipeline has.
pub mod stage {
    /// First stage: candidate generation (index traversal or filter scan).
    pub const CANDIDATES: &str = "candidates";
    /// Final stage: exact EMD refinement.
    pub const EXACT: &str = "exact";
}

/// Per-shard execution provenance attached to a scatter-gathered
/// answer: which endpoint answered for the shard, what resilience
/// machinery fired on the way, and the shard's own full [`QueryStats`]
/// (so per-stage timing survives the merge instead of being summed
/// into anonymity).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardProvenance {
    /// Shard group index in the cluster topology.
    pub shard: u32,
    /// Endpoint that produced the answer (`host:port`).
    pub endpoint: String,
    /// True when a replica (not the group primary) answered.
    pub from_replica: bool,
    /// Wire-level retry attempts spent on this answer.
    pub retries: u32,
    /// True when the hedged backup request was launched for this call.
    pub hedge_fired: bool,
    /// Coordinator-observed call latency (queueing + wire + shard work).
    pub latency: Duration,
    /// The shard's own stats for its partial answer. Its `provenance`
    /// is empty — attribution nests exactly one level.
    pub stats: QueryStats,
}

/// Counters and timing for one multistep query execution.
///
/// Serializable so experiment harnesses can export structured results.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryStats {
    /// Number of database objects (the selectivity denominator).
    /// Merging keeps the **max**, not the sum — merged records describe
    /// workloads over the *same* database, so the database size is a
    /// property, not an accumulator.
    pub db_size: usize,
    /// Filter distance evaluations per pipeline stage, in stage order.
    /// The first entry is the candidate source (index or scan filter);
    /// later entries are intermediate scan filters.
    pub filter_evaluations: Vec<(String, u64)>,
    /// Index node accesses performed by the candidate source.
    pub node_accesses: u64,
    /// Exact EMD evaluations — the quantity the paper calls selectivity
    /// when divided by the database size.
    pub exact_evaluations: u64,
    /// Result set size.
    pub results: u64,
    /// Wall-clock execution time. Merging **sums**, so a merged record
    /// holds the total time across the workload.
    pub elapsed: Duration,
    /// Worst-case single-query wall-clock time. For a single execution
    /// this equals [`QueryStats::elapsed`]; merging keeps the **max**, so
    /// a merged record exposes the workload's slowest query alongside the
    /// summed total.
    pub elapsed_max: Duration,
    /// Wall-clock time per pipeline stage, in stage order: the candidate
    /// source ([`stage::CANDIDATES`]), each intermediate filter (by its
    /// filter name), and exact refinement ([`stage::EXACT`]). Stage times
    /// sum to slightly less than `elapsed` (loop bookkeeping is outside
    /// any stage). Merging sums per stage.
    pub stage_elapsed: Vec<(String, Duration)>,
    /// Degradation events recorded while answering the query — e.g. the
    /// index first stage failed and the engine fell back to a sequential
    /// scan, or the exact-EMD solver left its default rung (Bland /
    /// dense-LP recovery). Empty for a healthy execution; results remain
    /// exact either way.
    pub degradations: Vec<String>,
    /// True when the query's [`crate::deadline::Deadline`] expired before
    /// the pipeline finished: the result is a best-effort partial answer
    /// (every distance reported is still exact, but objects that were
    /// never reached may be missing). Merging ORs, so a workload record
    /// says whether *any* query was cut short.
    pub deadline_expired: bool,
    /// Per-shard attribution for scatter-gathered answers: one entry per
    /// shard group that answered, in shard order. Empty for single-node
    /// executions (and on the shards themselves). Merging concatenates
    /// and re-sorts by `(shard, endpoint)`, so the set is
    /// order-independent under merge.
    pub provenance: Vec<ShardProvenance>,
    /// Which retrieval tier answered and the distance ratio it guarantees
    /// (see [`crate::sketch_tier::RetrievalInfo`]). `None` for queries
    /// issued through the mode-less API (always exact). Merging keeps
    /// `self`'s entry when present, otherwise adopts `other`'s — merged
    /// partials of one query all carry the same mode.
    pub retrieval: Option<crate::sketch_tier::RetrievalInfo>,
}

impl QueryStats {
    /// Fraction of the database that required an exact EMD computation —
    /// the paper's selectivity measure (Figures 7–10, left panels).
    pub fn selectivity(&self) -> f64 {
        if self.db_size == 0 {
            0.0
        } else {
            self.exact_evaluations as f64 / self.db_size as f64
        }
    }

    /// Adds a filter-evaluation count for a named stage, merging it into
    /// an existing entry with the same name if present.
    pub fn add_filter_evaluations(&mut self, stage: &str, count: u64) {
        if let Some(entry) = self.filter_evaluations.iter_mut().find(|(n, _)| n == stage) {
            entry.1 += count;
        } else {
            self.filter_evaluations.push((stage.to_string(), count));
        }
    }

    /// Total filter evaluations across all stages.
    pub fn total_filter_evaluations(&self) -> u64 {
        self.filter_evaluations.iter().map(|(_, c)| c).sum()
    }

    /// Adds wall-clock time to a named stage, merging into an existing
    /// entry with the same name if present.
    pub fn add_stage_elapsed(&mut self, stage: &str, elapsed: Duration) {
        if let Some(entry) = self.stage_elapsed.iter_mut().find(|(n, _)| n == stage) {
            entry.1 += elapsed;
        } else {
            self.stage_elapsed.push((stage.to_string(), elapsed));
        }
    }

    /// The recorded time of a named stage, if any.
    pub fn stage_time(&self, stage: &str) -> Option<Duration> {
        self.stage_elapsed
            .iter()
            .find(|(n, _)| n == stage)
            .map(|(_, d)| *d)
    }

    /// Finalizes single-query timing: sets `elapsed` and seeds
    /// `elapsed_max` with the same value so later [`QueryStats::merge`]
    /// calls track the worst case correctly.
    pub fn set_elapsed(&mut self, elapsed: Duration) {
        self.elapsed = elapsed;
        self.elapsed_max = elapsed;
    }

    /// Records a degradation note unless an identical note is already
    /// present — per-pair solver fallbacks would otherwise flood the list
    /// with duplicates on a single query.
    pub fn record_degradation_once(&mut self, note: &str) {
        if !self.degradations.iter().any(|d| d == note) {
            self.degradations.push(note.to_string());
        }
    }

    /// Merges another record (e.g. to aggregate across query workloads).
    ///
    /// Semantics per field: counters and `elapsed` (plus each
    /// `stage_elapsed` entry) are **summed**; `db_size` and `elapsed_max`
    /// keep the **max** (the database size is shared across the workload,
    /// and `elapsed_max` is the worst-case single query). Degradation
    /// notes are **deduplicated**: merging N shard partials that each
    /// fell back the same way yields one note, and no distinct note is
    /// ever lost — the note set is order-independent under merge.
    pub fn merge(&mut self, other: &QueryStats) {
        self.db_size = self.db_size.max(other.db_size);
        for (name, count) in &other.filter_evaluations {
            self.add_filter_evaluations(name, *count);
        }
        self.node_accesses += other.node_accesses;
        self.exact_evaluations += other.exact_evaluations;
        self.results += other.results;
        self.elapsed += other.elapsed;
        // A record that never went through `set_elapsed` (hand-built, or
        // deserialized from an older format) still contributes its total
        // elapsed as the worst-case estimate.
        let other_max = other.elapsed_max.max(if other.elapsed_max.is_zero() {
            other.elapsed
        } else {
            other.elapsed_max
        });
        self.elapsed_max = self.elapsed_max.max(other_max);
        for (name, d) in &other.stage_elapsed {
            self.add_stage_elapsed(name, *d);
        }
        for note in &other.degradations {
            self.record_degradation_once(note);
        }
        self.deadline_expired |= other.deadline_expired;
        if self.retrieval.is_none() {
            self.retrieval = other.retrieval;
        }
        if !other.provenance.is_empty() {
            self.provenance.extend(other.provenance.iter().cloned());
            self.provenance
                .sort_by(|a, b| (a.shard, &a.endpoint).cmp(&(b.shard, &b.endpoint)));
        }
    }

    /// The provenance entry with the largest coordinator-observed
    /// latency — the straggler that set the critical path of a
    /// scatter-gathered answer. `None` when no provenance is attached.
    pub fn straggler(&self) -> Option<&ShardProvenance> {
        self.provenance.iter().max_by_key(|p| p.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectivity_is_exact_over_db_size() {
        let s = QueryStats {
            db_size: 200,
            exact_evaluations: 5,
            ..Default::default()
        };
        assert!((s.selectivity() - 0.025).abs() < 1e-12);
    }

    #[test]
    fn selectivity_of_empty_db_is_zero() {
        assert_eq!(QueryStats::default().selectivity(), 0.0);
    }

    #[test]
    fn filter_evaluations_merge_by_stage() {
        let mut s = QueryStats::default();
        s.add_filter_evaluations("LB_Man", 10);
        s.add_filter_evaluations("LB_IM", 3);
        s.add_filter_evaluations("LB_Man", 5);
        assert_eq!(
            s.filter_evaluations,
            vec![("LB_Man".to_string(), 15), ("LB_IM".to_string(), 3)]
        );
        assert_eq!(s.total_filter_evaluations(), 18);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = QueryStats {
            db_size: 100,
            exact_evaluations: 2,
            node_accesses: 7,
            results: 10,
            ..Default::default()
        };
        a.add_filter_evaluations("f", 1);
        let mut b = QueryStats {
            db_size: 100,
            exact_evaluations: 3,
            node_accesses: 1,
            results: 10,
            ..Default::default()
        };
        b.add_filter_evaluations("f", 2);
        a.merge(&b);
        assert_eq!(a.exact_evaluations, 5);
        assert_eq!(a.node_accesses, 8);
        assert_eq!(a.filter_evaluations[0].1, 3);
    }

    #[test]
    fn merge_sums_elapsed_and_tracks_worst_case() {
        let mut a = QueryStats::default();
        a.set_elapsed(Duration::from_millis(10));
        let mut b = QueryStats::default();
        b.set_elapsed(Duration::from_millis(30));
        let mut c = QueryStats::default();
        c.set_elapsed(Duration::from_millis(20));
        a.merge(&b);
        a.merge(&c);
        assert_eq!(a.elapsed, Duration::from_millis(60));
        assert_eq!(a.elapsed_max, Duration::from_millis(30));
    }

    #[test]
    fn merge_treats_legacy_records_elapsed_as_max() {
        // A record built without set_elapsed (elapsed_max still zero)
        // must still contribute to the worst case.
        let mut a = QueryStats::default();
        a.set_elapsed(Duration::from_millis(5));
        let legacy = QueryStats {
            elapsed: Duration::from_millis(40),
            ..Default::default()
        };
        a.merge(&legacy);
        assert_eq!(a.elapsed_max, Duration::from_millis(40));
    }

    #[test]
    fn merge_keeps_db_size_max_not_sum() {
        let mut a = QueryStats {
            db_size: 100,
            ..Default::default()
        };
        let b = QueryStats {
            db_size: 100,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.db_size, 100, "db_size is a property, not an accumulator");
    }

    #[test]
    fn stage_elapsed_merges_by_name() {
        let mut a = QueryStats::default();
        a.add_stage_elapsed(stage::CANDIDATES, Duration::from_micros(100));
        a.add_stage_elapsed(stage::EXACT, Duration::from_micros(500));
        let mut b = QueryStats::default();
        b.add_stage_elapsed(stage::CANDIDATES, Duration::from_micros(50));
        b.add_stage_elapsed("LB_IM", Duration::from_micros(70));
        a.merge(&b);
        assert_eq!(
            a.stage_time(stage::CANDIDATES),
            Some(Duration::from_micros(150))
        );
        assert_eq!(a.stage_time(stage::EXACT), Some(Duration::from_micros(500)));
        assert_eq!(a.stage_time("LB_IM"), Some(Duration::from_micros(70)));
        assert_eq!(a.stage_time("nope"), None);
    }

    #[test]
    fn merge_dedupes_degradation_notes() {
        let mut a = QueryStats::default();
        a.record_degradation_once("scan fallback");
        let mut b = QueryStats::default();
        b.record_degradation_once("scan fallback");
        b.record_degradation_once("shard 2 unavailable");
        a.merge(&b);
        assert_eq!(
            a.degradations,
            vec![
                "scan fallback".to_string(),
                "shard 2 unavailable".to_string()
            ]
        );
    }

    #[test]
    fn merge_concatenates_provenance_in_shard_order() {
        let entry = |shard: u32, endpoint: &str, ms: u64| ShardProvenance {
            shard,
            endpoint: endpoint.to_string(),
            latency: Duration::from_millis(ms),
            ..Default::default()
        };
        let mut a = QueryStats {
            provenance: vec![entry(2, "c:1", 9)],
            ..Default::default()
        };
        let b = QueryStats {
            provenance: vec![entry(0, "a:1", 3), entry(1, "b:1", 30)],
            ..Default::default()
        };
        a.merge(&b);
        let shards: Vec<u32> = a.provenance.iter().map(|p| p.shard).collect();
        assert_eq!(shards, vec![0, 1, 2]);
        assert_eq!(a.straggler().unwrap().shard, 1);
    }

    #[test]
    fn straggler_of_plain_stats_is_none() {
        assert!(QueryStats::default().straggler().is_none());
    }

    #[test]
    fn merge_adopts_retrieval_info_without_overwriting() {
        use crate::sketch_tier::{RetrievalInfo, RetrievalMode};
        let mut a = QueryStats::default();
        let b = QueryStats {
            retrieval: Some(RetrievalInfo {
                mode: RetrievalMode::Approximate { epsilon: 0.5 },
                approx_ratio: 1.0 / 1.5,
            }),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.retrieval, b.retrieval);
        let c = QueryStats {
            retrieval: Some(RetrievalInfo {
                mode: RetrievalMode::Exact,
                approx_ratio: 1.0,
            }),
            ..Default::default()
        };
        a.merge(&c);
        assert_eq!(a.retrieval, b.retrieval, "merge keeps the first entry");
    }

    #[test]
    fn record_degradation_once_dedupes() {
        let mut s = QueryStats::default();
        s.record_degradation_once("solver fell back to Bland");
        s.record_degradation_once("solver fell back to Bland");
        s.record_degradation_once("other");
        assert_eq!(s.degradations.len(), 2);
    }
}
