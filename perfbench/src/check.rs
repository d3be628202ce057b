//! The reference check. Every answer is compared with one computed by a
//! path that shares neither the served candidate source nor its
//! storage: a resident `LB_IM`-scan engine over its own copy of the
//! generated histograms.
//!
//! An exact answer agrees with the reference when, position by
//! position, the distances agree within `REL_TOL` relative and the ids
//! are equal — or, where the ids differ, the answer's distance for its
//! id, recomputed on the reference copy, agrees too. Two rows whose
//! distances to the query differ by a few ulps may come back in either
//! order or either may take the k-th place: `LB_IM` can exceed the exact
//! EMD by rounding (NOTES.md gives a case), so which of them survives the
//! filter depends on the path. Any other difference is a wrong answer.

use crate::spec::{Inputs, Spec, K};
use earthmover_core::lower_bounds::{DistanceMeasure, ExactEmd};
use earthmover_core::pipeline::{FirstStage, QueryEngine};
use earthmover_core::{Histogram, HistogramDb, SketchTier};
use earthmover_serve::Outcome;
use std::collections::HashMap;

/// Relative tolerance on distances.
pub const REL_TOL: f64 = 1e-9;

pub type Answer = Vec<(usize, f64)>;

/// Reference answers per query index.
pub struct Reference {
    /// The reference copy of the database, and the measure that
    /// recomputes single distances on it.
    db: HistogramDb,
    exact_emd: ExactEmd,
    queries: Vec<Histogram>,
    /// Exact top-k.
    exact: HashMap<usize, Answer>,
    /// The sketch tier's top-k over the reference copy (sketch-only
    /// workloads): the served sketch answer must equal it.
    sketch: HashMap<usize, Answer>,
    /// Recall of each sketch answer against the exact top-k.
    sketch_recall: HashMap<usize, f64>,
}

impl Reference {
    /// Answers every distinct query, split over `threads` threads.
    pub fn compute(
        spec: &Spec,
        inputs: &Inputs,
        sketch_seed: u64,
        threads: usize,
    ) -> Result<Reference, String> {
        let mut db = HistogramDb::new(spec.dims);
        for h in &inputs.rows {
            db.try_push(h.clone())
                .map_err(|e| format!("reference ingest failed: {e}"))?;
        }
        let tier = if spec.sketch_only {
            Some(
                SketchTier::build(&db, &inputs.grid, sketch_seed)
                    .map_err(|e| format!("reference sketch build failed: {e}"))?,
            )
        } else {
            None
        };
        let parts = answer_all(&db, inputs, tier.as_ref(), threads);
        let mut reference = Reference {
            exact_emd: ExactEmd::new(inputs.grid.cost_matrix()),
            db,
            queries: inputs.queries.clone(),
            exact: HashMap::new(),
            sketch: HashMap::new(),
            sketch_recall: HashMap::new(),
        };
        for part in parts {
            for (q, exact, sketch) in part? {
                reference.exact.insert(q, exact);
                if let Some(s) = sketch {
                    reference.sketch.insert(q, s);
                }
            }
        }
        let recalls: Vec<(usize, f64)> = reference
            .sketch
            .iter()
            .map(|(&q, answer)| (q, reference.recall(q, answer.iter().map(|(id, _)| *id))))
            .collect();
        reference.sketch_recall.extend(recalls);
        Ok(reference)
    }

    /// The answer query `q` must get in this workload.
    fn expected(&self, q: usize, sketch_only: bool) -> &Answer {
        let table = if sketch_only {
            &self.sketch
        } else {
            &self.exact
        };
        table
            .get(&q)
            .expect("every sent query has a reference answer")
    }

    /// |answer ∩ exact top-k| / k, where a row outside the reference's
    /// top-k still counts when its distance ties the k-th within
    /// `REL_TOL`.
    fn recall(&self, q: usize, ids: impl Iterator<Item = usize>) -> f64 {
        let truth = &self.exact[&q];
        let Some(&(_, kth)) = truth.last() else {
            return 0.0;
        };
        let within_kth = |id: usize| {
            let row = self.db.get(id).to_histogram();
            self.exact_emd.distance(&self.queries[q], &row) <= kth * (1.0 + REL_TOL)
        };
        let hits = ids
            .filter(|&id| {
                truth.iter().any(|(t, _)| *t == id) || (id < self.db.len() && within_kth(id))
            })
            .count();
        hits as f64 / truth.len() as f64
    }

    /// Recall of an answer that agrees with the reference.
    fn agreed_recall(&self, q: usize, sketch_only: bool) -> f64 {
        if sketch_only {
            self.sketch_recall[&q]
        } else {
            1.0
        }
    }
}

type Part = Result<Vec<(usize, Answer, Option<Answer>)>, String>;

/// Reference answers to every distinct query, split over `threads`.
fn answer_all(
    db: &HistogramDb,
    inputs: &Inputs,
    tier: Option<&SketchTier>,
    threads: usize,
) -> Vec<Part> {
    let engine = QueryEngine::builder(db, &inputs.grid)
        .first_stage(FirstStage::ImScan)
        .build();
    let distinct = inputs.distinct();
    let chunk = distinct.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = distinct
            .chunks(chunk)
            .map(|part| {
                let engine = &engine;
                scope.spawn(move || {
                    part.iter()
                        .map(|&q| {
                            let query = &inputs.queries[q];
                            let exact = engine
                                .knn(query, K)
                                .map_err(|e| format!("reference query failed: {e}"))?
                                .items;
                            let sketch = tier
                                .map(|t| t.knn(query, K))
                                .transpose()
                                .map_err(|e| format!("reference sketch: {e}"))?;
                            Ok((q, exact, sketch))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * b.abs().max(f64::MIN_POSITIVE)
}

impl Reference {
    /// Whether `got` answers query `q` as the reference does (see the
    /// module docs for near-ties). Counts id swaps between near-tied
    /// rows in `tie_swaps`.
    pub fn agrees(
        &self,
        q: usize,
        got: &[(u64, f64)],
        sketch_only: bool,
        tie_swaps: &mut u64,
    ) -> bool {
        let want = self.expected(q, sketch_only);
        if got.len() != want.len() {
            return false;
        }
        let mut ids: Vec<u64> = got.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != got.len() {
            return false;
        }
        got.iter().zip(want).all(|(&(gi, gd), &(wi, wd))| {
            if !close(gd, wd) {
                return false;
            }
            if gi == wi as u64 {
                return true;
            }
            let Ok(id) = usize::try_from(gi) else {
                return false;
            };
            if sketch_only || id >= self.db.len() {
                return false;
            }
            let row = self.db.get(id).to_histogram();
            let tied = close(gd, self.exact_emd.distance(&self.queries[q], &row));
            *tie_swaps += u64::from(tied);
            tied
        })
    }
}

/// How the answers of a set of requests came out.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    pub attempted: u64,
    pub wrong: u64,
    pub shed: u64,
    pub partial: u64,
    pub errors: u64,
    /// Sum of per-answer recall over complete answers.
    pub recall_sum: f64,
    pub answered: u64,
    /// Positions where a near-tied row took the reference's place.
    pub tie_swaps: u64,
}

impl Verdict {
    pub fn failed(&self) -> u64 {
        self.wrong + self.shed + self.partial + self.errors
    }

    pub fn recall(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.recall_sum / self.answered as f64
        }
    }

    /// Judges one request for query `q`.
    pub fn judge(
        &mut self,
        reference: &Reference,
        q: usize,
        outcome: &Result<Outcome, String>,
        sketch_only: bool,
    ) {
        self.attempted += 1;
        match outcome {
            Ok(Outcome::Complete { items, .. }) => {
                self.answered += 1;
                if reference.agrees(q, items, sketch_only, &mut self.tie_swaps) {
                    self.recall_sum += reference.agreed_recall(q, sketch_only);
                } else {
                    self.recall_sum +=
                        reference.recall(q, items.iter().map(|(id, _)| *id as usize));
                    self.wrong += 1;
                    let want = reference.expected(q, sketch_only);
                    eprintln!("wrong answer to query {q}: got {items:?}, want {want:?}");
                }
            }
            Ok(Outcome::Partial { .. }) => self.partial += 1,
            Ok(Outcome::Overloaded { .. }) => self.shed += 1,
            Err(_) => self.errors += 1,
        }
    }
}
