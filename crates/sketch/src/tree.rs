//! Hierarchical tree embedding of bin space: EMD approximated by an L1
//! distance with a provable distortion factor.
//!
//! # Construction
//!
//! Histogram bins live at centroids in the feature unit cube
//! `[0, 1]^d`. We overlay a hierarchy of grids: level `l` splits the
//! (shifted) cube into cells of side `2^-l`, so each level-`l` cell
//! nests inside one level-`(l-1)` cell — a tree over bin space. The
//! grid is shifted by a random offset in `[0, 1)^d` drawn from a
//! splitmix64 stream seeded by `seed`, the classic trick that makes the
//! *expected* distortion logarithmic instead of adversarial.
//!
//! The edge from a level-`l` node to its parent gets weight
//! `e_l = sqrt(d) * 2^(1-l)` (the parent cell's diameter). The EMD
//! under this tree metric has a closed form: for each node, weigh the
//! absolute difference of the subtree masses by the edge above it and
//! sum. Writing each histogram as the embedding vector with coordinate
//! `e_l * (mass in cell)` per (level, cell) node therefore turns the
//! tree EMD into a plain **L1 distance between embedding vectors** —
//! computable in one streaming pass, no flow problem.
//!
//! # Guarantee
//!
//! The leaf level `L` is chosen as the smallest level whose cell
//! diameter `sqrt(d) * 2^-L` is below the minimum pairwise centroid
//! distance, so distinct bins occupy distinct leaves for *any* shift.
//! Two bins separating at level `s` then satisfy
//!
//! * ground distance `<= sqrt(d) * 2^-s` (shared-cell diameter), and
//! * tree distance `= 4 sqrt(d) (2^-s - 2^-L) >= 2 sqrt(d) * 2^-s`,
//!
//! so the tree metric **dominates** the ground metric and the tree EMD
//! (= L1 between embeddings) never underestimates the true EMD.
//! Construction re-checks domination on every bin pair and fails with
//! [`SketchError::NotDominating`] if it does not hold. The worst-case
//! overestimate is the per-pair maximum ratio, exposed as
//! [`TreeEmbedding::distortion`]:
//!
//! ```text
//! EMD(x, y) <= d_tree(x, y) <= distortion() * EMD(x, y)
//! ```

use std::collections::HashMap;

use crate::{unit_f64, SketchError};

/// Cap on hierarchy depth: `2^-40` is far below any representable bin
/// separation in practice and keeps cell indices inside a `u64`.
const MAX_LEVELS: i32 = 40;

/// A splitmix64-seeded shifted-grid tree embedding over a fixed set of
/// bin centroids. Construction precomputes, per bin, the sparse list of
/// embedding slots the bin's mass flows into; projection is then a
/// single scatter-add pass over the histogram.
#[derive(Debug, Clone)]
pub struct TreeEmbedding {
    bins: usize,
    dim: usize,
    levels: i32,
    seed: u64,
    distortion: f64,
    /// Per bin: `(slot, weight)` pairs, one per hierarchy level. Slot
    /// `s` accumulates `weight * mass` from every bin listing it.
    nodes_per_bin: Vec<Vec<(usize, f64)>>,
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Checks one bin pair: the tree distance must not fall below the
/// ground distance (up to rounding). Returns the pair's distortion
/// `tree / ground`.
fn pair_distortion(i: usize, j: usize, tree: f64, ground: f64) -> Result<f64, SketchError> {
    if tree + 1e-12 < ground {
        return Err(SketchError::NotDominating { i, j, tree, ground });
    }
    Ok(tree / ground)
}

impl TreeEmbedding {
    /// Builds the embedding over `centroids` (one point in `[0, 1]^d`
    /// per histogram bin) with the grid shift drawn from `seed`.
    ///
    /// Cost is `O(bins^2 * d)` for the minimum-separation scan and the
    /// distortion certificate — bin counts are small (tens to hundreds),
    /// so this is a one-time construction cost, not a per-row cost.
    /// Fails with [`SketchError::NotDominating`] if some bin pair's tree
    /// distance is below its ground distance.
    pub fn new(centroids: &[Vec<f64>], seed: u64) -> Result<Self, SketchError> {
        if centroids.is_empty() {
            return Err(SketchError::InvalidBinSpace);
        }
        let d = centroids[0].len();
        if d == 0 || centroids.iter().any(|c| c.len() != d) {
            return Err(SketchError::InvalidBinSpace);
        }
        let sqrt_d = (d as f64).sqrt();

        // Minimum pairwise separation between distinct centroids: the
        // leaf cells must be finer than this so no two bins share one.
        let mut delta = f64::INFINITY;
        for (i, a) in centroids.iter().enumerate() {
            for b in centroids.iter().skip(i + 1) {
                let dist = euclidean(a, b);
                if dist > 0.0 && dist < delta {
                    delta = dist;
                }
            }
        }
        let mut levels = 1;
        while sqrt_d * (0.5f64).powi(levels) >= delta && levels < MAX_LEVELS {
            levels += 1;
        }

        // Shifted grid: offsets in [0, 1)^d from the seeded stream.
        let mut state = seed;
        let shift: Vec<f64> = (0..d).map(|_| unit_f64(&mut state)).collect();

        // Assign embedding slots in deterministic first-encounter order
        // (level-major, then bin order) so a rebuild from the same
        // centroids + seed reproduces the same arena layout.
        let mut slots: HashMap<(i32, Vec<u64>), usize> = HashMap::new();
        let mut nodes_per_bin: Vec<Vec<(usize, f64)>> =
            vec![Vec::with_capacity(levels as usize); centroids.len()];
        for level in 1..=levels {
            let scale = (1u64 << level) as f64;
            // Edge weight above a level-`level` node: the parent cell's
            // diameter, sqrt(d) * 2^(1 - level).
            let weight = sqrt_d * (0.5f64).powi(level - 1);
            for (nodes, c) in nodes_per_bin.iter_mut().zip(centroids) {
                let cell: Vec<u64> = c
                    .iter()
                    .zip(&shift)
                    .map(|(x, s)| ((x.clamp(0.0, 1.0) + s) * scale) as u64)
                    .collect();
                let next = slots.len();
                let slot = *slots.entry((level, cell)).or_insert(next);
                nodes.push((slot, weight));
            }
        }
        let dim = slots.len();

        let mut embedding = TreeEmbedding {
            bins: centroids.len(),
            dim,
            levels,
            seed,
            distortion: 1.0,
            nodes_per_bin,
        };
        embedding.distortion = embedding.certify(centroids)?;
        Ok(embedding)
    }

    /// Worst-case per-pair overestimate of the tree metric over the
    /// ground metric, and a construction-time check that the tree
    /// metric dominates (the lower-bound side of the guarantee).
    fn certify(&self, centroids: &[Vec<f64>]) -> Result<f64, SketchError> {
        let mut gamma: f64 = 1.0;
        let mut ei = vec![0.0; self.dim];
        let mut ej = vec![0.0; self.dim];
        for i in 0..self.bins {
            for j in (i + 1)..self.bins {
                let ground = euclidean(&centroids[i], &centroids[j]);
                if ground <= 0.0 {
                    continue;
                }
                // Tree distance between the two bins = L1 between their
                // unit-mass one-hot embeddings.
                ei.iter_mut().for_each(|v| *v = 0.0);
                ej.iter_mut().for_each(|v| *v = 0.0);
                for &(slot, w) in &self.nodes_per_bin[i] {
                    ei[slot] += w;
                }
                for &(slot, w) in &self.nodes_per_bin[j] {
                    ej[slot] += w;
                }
                let tree = self.distance(&ei, &ej);
                gamma = gamma.max(pair_distortion(i, j, tree, ground)?);
            }
        }
        Ok(gamma)
    }

    /// Depth of the hierarchy (leaf level).
    pub fn levels(&self) -> i32 {
        self.levels
    }

    /// Seed the grid shift was drawn from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The certified distortion factor `Gamma`:
    /// `EMD <= d_tree <= Gamma * EMD` for histograms over this bin
    /// space.
    pub fn distortion(&self) -> f64 {
        self.distortion
    }

    /// Length of an embedding vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of histogram bins a projectable histogram must have.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Embeds `bins` into `out` (length exactly [`TreeEmbedding::dim`]).
    ///
    /// Masses are normalized to total 1 internally, so raw and
    /// normalized histograms project identically.
    pub fn project(&self, bins: &[f64], out: &mut [f64]) -> Result<(), SketchError> {
        if bins.len() != self.bins {
            return Err(SketchError::ArityMismatch {
                expected: self.bins,
                got: bins.len(),
            });
        }
        debug_assert_eq!(out.len(), self.dim);
        out.iter_mut().for_each(|v| *v = 0.0);
        let total: f64 = bins.iter().sum();
        let inv = if total > 0.0 { 1.0 / total } else { 0.0 };
        for (mass, nodes) in bins.iter().zip(&self.nodes_per_bin) {
            let m = mass * inv;
            if m == 0.0 {
                continue;
            }
            for &(slot, w) in nodes {
                out[slot] += w * m;
            }
        }
        Ok(())
    }

    /// Tree-metric EMD between two embedding vectors: their L1 distance.
    pub fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_centroids(axes: &[usize]) -> Vec<Vec<f64>> {
        let num: usize = axes.iter().product();
        (0..num)
            .map(|mut bin| {
                let mut c = vec![0.0; axes.len()];
                for d in (0..axes.len()).rev() {
                    let idx = bin % axes[d];
                    bin /= axes[d];
                    c[d] = (idx as f64 + 0.5) / axes[d] as f64;
                }
                c
            })
            .collect()
    }

    #[test]
    fn a_pair_below_the_ground_distance_is_a_typed_error() {
        assert_eq!(
            pair_distortion(2, 5, 0.5, 1.0).unwrap_err(),
            SketchError::NotDominating {
                i: 2,
                j: 5,
                tree: 0.5,
                ground: 1.0
            }
        );
        // Equal up to rounding still dominates; the ratio is returned.
        assert_eq!(
            pair_distortion(0, 1, 1.0 - 1e-13, 1.0).unwrap(),
            1.0 - 1e-13
        );
        assert_eq!(pair_distortion(0, 1, 3.0, 1.5).unwrap(), 2.0);
    }

    #[test]
    fn rejects_degenerate_bin_spaces() {
        assert_eq!(
            TreeEmbedding::new(&[], 1).unwrap_err(),
            SketchError::InvalidBinSpace
        );
        assert_eq!(
            TreeEmbedding::new(&[vec![0.1, 0.2], vec![0.3]], 1).unwrap_err(),
            SketchError::InvalidBinSpace
        );
    }

    #[test]
    fn identical_histograms_embed_identically() {
        let t = TreeEmbedding::new(&grid_centroids(&[2, 2, 2]), 9).unwrap();
        let bins = vec![0.5, 0.0, 0.25, 0.0, 0.25, 0.0, 0.0, 0.0];
        let mut a = vec![0.0; t.dim()];
        let mut b = vec![0.0; t.dim()];
        t.project(&bins, &mut a).unwrap();
        t.project(&bins, &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(t.distance(&a, &b), 0.0);
    }

    #[test]
    fn projection_is_mass_scale_invariant() {
        let t = TreeEmbedding::new(&grid_centroids(&[2, 2]), 3).unwrap();
        let raw = vec![2.0, 4.0, 0.0, 2.0];
        let norm = vec![0.25, 0.5, 0.0, 0.25];
        let mut a = vec![0.0; t.dim()];
        let mut b = vec![0.0; t.dim()];
        t.project(&raw, &mut a).unwrap();
        t.project(&norm, &mut b).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn tree_distance_dominates_ground_distance_on_one_hots() {
        // Moving all mass from bin i to bin j costs exactly the ground
        // distance; the tree distance must never be smaller, under many
        // different shifts.
        for seed in 0..20u64 {
            let centroids = grid_centroids(&[4, 4, 4]);
            let t = TreeEmbedding::new(&centroids, seed).unwrap();
            assert!(t.distortion() >= 1.0);
            let n = centroids.len();
            let mut ei = vec![0.0; t.dim()];
            let mut ej = vec![0.0; t.dim()];
            for (i, j) in [(0, 1), (0, n - 1), (3, 17), (20, 41)] {
                let mut a = vec![0.0; n];
                let mut b = vec![0.0; n];
                a[i] = 1.0;
                b[j] = 1.0;
                t.project(&a, &mut ei).unwrap();
                t.project(&b, &mut ej).unwrap();
                let tree = t.distance(&ei, &ej);
                let ground = euclidean(&centroids[i], &centroids[j]);
                assert!(
                    tree + 1e-12 >= ground,
                    "seed {seed}: pair ({i},{j}) tree {tree} < ground {ground}"
                );
                assert!(tree <= t.distortion() * ground + 1e-9);
            }
        }
    }

    #[test]
    fn leaf_level_separates_all_bins() {
        let centroids = grid_centroids(&[4, 2, 2]);
        let t = TreeEmbedding::new(&centroids, 11).unwrap();
        // Distinct one-hot embeddings for every pair of distinct bins.
        let n = centroids.len();
        let mut ei = vec![0.0; t.dim()];
        let mut ej = vec![0.0; t.dim()];
        for i in 0..n {
            for j in (i + 1)..n {
                let mut a = vec![0.0; n];
                let mut b = vec![0.0; n];
                a[i] = 1.0;
                b[j] = 1.0;
                t.project(&a, &mut ei).unwrap();
                t.project(&b, &mut ej).unwrap();
                assert!(t.distance(&ei, &ej) > 0.0, "bins {i} and {j} collide");
            }
        }
    }

    #[test]
    fn rebuild_is_deterministic() {
        let centroids = grid_centroids(&[4, 4, 2]);
        let a = TreeEmbedding::new(&centroids, 77).unwrap();
        let b = TreeEmbedding::new(&centroids, 77).unwrap();
        assert_eq!(a.dim(), b.dim());
        assert_eq!(a.levels(), b.levels());
        assert_eq!(a.distortion(), b.distortion());
        let bins = {
            let mut v = vec![0.0; centroids.len()];
            v[5] = 0.5;
            v[20] = 0.5;
            v
        };
        let mut pa = vec![0.0; a.dim()];
        let mut pb = vec![0.0; b.dim()];
        a.project(&bins, &mut pa).unwrap();
        b.project(&bins, &mut pb).unwrap();
        assert_eq!(pa, pb);
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let t = TreeEmbedding::new(&grid_centroids(&[2, 2]), 1).unwrap();
        let err = t.project(&[1.0, 0.0], &mut vec![0.0; t.dim()]).unwrap_err();
        assert_eq!(
            err,
            SketchError::ArityMismatch {
                expected: 4,
                got: 2
            }
        );
    }
}
