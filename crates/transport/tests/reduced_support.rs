//! The `emd*` entry points solve a cost matrix that admits the diagonal
//! reduction on its surplus-vs-deficit bins only. These properties pin
//! the reduced path against the full square transportation problem and
//! against the independent dense LP of `earthmover-lp`, check that the
//! reconstructed flows keep their contract, and check that a cost
//! violating the triangle inequality still gets the full path.

use earthmover_core::BinGrid;
use earthmover_lp::{Problem, Relation};
use earthmover_transport::{
    emd, emd_with_flow, solve_transportation, CostMatrix, TransportError, BALANCE_EPS,
};
use proptest::prelude::*;

/// Same transportation instance as a textbook LP, divided by the mass:
/// the EMD by an implementation that shares no code with the
/// transportation simplex. Empty rows and columns force zero flow, so the
/// LP is posed over the cells between non-empty bins only — every other
/// cell, the diagonal included, stays a variable.
fn lp_emd(x: &[f64], y: &[f64], cost: &CostMatrix) -> f64 {
    let rows: Vec<usize> = (0..x.len()).filter(|&i| x[i] > 0.0).collect();
    let cols: Vec<usize> = (0..y.len()).filter(|&j| y[j] > 0.0).collect();
    let cells: Vec<(usize, usize)> = rows
        .iter()
        .flat_map(|&i| cols.iter().map(move |&j| (i, j)))
        .collect();
    let mut problem = Problem::minimize(cells.iter().map(|&(i, j)| cost.get(i, j)).collect());
    for &i in &rows {
        let row = cells
            .iter()
            .map(|&(r, _)| if r == i { 1.0 } else { 0.0 })
            .collect();
        problem.constrain(row, Relation::Eq, x[i]);
    }
    for &j in &cols {
        let col = cells
            .iter()
            .map(|&(_, c)| if c == j { 1.0 } else { 0.0 })
            .collect();
        problem.constrain(col, Relation::Eq, y[j]);
    }
    let solution = problem.solve().expect("transportation LP is feasible");
    solution.objective / x.iter().sum::<f64>()
}

/// The ground distances under test: the paper's three colour-histogram
/// grids (64, 32 and 16 bins) and 1-D lines of 2 to 24 bins.
fn metric_cost(shape: usize, line_bins: usize) -> CostMatrix {
    match shape {
        0 => BinGrid::new(vec![4, 4, 4]).cost_matrix(),
        1 => BinGrid::new(vec![4, 4, 2]).cost_matrix(),
        2 => BinGrid::new(vec![4, 2, 2]).cost_matrix(),
        _ => CostMatrix::from_fn(line_bins, |i, j| (i as f64 - j as f64).abs()),
    }
}

/// Two histograms of `n` bins with equal total `mass`: raw draws below
/// 0.3 become empty bins, so both sparse and dense supports occur.
fn histogram_pair(raw_x: &[f64], raw_y: &[f64], n: usize, mass: f64) -> (Vec<f64>, Vec<f64>) {
    let shape = |raw: &[f64]| -> Vec<f64> {
        let mut h: Vec<f64> = raw[..n]
            .iter()
            .map(|&v| if v < 0.3 { 0.0 } else { v })
            .collect();
        if h.iter().all(|&v| v <= 0.0) {
            h[0] = 1.0;
        }
        let total: f64 = h.iter().sum();
        h.iter().map(|v| v * mass / total).collect()
    };
    (shape(raw_x), shape(raw_y))
}

fn assert_flow_contract(x: &[f64], y: &[f64], cost: &CostMatrix) -> Result<(), TestCaseError> {
    let (value, flows) = emd_with_flow(x, y, cost).unwrap();
    let mass: f64 = x.iter().sum();
    let mut row = vec![0.0; x.len()];
    let mut col = vec![0.0; y.len()];
    let mut flow_cost = 0.0;
    for f in &flows {
        prop_assert!(f.mass > 0.0, "non-positive flow {f:?}");
        row[f.from] += f.mass;
        col[f.to] += f.mass;
        flow_cost += cost.get(f.from, f.to) * f.mass;
    }
    for i in 0..x.len() {
        prop_assert!((row[i] - x[i]).abs() <= 1e-12 * mass, "row {i}");
        prop_assert!((col[i] - y[i]).abs() <= 1e-12 * mass, "col {i}");
    }
    prop_assert!(
        (flow_cost / mass - value).abs() <= 1e-12 * value.max(cost.max_cost()),
        "flow cost {} vs value {value}",
        flow_cost / mass
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reduced_matches_full_solver_and_flows_keep_their_contract(
        shape in 0usize..4,
        line_bins in 2usize..25,
        mass in 0.5f64..20.0,
        raw_x in prop::collection::vec(0.0f64..1.0, 64),
        raw_y in prop::collection::vec(0.0f64..1.0, 64),
    ) {
        let cost = metric_cost(shape, line_bins);
        prop_assert!(cost.admits_diagonal_reduction());
        let (x, y) = histogram_pair(&raw_x, &raw_y, cost.len(), mass);
        let reduced = emd(&x, &y, &cost).unwrap();
        let full = solve_transportation(&x, &y, &cost).unwrap().total_cost / mass;
        prop_assert!(
            (reduced - full).abs() <= 1e-12 * full.max(1e-3 * cost.max_cost()),
            "reduced {reduced} vs full {full}"
        );
        assert_flow_contract(&x, &y, &cost)?;
    }
}

proptest! {
    // The dense LP is O(n²) variables; fewer cases keep it quick.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn reduced_matches_dense_lp(
        shape in 0usize..4,
        line_bins in 2usize..25,
        raw_x in prop::collection::vec(0.0f64..1.0, 64),
        raw_y in prop::collection::vec(0.0f64..1.0, 64),
    ) {
        let cost = metric_cost(shape, line_bins);
        let (x, y) = histogram_pair(&raw_x, &raw_y, cost.len(), 1.0);
        let reduced = emd(&x, &y, &cost).unwrap();
        let lp = lp_emd(&x, &y, &cost);
        prop_assert!((reduced - lp).abs() <= 1e-7, "reduced {reduced} vs lp {lp}");
    }

    #[test]
    fn triangle_violating_cost_takes_the_full_path(
        shape in 1usize..4,
        line_bins in 3usize..13,
        raw_x in prop::collection::vec(0.0f64..1.0, 64),
        raw_y in prop::collection::vec(0.0f64..1.0, 64),
    ) {
        // Squared Euclidean distance: zero diagonal, but routing mass
        // through an intermediate bin is cheaper than shipping it direct.
        let squared = |c: CostMatrix| CostMatrix::from_fn(c.len(), |i, j| c.get(i, j).powi(2));
        let cost = squared(metric_cost(shape, line_bins));
        prop_assert!(!cost.admits_diagonal_reduction());
        let (x, y) = histogram_pair(&raw_x, &raw_y, cost.len(), 1.0);
        let value = emd(&x, &y, &cost).unwrap();
        let lp = lp_emd(&x, &y, &cost);
        prop_assert!((value - lp).abs() <= 1e-7, "emd {value} vs lp {lp}");
        assert_flow_contract(&x, &y, &cost)?;
    }
}

#[test]
fn triangle_violation_is_not_short_cut() {
    // Direct 0 → 2 costs 10, the detour through bin 1 costs 2. Bin 1
    // holds mass on both sides, so the reduced problem would ship 0 → 2.
    let cost =
        CostMatrix::from_vec(3, vec![0.0, 1.0, 10.0, 1.0, 0.0, 1.0, 10.0, 1.0, 0.0]).unwrap();
    assert!(!cost.admits_diagonal_reduction());
    let (x, y) = ([1.0, 1.0, 0.0], [0.0, 1.0, 1.0]);
    let value = emd(&x, &y, &cost).unwrap();
    assert!((value - 1.0).abs() < 1e-12, "got {value}");
    assert!((value - lp_emd(&x, &y, &cost)).abs() < 1e-7);
}

#[test]
fn identical_histograms_cost_nothing_and_keep_their_mass() {
    let cost = BinGrid::new(vec![4, 4, 4]).cost_matrix();
    let x: Vec<f64> = (0..64).map(|i| ((i * 7) % 5) as f64).collect();
    let (value, flows) = emd_with_flow(&x, &x, &cost).unwrap();
    assert_eq!(value, 0.0);
    assert!(flows.iter().all(|f| f.from == f.to));
    let moved: f64 = flows.iter().map(|f| f.mass).sum();
    assert!((moved - x.iter().sum::<f64>()).abs() < 1e-12);
}

#[test]
fn imbalance_within_tolerance_leaving_one_side_empty_is_zero() {
    // y exceeds x in one bin by less than BALANCE_EPS: the reduced problem
    // has a deficit bin and no surplus bin.
    let cost = BinGrid::new(vec![4, 2, 2]).cost_matrix();
    let x = vec![1.0 / 16.0; 16];
    let mut y = x.clone();
    y[5] += 0.5 * BALANCE_EPS;
    assert_eq!(emd(&x, &y, &cost).unwrap(), 0.0);
    assert_eq!(emd(&y, &x, &cost).unwrap(), 0.0);
    // Beyond the tolerance the imbalance is still an error.
    y[5] += 2.0 * BALANCE_EPS;
    assert!(matches!(
        emd(&x, &y, &cost),
        Err(TransportError::Unbalanced { .. })
    ));
}

#[test]
fn validation_is_unchanged_on_the_reduced_path() {
    let cost = BinGrid::new(vec![4, 2, 2]).cost_matrix();
    assert!(cost.admits_diagonal_reduction());
    let mut x = vec![1.0 / 16.0; 16];
    let y = x.clone();
    assert!(matches!(
        emd(&x[..15], &y, &cost),
        Err(TransportError::ShapeMismatch { .. })
    ));
    x[3] = f64::NAN;
    assert!(matches!(
        emd(&x, &y, &cost),
        Err(TransportError::InvalidMass { index: 3, .. })
    ));
    x[3] = -0.01;
    x[4] += 0.01 + 1.0 / 16.0;
    assert!(matches!(
        emd(&x, &y, &cost),
        Err(TransportError::InvalidMass { index: 3, .. })
    ));
}
