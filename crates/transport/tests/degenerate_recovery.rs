//! Regression tests for the solver-recovery ladder on degenerate,
//! cycling-prone instances: default pivot rule → `IterationLimit` →
//! Bland's anti-cycling rule → dense LP simplex as the final word.
//!
//! The query engine (`earthmover-core`) walks this exact ladder at run
//! time; these tests pin down each rung against the independent
//! `earthmover-lp` implementation.
//!
//! The `emd*` entry points solve a cost matrix that admits the diagonal
//! reduction on its surplus-vs-deficit block only, so the ladder is
//! pinned twice: on a reducible instance whose *reduced* problem still
//! needs pivots, and on a non-reducible twin that takes the full path.

use earthmover_lp::{Problem, Relation};
use earthmover_transport::{
    emd, emd_with_options, solve_transportation_rect, solve_transportation_with, CostMatrix,
    PivotRule, RectCost, SolverOptions, TransportError,
};

/// A degenerate, tie-rich instance that Vogel initialization does *not*
/// solve outright (it needs simplex pivots): near-tied costs with a tiny
/// tie-breaking term, and interleaved marginals containing exact zeros.
/// The cost has a zero diagonal and meets the triangle inequality, so it
/// admits the diagonal reduction.
fn degenerate_instance(n: usize) -> (Vec<f64>, Vec<f64>, CostMatrix) {
    degenerate_instance_with_diagonal(n, 0.0)
}

/// [`degenerate_instance`] with `diagonal` added to every `c_ii`; any
/// positive value makes the cost non-reducible.
fn degenerate_instance_with_diagonal(n: usize, diagonal: f64) -> (Vec<f64>, Vec<f64>, CostMatrix) {
    let cost = CostMatrix::from_fn(n, |i, j| {
        let stay = if i == j { diagonal } else { 0.0 };
        (((i * 7 + j * 3) % 5) as f64) + 0.1 * ((i as f64) - (j as f64)).abs() + stay
    });
    let mut x = vec![0.0; n];
    let mut y = vec![0.0; n];
    for i in 0..n {
        x[i] = ((i * 3 + 1) % 4) as f64;
        y[i] = ((i * 5 + 2) % 4) as f64;
    }
    let sx: f64 = x.iter().sum();
    let sy: f64 = y.iter().sum();
    for v in x.iter_mut() {
        *v /= sx;
    }
    for v in y.iter_mut() {
        *v /= sy;
    }
    (x, y, cost)
}

/// Independent ground truth: solve the same transportation LP with the
/// dense two-phase simplex of `earthmover-lp`.
fn lp_emd(x: &[f64], y: &[f64], cost: &CostMatrix) -> f64 {
    let n = x.len();
    let mut objective = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            objective[i * n + j] = cost.get(i, j);
        }
    }
    let mut problem = Problem::minimize(objective);
    for i in 0..n {
        let mut row = vec![0.0; n * n];
        for j in 0..n {
            row[i * n + j] = 1.0;
        }
        problem.constrain(row, Relation::Eq, x[i]);
    }
    for j in 0..n {
        let mut col = vec![0.0; n * n];
        for i in 0..n {
            col[i * n + j] = 1.0;
        }
        problem.constrain(col, Relation::Eq, y[j]);
    }
    let solution = problem.solve().expect("transportation LP is feasible");
    let mass: f64 = x.iter().sum();
    solution.objective / mass
}

/// Pivots the default rule needs on the surplus-vs-deficit block that the
/// `emd*` entry points solve for a reducible cost.
fn reduced_problem_pivots(x: &[f64], y: &[f64], cost: &CostMatrix) -> usize {
    let rows: Vec<usize> = (0..x.len()).filter(|&i| x[i] > y[i]).collect();
    let cols: Vec<usize> = (0..x.len()).filter(|&j| y[j] > x[j]).collect();
    let supply: Vec<f64> = rows.iter().map(|&i| x[i] - y[i]).collect();
    let demand: Vec<f64> = cols.iter().map(|&j| y[j] - x[j]).collect();
    let block = RectCost::from_fn(rows.len(), cols.len(), |a, b| cost.get(rows[a], cols[b]));
    solve_transportation_rect(&supply, &demand, &block)
        .expect("reduced problem is feasible")
        .pivots
}

/// Rung 1 fails under a 1-pivot cap, rung 2 (Bland's rule) recovers and
/// agrees with the default rule and with the dense LP.
fn assert_ladder_recovers(x: &[f64], y: &[f64], cost: &CostMatrix) {
    let strangled = SolverOptions {
        pivot_rule: PivotRule::LargestReduction,
        max_pivots: Some(1),
    };
    assert_eq!(
        emd_with_options(x, y, cost, strangled).unwrap_err(),
        TransportError::IterationLimit
    );
    // Bland's rule with an adequate cap terminates (it provably cannot
    // cycle) and agrees with the unconstrained default.
    let bland = SolverOptions {
        pivot_rule: PivotRule::Bland,
        max_pivots: None,
    };
    let via_bland = emd_with_options(x, y, cost, bland).unwrap();
    let via_default = emd(x, y, cost).unwrap();
    assert!(
        (via_bland - via_default).abs() < 1e-9,
        "bland {via_bland} vs default {via_default}"
    );
    let expected = lp_emd(x, y, cost);
    assert!(
        (via_bland - expected).abs() < 1e-7,
        "bland {via_bland} vs lp {expected}"
    );
}

#[test]
fn tiny_pivot_cap_forces_iteration_limit() {
    let (x, y, cost) = degenerate_instance(10);
    let err = solve_transportation_with(
        &x,
        &y,
        &cost,
        SolverOptions {
            pivot_rule: PivotRule::LargestReduction,
            max_pivots: Some(1),
        },
    )
    .unwrap_err();
    assert_eq!(err, TransportError::IterationLimit);
}

#[test]
fn bland_rule_recovers_where_default_hits_the_limit() {
    // At n = 10 the reduced problem solves in one pivot; n = 16 keeps the
    // reduced problem degenerate enough to need several.
    let (x, y, cost) = degenerate_instance(16);
    assert!(cost.admits_diagonal_reduction());
    let pivots = reduced_problem_pivots(&x, &y, &cost);
    assert!(pivots >= 2, "reduced problem needs only {pivots} pivot(s)");
    assert_ladder_recovers(&x, &y, &cost);
}

#[test]
fn bland_rule_recovers_on_the_full_problem() {
    // The non-reducible twin: a positive diagonal sends `emd*` down the
    // full square path.
    let (x, y, cost) = degenerate_instance_with_diagonal(10, 0.5);
    assert!(!cost.admits_diagonal_reduction());
    let pivots = solve_transportation_with(&x, &y, &cost, SolverOptions::default())
        .unwrap()
        .pivots;
    assert!(pivots >= 2, "full problem needs only {pivots} pivot(s)");
    assert_ladder_recovers(&x, &y, &cost);
}

#[test]
fn full_ladder_agrees_with_dense_lp() {
    let (x, y, cost) = degenerate_instance(10);
    let expected = lp_emd(&x, &y, &cost);
    for rule in [PivotRule::LargestReduction, PivotRule::Bland] {
        let options = SolverOptions {
            pivot_rule: rule,
            max_pivots: None,
        };
        let value = emd_with_options(&x, &y, &cost, options).unwrap();
        assert!(
            (value - expected).abs() < 1e-7,
            "{rule:?}: simplex {value} vs lp {expected}"
        );
    }
}

#[test]
fn bland_handles_fully_degenerate_marginals() {
    // Every supply equals every demand: maximal degeneracy, every pivot
    // has theta = 0 candidates.
    let n = 8;
    let x = vec![1.0 / n as f64; n];
    let y = vec![1.0 / n as f64; n];
    let cost = CostMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { 1.0 });
    let options = SolverOptions {
        pivot_rule: PivotRule::Bland,
        max_pivots: None,
    };
    let value = emd_with_options(&x, &y, &cost, options).unwrap();
    assert!(value.abs() < 1e-12, "identical histograms must cost 0");
}
