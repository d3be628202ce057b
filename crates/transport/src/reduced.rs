//! Exact EMD on the diagonal-reduced support.
//!
//! When the ground distance has a zero diagonal and obeys the triangle
//! inequality ([`CostMatrix::admits_diagonal_reduction`]), some optimal
//! flow leaves the mass `min(x_i, y_i)` in every bin `i` — the fact behind
//! the diagonal refinement of LB_IM (§4.6 of the paper; also Pele &
//! Werman, ICCV 2009). Only the surplus bins (`x_i > y_i`) ship and only
//! the deficit bins (`y_j > x_j`) receive, so the transportation simplex
//! runs on the rectangular `surplus × deficit` block: at 64 bins,
//! typically about 20 of the 128 nodes of the full problem.

use crate::cost::CostMatrix;
use crate::solver::{solve_transportation_general_with, CostAccess, Flow, SolverOptions};
use crate::TransportError;

/// The `rows × cols` block of a square cost matrix, borrowed in place.
struct SupportView<'a> {
    cost: &'a CostMatrix,
    rows: &'a [usize],
    cols: &'a [usize],
}

impl CostAccess for SupportView<'_> {
    fn rows(&self) -> usize {
        self.rows.len()
    }
    fn cols(&self) -> usize {
        self.cols.len()
    }
    fn at(&self, i: usize, j: usize) -> f64 {
        match (self.rows.get(i), self.cols.get(j)) {
            (Some(&r), Some(&c)) => self.cost.get(r, c),
            // The solver only asks for cells inside the block.
            _ => f64::INFINITY,
        }
    }
    fn max(&self) -> f64 {
        self.rows
            .iter()
            .flat_map(|&r| self.cols.iter().map(move |&c| self.cost.get(r, c)))
            .fold(0.0, f64::max)
    }
}

/// Solves the balanced problem `x → y` on the reduced support.
///
/// Returns the unnormalized total cost and the flows in bin indices,
/// including the diagonal flows `(i, i, min(x_i, y_i))`. The caller has
/// validated shapes, balance and masses and checked the guard.
pub(crate) fn solve(
    x: &[f64],
    y: &[f64],
    cost: &CostMatrix,
    options: SolverOptions,
) -> Result<(f64, Vec<Flow>), TransportError> {
    let mut total = 0.0;
    let mut flows = Vec::new();
    let (mut rows, mut supply) = (Vec::new(), Vec::new());
    let (mut cols, mut demand) = (Vec::new(), Vec::new());
    for (i, (&xi, &yi)) in x.iter().zip(y).enumerate() {
        let kept = xi.min(yi);
        if kept > 0.0 {
            total += cost.get(i, i) * kept;
            flows.push(Flow {
                from: i,
                to: i,
                mass: kept,
            });
        }
        if xi > yi {
            rows.push(i);
            supply.push(xi - yi);
        } else if yi > xi {
            cols.push(i);
            demand.push(yi - xi);
        }
    }
    // `x == y`, or an imbalance within `BALANCE_EPS` left only one side
    // with mass: nothing has to move.
    if rows.is_empty() || cols.is_empty() {
        return Ok((total, flows));
    }
    let view = SupportView {
        cost,
        rows: &rows,
        cols: &cols,
    };
    let reduced = solve_transportation_general_with(&supply, &demand, &view, options)?;
    total += reduced.total_cost;
    for f in reduced.flows {
        let (Some(&from), Some(&to)) = (rows.get(f.from), cols.get(f.to)) else {
            return Err(TransportError::Internal("reduced flow outside the support"));
        };
        flows.push(Flow {
            from,
            to,
            mass: f.mass,
        });
    }
    Ok((total, flows))
}
