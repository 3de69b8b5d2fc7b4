//! The *seed* simplex implementation, preserved verbatim as a measurable
//! baseline and frozen oracle for the production solver in
//! [`crate::revised`].
//!
//! This is the straightforward `Vec<Vec<f64>>` tableau with a full
//! standard-form rebuild on every call. `SolveOptions { engine:
//! Engine::SeedBaseline, .. }` routes branch & bound through it so
//! benchmarks (and the committed `BENCH_solver.json`) can report an honest
//! before/after comparison, and the equivalence tests have an independent
//! reference. Do not optimize this module — its value is being the fixed
//! reference point.
#![allow(clippy::needless_range_loop)]

use crate::error::LpError;
use crate::problem::{ConstraintOp, Problem, Sense};

/// Numerical tolerances of the solver.
const PIVOT_TOL: f64 = 1e-9;
const COST_TOL: f64 = 1e-9;
const FEAS_TOL: f64 = 1e-7;

/// Result of solving one LP relaxation.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Values of the *original* problem variables, indexed by `VarId::index`.
    pub values: Vec<f64>,
    /// Objective value in the original sense (including the objective's constant term).
    pub objective: f64,
    /// Simplex iterations used (both phases).
    pub iterations: usize,
}

/// How an original variable was mapped into standard form.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lower + x_std[col]`
    Shifted { col: usize, lower: f64 },
    /// `x = upper - x_std[col]` (used when only the upper bound is finite)
    Mirrored { col: usize, upper: f64 },
    /// `x = x_std[pos] - x_std[neg]` (free variable)
    Split { pos: usize, neg: usize },
    /// `x = value` (fixed variable, `lower == upper`)
    Fixed { value: f64 },
}

struct StandardForm {
    /// Dense row-major constraint matrix, `rows x cols`.
    a: Vec<Vec<f64>>,
    /// Right-hand sides, all non-negative.
    b: Vec<f64>,
    /// Phase-2 objective coefficients per column (minimization).
    c: Vec<f64>,
    /// Column index at which artificial variables start.
    artificial_start: usize,
    cols: usize,
    var_map: Vec<VarMap>,
    /// Constant added to the (minimization) objective by shifts and the
    /// objective's own constant term.
    obj_constant: f64,
    /// `+1` when the original problem minimizes, `-1` when it maximizes.
    sense_factor: f64,
    /// Initial basic column per row (the slack for `<=` rows, the artificial
    /// otherwise), giving phase 1 a head start.
    basis_hint: Vec<usize>,
}

/// Solves the continuous relaxation of `problem` using the supplied bound
/// overrides (`lower[i]`, `upper[i]` replace the declared bounds of variable
/// `i`; semi-continuous variables are treated as continuous within those
/// bounds).
pub fn solve_relaxation(
    problem: &Problem,
    lower: &[f64],
    upper: &[f64],
    max_iterations: usize,
) -> Result<BaselineResult, LpError> {
    // Fast consistency check on the overrides (branching can make them cross).
    for i in 0..problem.num_vars() {
        if lower[i] > upper[i] + FEAS_TOL {
            return Err(LpError::Infeasible);
        }
    }

    let sf = build_standard_form(problem, lower, upper)?;
    let mut tableau = Tableau::new(&sf);
    let iterations = tableau.solve(max_iterations)?;
    let std_values = tableau.extract_values();

    // Map standard-form values back onto the original variables.
    let n = problem.num_vars();
    let mut values = vec![0.0; n];
    for (i, map) in sf.var_map.iter().enumerate() {
        values[i] = match *map {
            VarMap::Shifted { col, lower } => lower + std_values[col],
            VarMap::Mirrored { col, upper } => upper - std_values[col],
            VarMap::Split { pos, neg } => std_values[pos] - std_values[neg],
            VarMap::Fixed { value } => value,
        };
    }

    // Objective in the original sense.
    let min_obj = tableau.objective_value() + sf.obj_constant;
    let objective = min_obj * sf.sense_factor;

    Ok(BaselineResult {
        values,
        objective,
        iterations,
    })
}

fn build_standard_form(
    problem: &Problem,
    lower: &[f64],
    upper: &[f64],
) -> Result<StandardForm, LpError> {
    let sense_factor = match problem.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };

    let n = problem.num_vars();
    let mut var_map = Vec::with_capacity(n);
    let mut next_col = 0usize;
    // Extra `x' <= span` rows for doubly-bounded variables.
    let mut ub_rows: Vec<(usize, f64)> = Vec::new();

    for i in 0..n {
        let (lo, hi) = (lower[i], upper[i]);
        let map = if lo.is_finite() && hi.is_finite() && (hi - lo).abs() <= 1e-12 {
            VarMap::Fixed { value: lo }
        } else if lo.is_finite() {
            let col = next_col;
            next_col += 1;
            if hi.is_finite() {
                ub_rows.push((col, hi - lo));
            }
            VarMap::Shifted { col, lower: lo }
        } else if hi.is_finite() {
            let col = next_col;
            next_col += 1;
            VarMap::Mirrored { col, upper: hi }
        } else {
            let pos = next_col;
            let neg = next_col + 1;
            next_col += 2;
            VarMap::Split { pos, neg }
        };
        var_map.push(map);
    }

    let num_struct = next_col;

    // Assemble rows: user constraints first, then upper-bound rows.
    struct Row {
        coeffs: Vec<(usize, f64)>,
        op: ConstraintOp,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(problem.num_constraints() + ub_rows.len());

    for c in problem.constraints() {
        let mut rhs = c.rhs - c.expr.constant();
        let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(c.expr.len());
        for (var, coef) in c.expr.terms() {
            match var_map[var.index()] {
                VarMap::Shifted { col, lower } => {
                    rhs -= coef * lower;
                    push_coeff(&mut coeffs, col, coef);
                }
                VarMap::Mirrored { col, upper } => {
                    rhs -= coef * upper;
                    push_coeff(&mut coeffs, col, -coef);
                }
                VarMap::Split { pos, neg } => {
                    push_coeff(&mut coeffs, pos, coef);
                    push_coeff(&mut coeffs, neg, -coef);
                }
                VarMap::Fixed { value } => {
                    rhs -= coef * value;
                }
            }
        }
        rows.push(Row {
            coeffs,
            op: c.op,
            rhs,
        });
    }
    for &(col, span) in &ub_rows {
        rows.push(Row {
            coeffs: vec![(col, 1.0)],
            op: ConstraintOp::Le,
            rhs: span,
        });
    }

    // Objective (minimization form).
    let mut c_struct = vec![0.0; num_struct];
    let mut obj_constant = problem.objective().constant() * sense_factor;
    for (var, coef) in problem.objective().terms() {
        let coef = coef * sense_factor;
        match var_map[var.index()] {
            VarMap::Shifted { col, lower } => {
                obj_constant += coef * lower;
                c_struct[col] += coef;
            }
            VarMap::Mirrored { col, upper } => {
                obj_constant += coef * upper;
                c_struct[col] -= coef;
            }
            VarMap::Split { pos, neg } => {
                c_struct[pos] += coef;
                c_struct[neg] -= coef;
            }
            VarMap::Fixed { value } => {
                obj_constant += coef * value;
            }
        }
    }

    // After normalizing RHS signs, `Le` rows get a slack that can serve as the
    // initial basic variable; only `Ge`/`Eq` rows need an artificial column.
    let m = rows.len();
    let mut num_slack = 0usize;
    let mut num_artificial = 0usize;
    let mut effective_ops = Vec::with_capacity(m);
    for r in &rows {
        let flip = r.rhs < 0.0;
        let effective_op = match (r.op, flip) {
            (ConstraintOp::Le, false) | (ConstraintOp::Ge, true) => ConstraintOp::Le,
            (ConstraintOp::Ge, false) | (ConstraintOp::Le, true) => ConstraintOp::Ge,
            (ConstraintOp::Eq, _) => ConstraintOp::Eq,
        };
        match effective_op {
            ConstraintOp::Le => num_slack += 1,
            ConstraintOp::Ge => {
                num_slack += 1;
                num_artificial += 1;
            }
            ConstraintOp::Eq => num_artificial += 1,
        }
        effective_ops.push((flip, effective_op));
    }
    let artificial_start = num_struct + num_slack;
    let cols = artificial_start + num_artificial;

    let mut a = vec![vec![0.0; cols]; m];
    let mut b = vec![0.0; m];
    let mut c = vec![0.0; cols];
    c[..num_struct].copy_from_slice(&c_struct);
    let mut basis_hint = vec![0usize; m];

    let mut slack_cursor = num_struct;
    let mut artificial_cursor = artificial_start;
    for (ri, row) in rows.iter().enumerate() {
        let (flip, effective_op) = effective_ops[ri];
        b[ri] = if flip { -row.rhs } else { row.rhs };
        let sign = if flip { -1.0 } else { 1.0 };
        for &(col, coef) in &row.coeffs {
            a[ri][col] += sign * coef;
        }
        match effective_op {
            ConstraintOp::Le => {
                a[ri][slack_cursor] = 1.0;
                // The slack is a valid starting basic variable: no artificial needed.
                basis_hint[ri] = slack_cursor;
                slack_cursor += 1;
            }
            ConstraintOp::Ge => {
                a[ri][slack_cursor] = -1.0;
                slack_cursor += 1;
                a[ri][artificial_cursor] = 1.0;
                basis_hint[ri] = artificial_cursor;
                artificial_cursor += 1;
            }
            ConstraintOp::Eq => {
                a[ri][artificial_cursor] = 1.0;
                basis_hint[ri] = artificial_cursor;
                artificial_cursor += 1;
            }
        }
    }

    Ok(StandardForm {
        a,
        b,
        c,
        artificial_start,
        cols,
        var_map,
        obj_constant,
        sense_factor,
        basis_hint,
    })
}

fn push_coeff(coeffs: &mut Vec<(usize, f64)>, col: usize, coef: f64) {
    if let Some(entry) = coeffs.iter_mut().find(|(c, _)| *c == col) {
        entry.1 += coef;
    } else {
        coeffs.push((col, coef));
    }
}

/// Dense tableau with an explicit basis and an incrementally-maintained
/// reduced-cost row.
struct Tableau<'a> {
    sf: &'a StandardForm,
    /// `rows x (cols + 1)`; the last column is the current RHS.
    t: Vec<Vec<f64>>,
    /// Basic column for each row.
    basis: Vec<usize>,
    /// `is_basic[j]` mirrors membership of `j` in `basis`.
    is_basic: Vec<bool>,
    /// Reduced costs for the current phase's cost vector (`cols` entries).
    cost_row: Vec<f64>,
    /// Current phase-2 objective value (minimization, without constants).
    obj: f64,
}

impl<'a> Tableau<'a> {
    fn new(sf: &'a StandardForm) -> Tableau<'a> {
        let m = sf.a.len();
        let cols = sf.cols;
        let mut t = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut is_basic = vec![false; cols];
        for (ri, row) in sf.a.iter().enumerate() {
            let mut tr = Vec::with_capacity(cols + 1);
            tr.extend_from_slice(row);
            tr.push(sf.b[ri]);
            t.push(tr);
            basis.push(sf.basis_hint[ri]);
            is_basic[sf.basis_hint[ri]] = true;
        }
        Tableau {
            sf,
            t,
            basis,
            is_basic,
            cost_row: vec![0.0; cols],
            obj: 0.0,
        }
    }

    /// Rebuilds the reduced-cost row `d_j = c_j - c_B^T * column_j` for a new
    /// cost vector (done once per phase; pivots keep it up to date after that).
    fn reset_cost_row(&mut self, cost: &[f64]) {
        let cols = self.sf.cols;
        self.cost_row.copy_from_slice(&cost[..cols]);
        for (i, row) in self.t.iter().enumerate() {
            let cb = cost[self.basis[i]];
            if cb != 0.0 {
                for j in 0..cols {
                    self.cost_row[j] -= cb * row[j];
                }
            }
        }
    }

    /// Runs phase 1 and phase 2; returns total iteration count.
    fn solve(&mut self, max_iterations: usize) -> Result<usize, LpError> {
        let m = self.t.len();
        if m == 0 {
            // No constraints: the optimum is every variable at its lower bound
            // (all standard-form columns at zero) unless some column could
            // still improve the objective, in which case the LP is unbounded.
            if self.sf.c.iter().any(|&c| c < -COST_TOL) {
                return Err(LpError::Unbounded);
            }
            return Ok(0);
        }
        let cols = self.sf.cols;

        // ---- Phase 1: minimize the sum of artificial variables.
        let mut phase1_cost = vec![0.0; cols];
        for j in self.sf.artificial_start..cols {
            phase1_cost[j] = 1.0;
        }
        let it1 = self.optimize(&phase1_cost, max_iterations, true)?;
        let phase1_obj = self.objective_for(&phase1_cost);
        if phase1_obj > FEAS_TOL * (1.0 + self.sf.b.iter().fold(0.0f64, |a, &x| a.max(x.abs()))) {
            return Err(LpError::Infeasible);
        }
        // Drive any artificial variables still basic (at zero) out of the basis.
        self.expel_artificials();

        // ---- Phase 2: minimize the user objective.
        let cost = self.sf.c.clone();
        let it2 = self.optimize(&cost, max_iterations.saturating_sub(it1), false)?;
        self.obj = self.objective_for(&cost);
        Ok(it1 + it2)
    }

    /// Primal simplex iterations for the given cost vector.
    ///
    /// `allow_artificials` controls whether artificial columns may enter the
    /// basis (phase 1 only).
    fn optimize(
        &mut self,
        cost: &[f64],
        max_iterations: usize,
        allow_artificials: bool,
    ) -> Result<usize, LpError> {
        let m = self.t.len();
        let cols = self.sf.cols;
        let enterable_end = if allow_artificials {
            cols
        } else {
            self.sf.artificial_start
        };
        // Switch to Bland's rule after this many iterations to guarantee termination.
        let bland_threshold = 4 * (m + cols);

        self.reset_cost_row(cost);

        let mut iterations = 0usize;
        loop {
            if iterations >= max_iterations {
                return Err(LpError::IterationLimit { iterations });
            }
            // Entering column: most negative reduced cost (Dantzig) or first
            // negative (Bland, anti-cycling).
            let mut entering: Option<usize> = None;
            let mut best = -COST_TOL;
            let use_bland = iterations >= bland_threshold;
            for j in 0..enterable_end {
                if self.is_basic[j] {
                    continue;
                }
                let d = self.cost_row[j];
                if use_bland {
                    if d < -COST_TOL {
                        entering = Some(j);
                        break;
                    }
                } else if d < best {
                    best = d;
                    entering = Some(j);
                }
            }
            let Some(enter) = entering else {
                return Ok(iterations);
            };

            // Ratio test.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for (i, row) in self.t.iter().enumerate() {
                let a = row[enter];
                if a > PIVOT_TOL {
                    let ratio = row[cols] / a;
                    if ratio < best_ratio - 1e-12
                        || (ratio < best_ratio + 1e-12
                            && leave.is_some_and(|l| self.basis[i] < self.basis[l]))
                    {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(leave) = leave else {
                return Err(LpError::Unbounded);
            };

            self.pivot(leave, enter);
            iterations += 1;
        }
    }

    /// Gauss-Jordan pivot on `(row, col)`; also updates the reduced-cost row.
    fn pivot(&mut self, row: usize, col: usize) {
        let cols = self.sf.cols;
        let pivot = self.t[row][col];
        debug_assert!(pivot.abs() > PIVOT_TOL);
        let inv = 1.0 / pivot;
        for v in self.t[row].iter_mut() {
            *v *= inv;
        }
        let pivot_row = self.t[row].clone();
        for (i, r) in self.t.iter_mut().enumerate() {
            if i == row {
                continue;
            }
            let factor = r[col];
            if factor.abs() > 0.0 {
                for j in 0..=cols {
                    r[j] -= factor * pivot_row[j];
                }
                // Clean tiny numerical noise on the pivot column.
                r[col] = 0.0;
            }
        }
        let d = self.cost_row[col];
        if d != 0.0 {
            for j in 0..cols {
                self.cost_row[j] -= d * pivot_row[j];
            }
            self.cost_row[col] = 0.0;
        }
        self.is_basic[self.basis[row]] = false;
        self.is_basic[col] = true;
        self.basis[row] = col;
    }

    /// After phase 1, pivot basic artificials (value ≈ 0) out of the basis,
    /// or leave them if their row is entirely zero (redundant constraint).
    fn expel_artificials(&mut self) {
        let m = self.t.len();
        for i in 0..m {
            if self.basis[i] < self.sf.artificial_start {
                continue;
            }
            // Find any non-artificial column with a usable pivot in this row.
            let target = (0..self.sf.artificial_start)
                .find(|&j| self.t[i][j].abs() > 1e-7 && !self.is_basic[j]);
            if let Some(j) = target {
                self.pivot(i, j);
            }
        }
    }

    fn objective_for(&self, cost: &[f64]) -> f64 {
        let cols = self.sf.cols;
        self.t
            .iter()
            .enumerate()
            .map(|(i, row)| cost[self.basis[i]] * row[cols])
            .sum()
    }

    fn objective_value(&self) -> f64 {
        self.obj
    }

    /// Values of all standard-form columns (non-basic columns are zero).
    fn extract_values(&self) -> Vec<f64> {
        let cols = self.sf.cols;
        let mut values = vec![0.0; cols];
        for (i, &bj) in self.basis.iter().enumerate() {
            values[bj] = self.t[i][cols].max(0.0);
        }
        values
    }
}
