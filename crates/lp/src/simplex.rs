//! The standard-form rewrite shared by every node of a branch & bound
//! tree, plus the result types of one LP-relaxation solve.
//!
//! The revised engine ([`crate::revised`]) works on a *standard form*
//! rewrite of the user problem: every variable is shifted, mirrored or split
//! so that it is non-negative, and each constraint row receives a slack
//! and/or artificial column. Finite upper bounds stay *off* the matrix: the
//! engine carries them as implicit column bounds (a nonbasic-at-upper
//! status plus a bound-flip ratio test), so the row count equals the
//! constraint count.
//!
//! [`StandardFormSkeleton`] performs the expensive part of the rewrite
//! (variable classification, sparse row scatter layout, slack/artificial
//! column layout, objective mapping) *once per problem*. Branch & bound
//! nodes only move shifts, right-hand sides and column bounds, so the
//! column layout is stable across every node of one skeleton — which is
//! what makes a parent basis directly meaningful to its children.

use crate::error::LpError;
use crate::problem::{ConstraintOp, Problem, Sense, VarKind};

/// Numerical tolerances of the solver.
pub(crate) const PIVOT_TOL: f64 = 1e-9;
pub(crate) const COST_TOL: f64 = 1e-9;
pub(crate) const FEAS_TOL: f64 = 1e-7;
/// Minimum pivot magnitude accepted by the dual-repair ratio test. Stricter
/// than `PIVOT_TOL`: a reused factorization carries drift across nodes, and
/// a tiny dual pivot amplifies it by its reciprocal.
pub(crate) const DUAL_PIVOT_TOL: f64 = 1e-7;
/// Re-derived basic values above this magnitude mean the factorization has
/// degraded too far to trust; the solve falls back to a cold fill.
pub(crate) const REUSE_HEALTH_LIMIT: f64 = 1e10;
/// Cap on dual-simplex repair pivots before giving up on a warm start.
pub(crate) fn repair_pivot_cap(rows: usize, cols: usize) -> usize {
    4 * (rows + cols)
}

/// How a solve obtained its starting basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmStart {
    /// No basis hint was supplied (or no reusable factorization existed
    /// yet); the classic two-phase path ran.
    Cold,
    /// The previous optimal basis was reused (RHS re-derived, dual-simplex
    /// repaired if needed): phase 1 was skipped.
    Hit,
    /// A warm start was attempted but could not be completed; the solver
    /// fell back to the cold two-phase path.
    Miss,
}

/// Result of solving one LP relaxation.
#[derive(Debug, Clone)]
pub struct SimplexResult {
    /// Values of the *original* problem variables, indexed by `VarId::index`.
    pub values: Vec<f64>,
    /// Objective value in the original sense (including the objective's constant term).
    pub objective: f64,
    /// Simplex iterations used (both phases, plus warm-start repair pivots).
    pub iterations: usize,
    /// Final basis (basic column per row) — feed to the next
    /// [`crate::revised::solve_with_skeleton`] call as a warm-start hint.
    pub basis: Vec<usize>,
    /// Whether this solve warm-started from a parent basis.
    pub warm: WarmStart,
}

/// How an original variable was mapped into standard form.
///
/// The classification is decided once per skeleton from the *root* bounds
/// and stays fixed for every node solved against that skeleton.
#[derive(Debug, Clone, Copy)]
pub(crate) enum VarMap {
    /// `x = shift + x_std[col]`, `shift` = the node's lower bound.
    Shifted { col: usize },
    /// `x = shift - x_std[col]`, `shift` = the node's upper bound
    /// (used when only the upper bound is finite).
    Mirrored { col: usize },
    /// `x = x_std[pos] - x_std[neg]` (free variable).
    Split { pos: usize, neg: usize },
    /// `x = shift` (fixed variable, `lower == upper`).
    Fixed,
}

/// One user constraint in skeleton form: a precomputed scatter list over
/// standard-form columns plus the original terms for per-node RHS patching.
#[derive(Debug, Clone)]
pub(crate) struct SkelRow {
    /// `(standard column, signed coefficient)` — signs already account for
    /// mirroring/splitting; row flips for negative RHS are applied at fill
    /// time.
    pub(crate) scatter: Vec<(usize, f64)>,
    /// `(variable index, original coefficient)` — the per-node RHS is
    /// `base_rhs - Σ coef · shift[var]`.
    pub(crate) terms: Vec<(usize, f64)>,
    pub(crate) op: ConstraintOp,
    pub(crate) base_rhs: f64,
}

/// The once-per-problem part of the standard-form rewrite.
///
/// Building this walks every constraint expression exactly once; solving a
/// node against it only touches the engine's workspace.
#[derive(Debug, Clone)]
pub struct StandardFormSkeleton {
    pub(crate) var_map: Vec<VarMap>,
    /// Lower bounds the classification was derived from (fixed variables
    /// must stay at them; see [`StandardFormSkeleton::compatible`]).
    root_lower: Vec<f64>,
    pub(crate) rows: Vec<SkelRow>,
    pub(crate) num_struct: usize,
    /// Standard-form rows (one per constraint).
    pub(crate) m_total: usize,
    /// First artificial column; also `num_struct + m_total`.
    pub(crate) artificial_start: usize,
    /// Total standard-form columns (excluding the RHS).
    pub(crate) cols: usize,
    /// Phase-2 cost per column (minimization orientation), fixed per skeleton.
    pub(crate) c: Vec<f64>,
    /// `(variable index, sense-adjusted objective coefficient)` for the
    /// per-node objective constant `obj_base + Σ coef · shift[var]`.
    pub(crate) obj_terms: Vec<(usize, f64)>,
    pub(crate) obj_base: f64,
    /// `+1` when the original problem minimizes, `-1` when it maximizes.
    pub(crate) sense_factor: f64,
    /// `true` when every branchable (integer / semi-continuous) variable
    /// keeps a finite bound to shift or mirror against, i.e. any branch &
    /// bound bound override stays expressible against this skeleton.
    nodes_stable: bool,
}

/// The standard-form mapping the root bounds `(lo, hi)` give a variable,
/// before column numbers are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MapKind {
    Shifted,
    Mirrored,
    Split,
    Fixed,
}

fn classify(lo: f64, hi: f64) -> MapKind {
    if lo.is_finite() && hi.is_finite() && (hi - lo).abs() <= 1e-12 {
        MapKind::Fixed
    } else if lo.is_finite() {
        MapKind::Shifted
    } else if hi.is_finite() {
        MapKind::Mirrored
    } else {
        MapKind::Split
    }
}

impl VarMap {
    fn kind(&self) -> MapKind {
        match self {
            VarMap::Shifted { .. } => MapKind::Shifted,
            VarMap::Mirrored { .. } => MapKind::Mirrored,
            VarMap::Split { .. } => MapKind::Split,
            VarMap::Fixed => MapKind::Fixed,
        }
    }
}

fn sense_factor(problem: &Problem) -> f64 {
    match problem.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    }
}

impl StandardFormSkeleton {
    /// Builds the skeleton for `problem` with the given root bound vectors
    /// (typically the declared variable bounds).
    pub fn new(problem: &Problem, lower: &[f64], upper: &[f64]) -> Result<Self, LpError> {
        let n = problem.num_vars();
        let mut var_map = Vec::with_capacity(n);
        let mut next_col = 0usize;
        let mut nodes_stable = true;

        for (i, v) in problem.variables().iter().enumerate() {
            let (lo, hi) = (lower[i], upper[i]);
            if lo > hi + FEAS_TOL {
                return Err(LpError::Infeasible);
            }
            let kind = classify(lo, hi);
            if !matches!(v.kind, VarKind::Continuous)
                && matches!(kind, MapKind::Fixed | MapKind::Split)
            {
                // Branching could move a fixed variable off its point or
                // give a free one a bound; such nodes fall back.
                nodes_stable = false;
            }
            let map = match kind {
                MapKind::Fixed => VarMap::Fixed,
                MapKind::Shifted => VarMap::Shifted { col: next_col },
                MapKind::Mirrored => VarMap::Mirrored { col: next_col },
                MapKind::Split => VarMap::Split {
                    pos: next_col,
                    neg: next_col + 1,
                },
            };
            next_col += match kind {
                MapKind::Fixed => 0,
                MapKind::Shifted | MapKind::Mirrored => 1,
                MapKind::Split => 2,
            };
            var_map.push(map);
        }

        let num_struct = next_col;

        // Constraint rows: precompute the scatter list once.
        let mut rows = Vec::with_capacity(problem.num_constraints());
        for c in problem.constraints() {
            let mut scatter: Vec<(usize, f64)> = Vec::with_capacity(c.expr.len() + 1);
            let mut terms: Vec<(usize, f64)> = Vec::with_capacity(c.expr.len());
            for (var, coef) in c.expr.terms() {
                terms.push((var.index(), coef));
                match var_map[var.index()] {
                    VarMap::Shifted { col } => scatter.push((col, coef)),
                    VarMap::Mirrored { col } => scatter.push((col, -coef)),
                    VarMap::Split { pos, neg } => {
                        scatter.push((pos, coef));
                        scatter.push((neg, -coef));
                    }
                    VarMap::Fixed => {}
                }
            }
            rows.push(SkelRow {
                scatter,
                terms,
                op: c.op,
                base_rhs: c.rhs - c.expr.constant(),
            });
        }

        let m_total = rows.len();
        let artificial_start = num_struct + m_total;
        // Every row owns a slack and an artificial column. Unused columns
        // stay all-zero, which keeps the layout independent of per-node RHS
        // signs — the price of a few inert columns buys basis stability
        // across the whole branch & bound tree.
        let cols = artificial_start + m_total;

        let mut skeleton = Self {
            var_map,
            root_lower: lower.to_vec(),
            rows,
            num_struct,
            m_total,
            artificial_start,
            cols,
            c: vec![0.0; cols],
            obj_terms: Vec::with_capacity(problem.objective().len()),
            obj_base: 0.0,
            sense_factor: sense_factor(problem),
            nodes_stable,
        };
        skeleton.set_objective(problem);
        Ok(skeleton)
    }

    /// Maps the objective onto the standard-form columns (the
    /// classification decides the signs).
    fn set_objective(&mut self, problem: &Problem) {
        self.sense_factor = sense_factor(problem);
        self.c.iter_mut().for_each(|slot| *slot = 0.0);
        self.obj_terms.clear();
        for (var, coef) in problem.objective().terms() {
            let coef = coef * self.sense_factor;
            self.obj_terms.push((var.index(), coef));
            match self.var_map[var.index()] {
                VarMap::Shifted { col } => self.c[col] += coef,
                VarMap::Mirrored { col } => self.c[col] -= coef,
                VarMap::Split { pos, neg } => {
                    self.c[pos] += coef;
                    self.c[neg] -= coef;
                }
                VarMap::Fixed => {}
            }
        }
        self.obj_base = problem.objective().constant() * self.sense_factor;
    }

    /// `true` when branch & bound can solve every node of this problem
    /// against this skeleton (no branchable variable is fixed or free at
    /// the root).
    pub fn nodes_stable(&self) -> bool {
        self.nodes_stable
    }

    /// Re-targets this skeleton at `problem` under new root bounds without
    /// rebuilding, provided the standard-form layout is unchanged: the same
    /// per-variable classification and the same constraint scatter pattern
    /// (operators and coefficients, term for term). Only the parts a
    /// look-alike problem is allowed to vary — the per-row RHS, the
    /// objective, the sense and the stored root bounds — are refreshed in
    /// place, and the result is field-for-field what [`Self::new`] would
    /// build for `problem`.
    ///
    /// Returns `false` (leaving the skeleton untouched) on any structural
    /// mismatch; the caller should build a fresh skeleton instead. This is
    /// what lets a stream of admission solves share one set of allocations
    /// (see [`crate::branch_bound::SolveContext`]).
    pub fn rebind(&mut self, problem: &Problem, lower: &[f64], upper: &[f64]) -> bool {
        let n = problem.num_vars();
        if n != self.var_map.len()
            || lower.len() != n
            || upper.len() != n
            || problem.num_constraints() != self.rows.len()
        {
            return false;
        }
        // The classification each variable would get must match the
        // existing layout exactly. A bound change that alters the layout
        // (or makes the root infeasible) must take the rebuild path.
        let mut nodes_stable = true;
        for (i, v) in problem.variables().iter().enumerate() {
            let (lo, hi) = (lower[i], upper[i]);
            let kind = classify(lo, hi);
            if lo > hi + FEAS_TOL || kind != self.var_map[i].kind() {
                return false;
            }
            if !matches!(v.kind, VarKind::Continuous)
                && matches!(kind, MapKind::Fixed | MapKind::Split)
            {
                nodes_stable = false;
            }
        }
        // The constraint matrix must be identical term for term; only the
        // RHS may move.
        for (row, c) in self.rows.iter().zip(problem.constraints()) {
            if row.op != c.op || row.terms.len() != c.expr.len() {
                return false;
            }
            for (&(var, coef), (v2, c2)) in row.terms.iter().zip(c.expr.terms()) {
                if var != v2.index() || coef != c2 {
                    return false;
                }
            }
        }

        // Commit: refresh RHS, objective, sense and root bounds in place.
        self.nodes_stable = nodes_stable;
        for (row, c) in self.rows.iter_mut().zip(problem.constraints()) {
            row.base_rhs = c.rhs - c.expr.constant();
        }
        self.set_objective(problem);
        self.root_lower.clear();
        self.root_lower.extend_from_slice(lower);
        true
    }

    /// `true` when the given bound overrides are expressible against this
    /// skeleton's fixed layout: shifted variables keep a finite lower
    /// bound, mirrored ones a finite upper bound (the other side of either
    /// is an implicit column bound), free variables stay free and fixed
    /// ones stay at their root value.
    pub fn compatible(&self, lower: &[f64], upper: &[f64]) -> bool {
        if lower.len() != self.var_map.len() || upper.len() != self.var_map.len() {
            return false;
        }
        self.var_map.iter().enumerate().all(|(i, map)| match *map {
            VarMap::Shifted { .. } => lower[i].is_finite(),
            VarMap::Mirrored { .. } => upper[i].is_finite(),
            VarMap::Split { .. } => !lower[i].is_finite() && !upper[i].is_finite(),
            VarMap::Fixed => {
                (upper[i] - lower[i]).abs() <= 1e-12
                    && (lower[i] - self.root_lower[i]).abs() <= 1e-12
            }
        })
    }

    /// Number of standard-form rows (the length of basis vectors).
    pub fn num_rows(&self) -> usize {
        self.m_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::problem::{ConstraintOp, Problem, Sense};
    use crate::revised::{solve_relaxation, solve_with_skeleton, RevisedWorkspace};

    fn solve(p: &Problem) -> SimplexResult {
        let lower: Vec<f64> = p.variables().iter().map(|v| v.lower).collect();
        let upper: Vec<f64> = p.variables().iter().map(|v| v.upper).collect();
        solve_relaxation(p, &lower, &upper, 100_000).unwrap()
    }

    #[test]
    fn simple_minimization() {
        // min 2x + 3y  s.t. x + 2y >= 4, x + y <= 10, x,y >= 0  -> x=0, y=2, obj=6
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        p.set_objective([(x, 2.0), (y, 3.0)]);
        p.add_constraint("c1", [(x, 1.0), (y, 2.0)], ConstraintOp::Ge, 4.0);
        p.add_constraint("c2", [(x, 1.0), (y, 1.0)], ConstraintOp::Le, 10.0);
        let r = solve(&p);
        assert!(
            (r.objective - 6.0).abs() < 1e-6,
            "objective {}",
            r.objective
        );
        assert!((r.values[y.index()] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn simple_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> obj 36 at (2, 6)
        let mut p = Problem::new("t", Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        p.set_objective([(x, 3.0), (y, 5.0)]);
        p.add_constraint("c1", [(x, 1.0)], ConstraintOp::Le, 4.0);
        p.add_constraint("c2", [(y, 2.0)], ConstraintOp::Le, 12.0);
        p.add_constraint("c3", [(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let r = solve(&p);
        assert!((r.objective - 36.0).abs() < 1e-6);
        assert!((r.values[x.index()] - 2.0).abs() < 1e-6);
        assert!((r.values[y.index()] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_problem() {
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        p.set_objective([(x, 1.0)]);
        p.add_constraint("c1", [(x, 1.0)], ConstraintOp::Le, 1.0);
        p.add_constraint("c2", [(x, 1.0)], ConstraintOp::Ge, 2.0);
        let lower = vec![0.0];
        let upper = vec![f64::INFINITY];
        assert!(matches!(
            solve_relaxation(&p, &lower, &upper, 10_000),
            Err(LpError::Infeasible)
        ));
    }

    #[test]
    fn unbounded_problem() {
        let mut p = Problem::new("t", Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        p.set_objective([(x, 1.0)]);
        let lower = vec![0.0];
        let upper = vec![f64::INFINITY];
        assert!(matches!(
            solve_relaxation(&p, &lower, &upper, 10_000),
            Err(LpError::Unbounded)
        ));
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 5, x - y = 1 -> x=3, y=2
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        p.set_objective([(x, 1.0), (y, 1.0)]);
        p.add_constraint("sum", [(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 5.0);
        p.add_constraint("diff", [(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 1.0);
        let r = solve(&p);
        assert!((r.values[x.index()] - 3.0).abs() < 1e-6);
        assert!((r.values[y.index()] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn variable_upper_bounds_are_respected() {
        // max x + y with x <= 2 (bound), y <= 3 (bound), x + y <= 4
        let mut p = Problem::new("t", Sense::Maximize);
        let x = p.add_var("x", 0.0, 2.0);
        let y = p.add_var("y", 0.0, 3.0);
        p.set_objective([(x, 1.0), (y, 1.0)]);
        p.add_constraint("cap", [(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        let r = solve(&p);
        assert!((r.objective - 4.0).abs() < 1e-6);
        assert!(r.values[x.index()] <= 2.0 + 1e-9);
        assert!(r.values[y.index()] <= 3.0 + 1e-9);
    }

    #[test]
    fn nonzero_lower_bounds_shift_correctly() {
        // min x + y with x >= 2, y >= 3, x + y >= 7 -> obj 7
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", 2.0, f64::INFINITY);
        let y = p.add_var("y", 3.0, f64::INFINITY);
        p.set_objective([(x, 1.0), (y, 1.0)]);
        p.add_constraint("c", [(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 7.0);
        let r = solve(&p);
        assert!((r.objective - 7.0).abs() < 1e-6);
        assert!(r.values[x.index()] >= 2.0 - 1e-9);
        assert!(r.values[y.index()] >= 3.0 - 1e-9);
    }

    #[test]
    fn free_variables_can_go_negative() {
        // min x s.t. x >= -5 expressed via a constraint on a free variable.
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", f64::NEG_INFINITY, f64::INFINITY);
        p.set_objective([(x, 1.0)]);
        p.add_constraint("lb", [(x, 1.0)], ConstraintOp::Ge, -5.0);
        let r = solve(&p);
        assert!((r.objective + 5.0).abs() < 1e-6);
        assert!((r.values[x.index()] + 5.0).abs() < 1e-6);
    }

    #[test]
    fn mirrored_variable_only_upper_bound() {
        // max x with x <= 9 and no lower bound, but constraint x >= 1.
        let mut p = Problem::new("t", Sense::Maximize);
        let x = p.add_var("x", f64::NEG_INFINITY, 9.0);
        p.set_objective([(x, 1.0)]);
        p.add_constraint("lb", [(x, 1.0)], ConstraintOp::Ge, 1.0);
        let r = solve(&p);
        assert!((r.objective - 9.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_variable_is_substituted() {
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", 4.0, 4.0);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        p.set_objective([(x, 1.0), (y, 1.0)]);
        p.add_constraint("c", [(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 10.0);
        let r = solve(&p);
        assert!((r.values[x.index()] - 4.0).abs() < 1e-9);
        assert!((r.values[y.index()] - 6.0).abs() < 1e-6);
        assert!((r.objective - 10.0).abs() < 1e-6);
    }

    #[test]
    fn constant_in_constraint_expr_moves_to_rhs() {
        // (x + 1) <= 3  =>  x <= 2
        let mut p = Problem::new("t", Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        p.set_objective([(x, 1.0)]);
        let mut e = LinExpr::from(x);
        e.add_constant(1.0);
        p.add_constraint_expr("c", e, ConstraintOp::Le, 3.0);
        let r = solve(&p);
        assert!((r.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn objective_constant_is_reported() {
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        let mut obj = LinExpr::from(x);
        obj.add_constant(100.0);
        p.set_objective_expr(obj);
        p.add_constraint("c", [(x, 1.0)], ConstraintOp::Ge, 1.0);
        let r = solve(&p);
        assert!((r.objective - 101.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate LP; Bland fallback must prevent cycling.
        let mut p = Problem::new("t", Sense::Minimize);
        let x1 = p.add_var("x1", 0.0, f64::INFINITY);
        let x2 = p.add_var("x2", 0.0, f64::INFINITY);
        let x3 = p.add_var("x3", 0.0, f64::INFINITY);
        let x4 = p.add_var("x4", 0.0, f64::INFINITY);
        p.set_objective([(x1, -0.75), (x2, 150.0), (x3, -0.02), (x4, 6.0)]);
        p.add_constraint(
            "c1",
            [(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            ConstraintOp::Le,
            0.0,
        );
        p.add_constraint(
            "c2",
            [(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            ConstraintOp::Le,
            0.0,
        );
        p.add_constraint("c3", [(x3, 1.0)], ConstraintOp::Le, 1.0);
        let r = solve(&p);
        assert!(
            (r.objective + 0.05).abs() < 1e-6,
            "objective {}",
            r.objective
        );
    }

    #[test]
    fn redundant_equalities_are_handled() {
        // x + y = 2 stated twice; still solvable.
        let mut p = Problem::new("t", Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        p.set_objective([(x, 1.0), (y, 2.0)]);
        p.add_constraint("c1", [(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 2.0);
        p.add_constraint("c2", [(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 2.0);
        let r = solve(&p);
        assert!((r.objective - 2.0).abs() < 1e-6);
        assert!((r.values[x.index()] - 2.0).abs() < 1e-6);
    }

    // ----- skeleton / warm-start specific coverage -----

    /// A small knapsack-ish MIP whose branch nodes exercise column-bound
    /// changes.
    fn knapsack() -> (Problem, Vec<f64>, Vec<f64>) {
        let mut p = Problem::new("k", Sense::Maximize);
        let a = p.add_int_var("a", 0.0, 1.0);
        let b = p.add_int_var("b", 0.0, 1.0);
        let c = p.add_int_var("c", 0.0, 1.0);
        p.set_objective([(a, 8.0), (b, 11.0), (c, 6.0)]);
        p.add_constraint(
            "cap",
            [(a, 5.0), (b, 7.0), (c, 4.0)],
            ConstraintOp::Le,
            10.0,
        );
        let lower: Vec<f64> = p.variables().iter().map(|v| v.lower).collect();
        let upper: Vec<f64> = p.variables().iter().map(|v| v.upper).collect();
        (p, lower, upper)
    }

    #[test]
    fn skeleton_solve_matches_one_shot() {
        let (p, lower, upper) = knapsack();
        let sk = StandardFormSkeleton::new(&p, &lower, &upper).unwrap();
        assert!(sk.nodes_stable());
        let mut ws = RevisedWorkspace::default();
        let a = solve_with_skeleton(&sk, &mut ws, &lower, &upper, None, 10_000).unwrap();
        let b = solve_relaxation(&p, &lower, &upper, 10_000).unwrap();
        assert!((a.objective - b.objective).abs() < 1e-9);
        assert_eq!(a.warm, WarmStart::Cold);
    }

    #[test]
    fn warm_start_child_matches_cold_child() {
        let (p, lower, upper) = knapsack();
        let sk = StandardFormSkeleton::new(&p, &lower, &upper).unwrap();
        let mut ws = RevisedWorkspace::default();
        let root = solve_with_skeleton(&sk, &mut ws, &lower, &upper, None, 10_000).unwrap();

        // Branch b (index 1) down to 0 and up to 1, warm-starting each child.
        for (lo_b, hi_b) in [(0.0, 0.0), (1.0, 1.0)] {
            let mut lo = lower.clone();
            let mut hi = upper.clone();
            lo[1] = lo_b;
            hi[1] = hi_b;
            assert!(sk.compatible(&lo, &hi));
            let warm =
                solve_with_skeleton(&sk, &mut ws, &lo, &hi, Some(&root.basis), 10_000).unwrap();
            let cold = solve_with_skeleton(&sk, &mut ws, &lo, &hi, None, 10_000).unwrap();
            assert!(
                (warm.objective - cold.objective).abs() < 1e-7,
                "warm {} vs cold {} for b in [{lo_b}, {hi_b}]",
                warm.objective,
                cold.objective
            );
            assert_ne!(warm.warm, WarmStart::Cold);
        }
    }

    #[test]
    fn infinite_upper_bound_is_an_implicit_column_bound() {
        // Integer variable with no upper bound: no row is allocated for it,
        // and a child tightening the upper bound is a column-bound change.
        let mut p = Problem::new("inf-upper", Sense::Minimize);
        let x = p.add_int_var("x", 0.0, f64::INFINITY);
        p.set_objective([(x, 1.0)]);
        p.add_constraint("lb", [(x, 1.0)], ConstraintOp::Ge, 3.0);
        let lower = vec![0.0];
        let upper = vec![f64::INFINITY];
        let sk = StandardFormSkeleton::new(&p, &lower, &upper).unwrap();
        assert_eq!(sk.num_rows(), 1, "constraint row only");
        let mut ws = RevisedWorkspace::default();
        let r = solve_with_skeleton(&sk, &mut ws, &lower, &upper, None, 10_000).unwrap();
        assert!((r.objective - 3.0).abs() < 1e-6);
        assert!(sk.compatible(&lower, &[5.0]));
        let r2 = solve_with_skeleton(&sk, &mut ws, &lower, &[5.0], Some(&r.basis), 10_000).unwrap();
        assert!((r2.objective - 3.0).abs() < 1e-6);
        // Tightening the lower bound past the optimum moves it.
        let r3 =
            solve_with_skeleton(&sk, &mut ws, &[4.0], &upper, Some(&r2.basis), 10_000).unwrap();
        assert!((r3.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    fn incompatible_bounds_are_detected() {
        let (p, lower, upper) = knapsack();
        let sk = StandardFormSkeleton::new(&p, &lower, &upper).unwrap();
        // An infinite lower bound changes the classification of variable 0.
        let mut lo = lower.clone();
        lo[0] = f64::NEG_INFINITY;
        assert!(!sk.compatible(&lo, &upper));
        assert!(sk.compatible(&lower, &upper));
        // Any finite upper bound (or none) is an implicit column bound.
        let mut hi = upper.clone();
        hi[1] = f64::INFINITY;
        assert!(sk.compatible(&lower, &hi));
    }

    #[test]
    fn workspace_shared_across_skeletons_with_equal_cols_stays_correct() {
        // Skeleton A: two free variables (4 split columns) in one `>=` row,
        // 6 columns in all; skeleton B: one free variable in two rows, also
        // 6 columns, but with a different `artificial_start`. A stale
        // phase-1 cost vector (cached on length alone) would let B's
        // infeasibility go undetected.
        let mut a = Problem::new("a", Sense::Minimize);
        let x = a.add_var("x", f64::NEG_INFINITY, f64::INFINITY);
        let y = a.add_var("y", f64::NEG_INFINITY, f64::INFINITY);
        a.set_objective([(x, 1.0), (y, 0.0)]);
        a.add_constraint("lo", [(x, 1.0)], ConstraintOp::Ge, 1.0);
        let (la, ua) = (vec![f64::NEG_INFINITY; 2], vec![f64::INFINITY; 2]);
        let sk_a = StandardFormSkeleton::new(&a, &la, &ua).unwrap();

        let mut b = Problem::new("b", Sense::Minimize);
        let z = b.add_var("z", f64::NEG_INFINITY, f64::INFINITY);
        b.set_objective([(z, 1.0)]);
        b.add_constraint("e1", [(z, 1.0)], ConstraintOp::Eq, 5.0);
        b.add_constraint("e2", [(z, 1.0)], ConstraintOp::Eq, 3.0);
        let (lb, ub) = (vec![f64::NEG_INFINITY], vec![f64::INFINITY]);
        let sk_b = StandardFormSkeleton::new(&b, &lb, &ub).unwrap();

        let mut ws = RevisedWorkspace::default();
        let ra = solve_with_skeleton(&sk_a, &mut ws, &la, &ua, None, 1_000).unwrap();
        assert!((ra.objective - 1.0).abs() < 1e-6);
        // Contradictory equalities: must be infeasible even though the
        // workspace was just used for a different skeleton.
        let rb = solve_with_skeleton(&sk_b, &mut ws, &lb, &ub, None, 1_000);
        assert!(matches!(rb, Err(LpError::Infeasible)), "{rb:?}");
    }

    #[test]
    fn workspace_is_reusable_across_many_solves() {
        let (p, lower, upper) = knapsack();
        let sk = StandardFormSkeleton::new(&p, &lower, &upper).unwrap();
        let mut ws = RevisedWorkspace::default();
        let reference = solve_with_skeleton(&sk, &mut ws, &lower, &upper, None, 10_000)
            .unwrap()
            .objective;
        for _ in 0..50 {
            let r = solve_with_skeleton(&sk, &mut ws, &lower, &upper, None, 10_000).unwrap();
            assert!((r.objective - reference).abs() < 1e-9);
        }
    }
}
