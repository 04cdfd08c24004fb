//! Projected-gradient QCLP solver.

use crate::{project_box, project_halfspace, project_l2_ball};

/// One instance of the fairness-aware re-weighting QCLP (Eq. 13).
#[derive(Debug, Clone)]
pub struct QclpProblem {
    /// Linear objective coefficients `a_v = I_fbias(w_v)`.
    pub bias_influence: Vec<f64>,
    /// Utility-constraint coefficients `b_v = I_futil(w_v)`.
    pub util_influence: Vec<f64>,
    /// Re-weighting budget multiplier α (`Σ w² ≤ α |V_l|`).
    pub alpha: f64,
    /// Utility-cost multiplier β (`Σ w_v b_v ≤ β Σ b_v⁺`).
    pub beta: f64,
}

/// Solver output.
#[derive(Debug, Clone)]
pub struct QclpSolution {
    /// The optimal weights `w` (one per labelled node, in `[-1, 1]`).
    pub weights: Vec<f64>,
    /// Objective value `Σ w_v a_v` at the solution.
    pub objective: f64,
    /// Number of projected-gradient iterations performed.
    pub iterations: usize,
}

/// The constraint right-hand sides of one [`QclpProblem`]
/// (see [`QclpProblem::ball_radius_sq`] and [`QclpProblem::util_budget`]),
/// computed once per solve instead of once per feasibility check.
struct Bounds {
    radius_sq: f64,
    util_budget: f64,
}

impl Bounds {
    /// [`QclpProblem::is_feasible`] against these precomputed bounds.
    fn is_feasible(&self, problem: &QclpProblem, w: &[f64], tol: f64) -> bool {
        if w.len() != problem.len() {
            return false;
        }
        let norm_sq: f64 = w.iter().map(|v| v * v).sum();
        if norm_sq > self.radius_sq + tol {
            return false;
        }
        let util: f64 = w
            .iter()
            .zip(&problem.util_influence)
            .map(|(&x, &b)| x * b)
            .sum();
        if util > self.util_budget + tol {
            return false;
        }
        w.iter().all(|&v| (-1.0 - tol..=1.0 + tol).contains(&v))
    }
}

/// Solver hyper-parameters.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Maximum projected-gradient iterations.
    pub max_iters: usize,
    /// Initial step size (scaled by the objective norm internally).
    pub step: f64,
    /// Convergence tolerance on the weight update norm.
    pub tol: f64,
    /// Inner cyclic-projection sweeps per iteration.
    pub projection_sweeps: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            max_iters: 2000,
            step: 0.05,
            tol: 1e-9,
            projection_sweeps: 8,
        }
    }
}

impl QclpProblem {
    /// Number of decision variables.
    pub fn len(&self) -> usize {
        self.bias_influence.len()
    }

    /// True when the problem has no variables.
    pub fn is_empty(&self) -> bool {
        self.bias_influence.is_empty()
    }

    /// Right-hand side of the utility constraint: `β Σ_v max(b_v, 0)`.
    pub fn util_budget(&self) -> f64 {
        self.beta
            * self
                .util_influence
                .iter()
                .filter(|&&b| b > 0.0)
                .sum::<f64>()
    }

    /// Squared radius of the re-weighting ball: `α |V_l|`.
    pub fn ball_radius_sq(&self) -> f64 {
        self.alpha * self.len() as f64
    }

    /// True when `w` satisfies every constraint within tolerance `tol`.
    pub fn is_feasible(&self, w: &[f64], tol: f64) -> bool {
        self.bounds().is_feasible(self, w, tol)
    }

    /// The right-hand sides of the ball and utility constraints, which stay
    /// fixed for a whole solve.
    fn bounds(&self) -> Bounds {
        Bounds {
            radius_sq: self.ball_radius_sq(),
            util_budget: self.util_budget(),
        }
    }

    /// Objective value `Σ w_v a_v`.
    pub fn objective(&self, w: &[f64]) -> f64 {
        w.iter()
            .zip(&self.bias_influence)
            .map(|(&x, &a)| x * a)
            .sum()
    }

    fn project(&self, bounds: &Bounds, w: &mut [f64], sweeps: usize) {
        // Cyclic projections converge to a point of the intersection; keep
        // sweeping until the iterate is feasible (tight tolerance) so the
        // returned weights always satisfy every constraint of Eq. (13).
        let max_sweeps = sweeps.max(1) * 50;
        let mut sweep = 0;
        let mut feasible = loop {
            project_box(w, -1.0, 1.0);
            project_l2_ball(w, bounds.radius_sq);
            project_halfspace(w, &self.util_influence, bounds.util_budget);
            let feasible = bounds.is_feasible(self, w, 1e-9);
            if feasible || sweep >= max_sweeps {
                break feasible;
            }
            sweep += 1;
        };
        // Guaranteed repair: the all-zero point is strictly feasible, so
        // shrinking towards it always restores feasibility if the cyclic
        // projections stopped short.
        while !feasible {
            for v in w.iter_mut() {
                *v *= 0.97;
            }
            feasible = bounds.is_feasible(self, w, 1e-9);
        }
        // Hard clamp: feasibility above allows a 1e-9 slack, but downstream
        // loss weights require w strictly inside [-1, 1].  Clamping can only
        // shrink magnitudes, so the ball stays satisfied and any half-space
        // movement is bounded by the same 1e-9 slack.
        project_box(w, -1.0, 1.0);
    }
}

/// Solves the QCLP with projected gradient descent from the all-zero start
/// (the paper's "no re-weighting" point, which is always feasible).
pub fn solve(problem: &QclpProblem, options: &SolverOptions) -> QclpSolution {
    assert_eq!(
        problem.bias_influence.len(),
        problem.util_influence.len(),
        "bias and utility influence vectors must align"
    );
    assert!(
        problem.alpha >= 0.0 && problem.beta >= 0.0,
        "alpha and beta must be non-negative"
    );
    let n = problem.len();
    if n == 0 {
        return QclpSolution {
            weights: Vec::new(),
            objective: 0.0,
            iterations: 0,
        };
    }
    // Scale the step by the objective magnitude so convergence speed does not
    // depend on the (tiny) scale of influence values.
    let obj_norm = problem
        .bias_influence
        .iter()
        .map(|v| v * v)
        .sum::<f64>()
        .sqrt()
        .max(1e-12);
    let step = options.step * (n as f64).sqrt() / obj_norm;

    let bounds = problem.bounds();
    let mut w = vec![0.0; n];
    let mut next = vec![0.0; n];
    let mut iterations = 0;
    for it in 0..options.max_iters {
        iterations = it + 1;
        next.copy_from_slice(&w);
        for (x, &a) in next.iter_mut().zip(&problem.bias_influence) {
            *x -= step * a;
        }
        problem.project(&bounds, &mut next, options.projection_sweeps);
        let delta: f64 = next
            .iter()
            .zip(&w)
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        std::mem::swap(&mut w, &mut next);
        if delta < options.tol {
            break;
        }
    }
    let objective = problem.objective(&w);
    QclpSolution {
        weights: w,
        objective,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_solve(problem: &QclpProblem) -> QclpSolution {
        solve(problem, &SolverOptions::default())
    }

    #[test]
    fn unconstrained_by_utility_reaches_the_box_and_ball_boundary() {
        // Objective pushes w_0 to -1 and w_1 to +1; the utility constraint is
        // inactive (b = 0), α = 1 so the ball allows the full box corner.
        let problem = QclpProblem {
            bias_influence: vec![1.0, -1.0],
            util_influence: vec![0.0, 0.0],
            alpha: 1.0,
            beta: 0.1,
        };
        let sol = default_solve(&problem);
        assert!(problem.is_feasible(&sol.weights, 1e-6));
        assert!(
            (sol.weights[0] + 1.0).abs() < 1e-3,
            "w0 should reach -1, got {}",
            sol.weights[0]
        );
        assert!(
            (sol.weights[1] - 1.0).abs() < 1e-3,
            "w1 should reach +1, got {}",
            sol.weights[1]
        );
        assert!((sol.objective + 2.0).abs() < 1e-2);
    }

    #[test]
    fn ball_constraint_limits_the_norm() {
        // α = 0.125 over 2 variables ⇒ ‖w‖² ≤ 0.25 ⇒ ‖w‖ ≤ 0.5.
        let problem = QclpProblem {
            bias_influence: vec![1.0, 1.0],
            util_influence: vec![0.0, 0.0],
            alpha: 0.125,
            beta: 0.1,
        };
        let sol = default_solve(&problem);
        let norm: f64 = sol.weights.iter().map(|v| v * v).sum::<f64>();
        assert!(norm <= 0.25 + 1e-6, "ball violated: ‖w‖² = {norm}");
        // Optimum of a symmetric linear objective on a ball is the scaled
        // negative gradient direction: w = (-0.3535.., -0.3535..).
        assert!((sol.weights[0] - sol.weights[1]).abs() < 1e-3);
        assert!((sol.weights[0] + (0.125_f64).sqrt()).abs() < 1e-2);
    }

    #[test]
    fn utility_constraint_is_respected() {
        // Objective wants w = (-1, -1); utility coefficients make that point
        // infeasible: b = (-1, -1), budget = β·0 = 0, so Σ w_v b_v ≤ 0 means
        // w_0 + w_1 ≥ 0.
        let problem = QclpProblem {
            bias_influence: vec![1.0, 1.0],
            util_influence: vec![-1.0, -1.0],
            alpha: 1.0,
            beta: 0.1,
        };
        let sol = default_solve(&problem);
        assert!(problem.is_feasible(&sol.weights, 1e-6));
        let util: f64 = sol
            .weights
            .iter()
            .zip(&problem.util_influence)
            .map(|(&w, &b)| w * b)
            .sum();
        assert!(util <= 1e-6, "utility constraint violated: {util}");
    }

    #[test]
    fn zero_objective_keeps_zero_weights() {
        let problem = QclpProblem {
            bias_influence: vec![0.0; 5],
            util_influence: vec![1.0; 5],
            alpha: 0.9,
            beta: 0.1,
        };
        let sol = default_solve(&problem);
        assert!(sol.weights.iter().all(|&w| w.abs() < 1e-9));
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn empty_problem_returns_empty_solution() {
        let problem = QclpProblem {
            bias_influence: vec![],
            util_influence: vec![],
            alpha: 0.9,
            beta: 0.1,
        };
        let sol = default_solve(&problem);
        assert!(sol.weights.is_empty());
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn solution_improves_over_the_zero_start() {
        // Random-ish mixed problem: objective at the solution must be no
        // larger than at the all-zero start (which is always feasible).
        let problem = QclpProblem {
            bias_influence: vec![0.3, -0.7, 0.2, 0.9, -0.1],
            util_influence: vec![0.5, 0.1, -0.4, 0.2, 0.3],
            alpha: 0.9,
            beta: 0.1,
        };
        let sol = default_solve(&problem);
        assert!(problem.is_feasible(&sol.weights, 1e-6));
        assert!(
            sol.objective <= 1e-9,
            "objective {} should not exceed the feasible start 0",
            sol.objective
        );
    }
}
