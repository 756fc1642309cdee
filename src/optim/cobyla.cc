#include "src/optim/cobyla.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/optim/linalg.h"

namespace faro {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Evaluation record for one simplex vertex: objective plus all constraint
// values (problem constraints first, then box-bound constraints).
struct Vertex {
  std::vector<double> x;
  double f = kInf;
  std::vector<double> c;
};

class CobylaSolver {
 public:
  CobylaSolver(const Problem& problem, std::span<const double> x0, const CobylaConfig& config)
      : problem_(problem), config_(config), n_(problem.dimension()) {
    // Box bounds become ordinary linear constraints so the interpolation
    // models capture them exactly.
    for (size_t j = 0; j < n_; ++j) {
      if (std::isfinite(problem_.lower()[j])) {
        bound_lo_.push_back(j);
      }
      if (std::isfinite(problem_.upper()[j])) {
        bound_hi_.push_back(j);
      }
    }
    m_ = problem_.num_constraints() + bound_lo_.size() + bound_hi_.size();
    start_.assign(x0.begin(), x0.end());
    lu_ = Matrix(n_, n_);
    grad_ = Matrix(n_, m_ + 1);
    model_.resize(m_ + 1);
    current_.resize(n_);
    best_.resize(n_);
    subgrad_.resize(n_);
  }

  OptimResult Solve();

 private:
  // The linear models at one step d from simplex_[0].
  struct ModelPoint {
    double objective;  // g.d
    double worst;      // min_i c_hat_i(d); +inf when m_ == 0 or all are NaN
    size_t active;     // first constraint attaining `worst`
  };

  void Evaluate(Vertex& v);
  double MaxViolationOf(const Vertex& v) const;
  double Merit(const Vertex& v) const { return v.f + mu_ * MaxViolationOf(v); }

  // Fits linear models around simplex_[0]; returns false when the simplex is
  // numerically degenerate.
  bool FitModels();

  // Evaluates every linear model at `step` in one pass over grad_.
  ModelPoint EvaluateModels(std::span<const double> step);
  double SubMerit(const ModelPoint& p) const {
    return p.objective + mu_ * std::max(0.0, -p.worst);
  }

  // Solves min g.d + mu * max(0, -min_i(c_i + a_i.d)) over ||d|| <= rho via
  // two-phase projected subgradient. Leaves the step in best_ and returns its
  // model merit, i.e. the merit the linear models predict for the step.
  double SolveSubproblem(double rho);

  // Replaces the vertex farthest from the best with a fresh point at distance
  // rho along the least-covered coordinate direction, restoring geometry.
  void GeometryStep(double rho);

  const Problem& problem_;
  CobylaConfig config_;
  size_t n_;
  size_t m_ = 0;
  std::vector<size_t> bound_lo_;
  std::vector<size_t> bound_hi_;
  std::vector<double> start_;

  std::vector<Vertex> simplex_;
  // Linear models around simplex_[0], transposed: column 0 of grad_ is the
  // objective gradient g and column 1 + i the gradient a_i of constraint i.
  Matrix grad_;  // n_ x (m_ + 1)
  double mu_ = 1.0;
  int evaluations_ = 0;
  size_t geometry_coordinate_ = 0;

  // Scratch, sized once per solve.
  Matrix lu_;  // factored simplex-difference matrix
  std::vector<size_t> pivots_;
  std::vector<double> model_;  // g.d, then a_i.d for every constraint
  std::vector<double> current_;
  std::vector<double> best_;
  std::vector<double> subgrad_;
  Vertex candidate_;
};

void CobylaSolver::Evaluate(Vertex& v) {
  // Reserve before Constraints sizes c to the problem constraints, so the
  // bound rows never reallocate.
  v.c.reserve(m_);
  v.f = problem_.Objective(v.x);
  problem_.Constraints(v.x, v.c);
  for (const size_t j : bound_lo_) {
    v.c.push_back(v.x[j] - problem_.lower()[j]);
  }
  for (const size_t j : bound_hi_) {
    v.c.push_back(problem_.upper()[j] - v.x[j]);
  }
  ++evaluations_;
}

double CobylaSolver::MaxViolationOf(const Vertex& v) const {
  double violation = 0.0;
  for (const double c : v.c) {
    violation = std::max(violation, -c);
  }
  return violation;
}

bool CobylaSolver::FitModels() {
  for (size_t j = 0; j < n_; ++j) {
    for (size_t k = 0; k < n_; ++k) {
      lu_(j, k) = simplex_[j + 1].x[k] - simplex_[0].x[k];
    }
  }
  if (!LuFactor(lu_, pivots_)) {
    return false;
  }
  // One right-hand side per model: the value differences along each edge.
  for (size_t j = 0; j < n_; ++j) {
    const Vertex& vertex = simplex_[j + 1];
    grad_(j, 0) = vertex.f - simplex_[0].f;
    for (size_t i = 0; i < m_; ++i) {
      grad_(j, i + 1) = vertex.c[i] - simplex_[0].c[i];
    }
  }
  LuSolveFactored(lu_, pivots_, grad_);
  return true;
}

CobylaSolver::ModelPoint CobylaSolver::EvaluateModels(std::span<const double> step) {
  MultiplyTransposed(grad_, step, model_);
  const std::vector<double>& base_c = simplex_[0].c;
  ModelPoint p{model_[0], kInf, 0};
  for (size_t i = 0; i < m_; ++i) {
    const double value = base_c[i] + model_[i + 1];
    if (value < p.worst) {
      p.worst = value;
      p.active = i;
    }
  }
  return p;
}

double CobylaSolver::SolveSubproblem(double rho) {
  auto project = [&](std::vector<double>& step) {
    const double norm = Norm2(step);
    if (norm > rho) {
      const double scale = rho / norm;
      for (double& s : step) {
        s *= scale;
      }
    }
  };

  std::ranges::fill(current_, 0.0);
  std::ranges::fill(best_, 0.0);
  // `at` always holds the models at current_: each iteration's subgradient
  // reuses the pass that scored the previous step.
  ModelPoint at = EvaluateModels(current_);
  double best_merit = SubMerit(at);

  // Phase 1: if the base point violates the linearised constraints, descend
  // pure violation first so phase 2 starts from a (model-)feasible region.
  if (at.worst < 0.0) {
    for (int it = 1; it <= 40; ++it) {
      if (at.worst >= 0.0) {
        break;
      }
      // Subgradient of -min_i c_hat_i: negative gradient of the active one.
      for (size_t k = 0; k < n_; ++k) {
        subgrad_[k] = -grad_(k, at.active + 1);
      }
      const double norm = Norm2(subgrad_);
      if (norm < 1e-14) {
        break;
      }
      const double step_len = rho / (2.0 * std::sqrt(static_cast<double>(it)));
      for (size_t k = 0; k < n_; ++k) {
        current_[k] -= step_len * subgrad_[k] / norm;
      }
      project(current_);
      at = EvaluateModels(current_);
      const double merit = SubMerit(at);
      if (merit < best_merit) {
        best_merit = merit;
        best_ = current_;
      }
    }
    current_ = best_;
    at = EvaluateModels(current_);
  }

  // Phase 2: projected subgradient on the merit model.
  const int iterations = 60 + static_cast<int>(10 * n_);
  for (int it = 1; it <= iterations; ++it) {
    // Subgradient of g.d + mu * max(0, -min_i c_hat_i).
    for (size_t k = 0; k < n_; ++k) {
      subgrad_[k] = grad_(k, 0);
    }
    if (at.worst < 0.0) {
      for (size_t k = 0; k < n_; ++k) {
        subgrad_[k] -= mu_ * grad_(k, at.active + 1);
      }
    }
    const double norm = Norm2(subgrad_);
    if (norm < 1e-14) {
      break;
    }
    const double step_len = rho / std::sqrt(static_cast<double>(it));
    for (size_t k = 0; k < n_; ++k) {
      current_[k] -= step_len * subgrad_[k] / norm;
    }
    project(current_);
    at = EvaluateModels(current_);
    const double merit = SubMerit(at);
    if (merit < best_merit) {
      best_merit = merit;
      best_ = current_;
    }
  }
  return best_merit;
}

void CobylaSolver::GeometryStep(double rho) {
  // Farthest vertex from the current best is the stalest model point.
  size_t farthest = 1;
  double max_dist = -1.0;
  for (size_t j = 1; j <= n_; ++j) {
    double dist = 0.0;
    for (size_t k = 0; k < n_; ++k) {
      const double delta = simplex_[j].x[k] - simplex_[0].x[k];
      dist += delta * delta;
    }
    if (dist > max_dist) {
      max_dist = dist;
      farthest = j;
    }
  }
  candidate_.x = simplex_[0].x;
  const size_t coord = geometry_coordinate_ % n_;
  geometry_coordinate_++;
  candidate_.x[coord] += rho;
  Evaluate(candidate_);
  std::swap(simplex_[farthest], candidate_);
}

OptimResult CobylaSolver::Solve() {
  double rho = config_.rho_begin;
  simplex_.resize(n_ + 1);
  simplex_[0].x = start_;
  Evaluate(simplex_[0]);
  for (size_t j = 0; j < n_; ++j) {
    simplex_[j + 1].x = start_;
    simplex_[j + 1].x[j] += rho;
    Evaluate(simplex_[j + 1]);
  }

  int stall_count = 0;
  bool converged = false;
  while (evaluations_ < config_.max_evaluations) {
    // Keep the best (lowest merit) vertex at index 0.
    size_t best = 0;
    for (size_t j = 1; j <= n_; ++j) {
      if (Merit(simplex_[j]) < Merit(simplex_[best])) {
        best = j;
      }
    }
    if (best != 0) {
      std::swap(simplex_[0], simplex_[best]);
    }

    // Vertices far outside the trust region poison the linear models.
    double max_dist = 0.0;
    for (size_t j = 1; j <= n_; ++j) {
      double dist = 0.0;
      for (size_t k = 0; k < n_; ++k) {
        const double delta = simplex_[j].x[k] - simplex_[0].x[k];
        dist += delta * delta;
      }
      max_dist = std::max(max_dist, std::sqrt(dist));
    }
    if (max_dist > 2.5 * rho || !FitModels()) {
      GeometryStep(rho);
      continue;
    }

    // Predicted merit reduction from the linear models.
    const double predicted_merit = SolveSubproblem(rho);
    const std::vector<double>& d = best_;
    const double step_norm = Norm2(d);

    const Vertex& base = simplex_[0];
    const double base_merit_excess = mu_ * MaxViolationOf(base);
    const double predicted_reduction = base_merit_excess - predicted_merit;

    if (step_norm < 0.1 * rho || predicted_reduction < 1e-12) {
      // Models say we are (locally) done at this resolution.
      if (rho <= config_.rho_end * 1.0001) {
        converged = true;
        break;
      }
      rho = std::max(0.5 * rho, config_.rho_end);
      continue;
    }

    candidate_.x = base.x;
    for (size_t k = 0; k < n_; ++k) {
      candidate_.x[k] += d[k];
    }
    Evaluate(candidate_);

    // Penalty-parameter update (before acceptance, so the candidate is judged
    // with the corrected weight): if the step trades feasibility for
    // objective, mu must outweigh the exchange rate or the merit function
    // would reward walking ever deeper into the infeasible region.
    const double candidate_violation = MaxViolationOf(candidate_);
    const double base_violation = MaxViolationOf(base);
    if (candidate_violation > base_violation + 1e-12) {
      const double objective_gain = base.f - candidate_.f;
      if (objective_gain > 0.0) {
        const double needed = 2.0 * objective_gain / (candidate_violation - base_violation);
        if (needed > mu_) {
          mu_ = std::min(needed, 1e9);
        }
      }
    }

    // Replace the worst vertex when the candidate improves on it.
    size_t worst = 1;
    for (size_t j = 2; j <= n_; ++j) {
      if (Merit(simplex_[j]) > Merit(simplex_[worst])) {
        worst = j;
      }
    }
    if (Merit(candidate_) < Merit(simplex_[worst])) {
      std::swap(simplex_[worst], candidate_);
      if (Merit(simplex_[worst]) < Merit(simplex_[0])) {
        stall_count = 0;
      }
    } else {
      ++stall_count;
      if (stall_count >= 3) {
        stall_count = 0;
        if (rho <= config_.rho_end * 1.0001) {
          converged = true;
          break;
        }
        rho = std::max(0.5 * rho, config_.rho_end);
      }
    }
  }

  // Report the best vertex, preferring feasibility.
  OptimResult result;
  result.evaluations = evaluations_;
  result.converged = converged;
  size_t best = 0;
  bool best_feasible = MaxViolationOf(simplex_[0]) <= 1e-6;
  for (size_t j = 1; j <= n_; ++j) {
    const bool feasible = MaxViolationOf(simplex_[j]) <= 1e-6;
    const bool better_class = feasible && !best_feasible;
    const bool same_class = feasible == best_feasible;
    const double key_j = feasible ? simplex_[j].f : Merit(simplex_[j]);
    const double key_b = best_feasible ? simplex_[best].f : Merit(simplex_[best]);
    if (better_class || (same_class && key_j < key_b)) {
      best = j;
      best_feasible = feasible;
    }
  }
  result.x = simplex_[best].x;
  result.value = simplex_[best].f;
  result.max_violation = MaxViolationOf(simplex_[best]);
  return result;
}

}  // namespace

OptimResult Cobyla(const Problem& problem, std::span<const double> x0,
                   const CobylaConfig& config) {
  CobylaSolver solver(problem, x0, config);
  return solver.Solve();
}

}  // namespace faro
