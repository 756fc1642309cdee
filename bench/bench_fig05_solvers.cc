// Figure 5: precise vs relaxed solvers. Solving the precise (step-utility,
// hard M/D/c) formulation is either fast-but-stuck-on-plateaus (local
// solvers) or slow (Differential Evolution); after Faro's relaxation all
// solvers find near-optimal allocations quickly.
//
// Snapshot: 10 jobs (standard mix at a busy minute), 40 total replicas.
// Quality is reported as the *step-utility* cluster objective achieved by the
// rounded solution, so precise and relaxed runs are directly comparable.

#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/objectives.h"
#include "src/optim/auglag.h"
#include "src/optim/cobyla.h"
#include "src/optim/de.h"
#include "src/optim/multistart.h"
#include "src/sim/harness.h"

namespace faro {
namespace {

std::vector<JobContext> SnapshotContexts(const PreparedWorkload& workload) {
  std::vector<JobContext> contexts;
  // The busiest minute of the eval day (total arrivals).
  size_t best_t = 0;
  double best_total = 0.0;
  const size_t minutes = workload.jobs[0].arrival_rate_per_min.size();
  for (size_t t = 0; t + 7 < minutes; ++t) {
    double total = 0.0;
    for (const SimJobConfig& job : workload.jobs) {
      total += job.arrival_rate_per_min[t];
    }
    if (total > best_total) {
      best_total = total;
      best_t = t;
    }
  }
  for (const SimJobConfig& job : workload.jobs) {
    JobContext context;
    context.spec = job.spec;
    for (size_t k = 0; k < 7; ++k) {
      context.predicted_load.push_back(job.arrival_rate_per_min[best_t + k] / 60.0);
    }
    contexts.push_back(std::move(context));
  }
  return contexts;
}

double StepObjective(const ClusterObjective& precise, std::span<const double> x) {
  // Round to integers >= 1 before scoring: allocations are integral.
  std::vector<double> rounded(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    rounded[i] = std::max(1.0, std::round(x[i]));
  }
  return precise.Evaluate(rounded);
}

void Run(BenchJson& json) {
  PrintHeader("Figure 5: precise vs relaxed solvers (10 jobs, 40 total replicas)");
  ExperimentSetup setup;
  const PreparedWorkload workload = PrepareWorkload(setup);
  const std::vector<JobContext> contexts = SnapshotContexts(workload);
  const ClusterResources resources{40.0, 40.0};

  ClusterObjectiveConfig precise_config;
  precise_config.kind = ObjectiveKind::kSum;
  precise_config.relaxed = false;
  precise_config.latency_model = LatencyModelKind::kMdcPrecise;
  precise_config.max_replicas_per_job = 40.0;
  ClusterObjective precise(contexts, resources, precise_config);

  ClusterObjectiveConfig relaxed_config = precise_config;
  relaxed_config.relaxed = true;
  relaxed_config.latency_model = LatencyModelKind::kMdcRelaxed;
  ClusterObjective relaxed(contexts, resources, relaxed_config);

  std::printf("%-26s %-10s %-14s %-22s\n", "solver x formulation", "time (s)",
              "evaluations", "achieved step utility");
  for (const bool use_relaxed : {false, true}) {
    const ClusterObjective& objective = use_relaxed ? relaxed : precise;
    Problem problem = objective.BuildProblem();
    // Fair-share warm start: the state a running cluster would solve from.
    const std::vector<double> x0(contexts.size(), 40.0 / contexts.size());

    for (const char* solver : {"COBYLA", "AugLag(SLSQP)", "DiffEvolution", "MultiStart"}) {
      const auto start = std::chrono::steady_clock::now();
      OptimResult result;
      MultiStartResult ms;
      if (std::string(solver) == "COBYLA") {
        CobylaConfig config;
        config.rho_begin = 2.0;
        config.rho_end = 1e-4;
        config.max_evaluations = 8000;
        result = Cobyla(problem, x0, config);
      } else if (std::string(solver) == "AugLag(SLSQP)") {
        AugLagConfig config;
        result = AugmentedLagrangian(problem, x0, config);
      } else if (std::string(solver) == "DiffEvolution") {
        DeConfig config;
        config.generations = FastBench() ? 150 : 600;
        config.population = 100;
        result = DifferentialEvolution(problem, config);
      } else {
        // The Stage-2 production driver: COBYLA from 1 warm start + 4
        // jittered scouts under BAI racing (auto probe budget), early exit
        // off so every start competes on quality.
        MultiStartConfig config;
        config.cobyla.rho_begin = 2.0;
        config.cobyla.rho_end = 1e-4;
        config.cobyla.max_evaluations = 8000;
        config.early_exit = false;
        config.seed = 7;
        std::vector<StartPoint> starts;
        starts.push_back({x0, StartKind::kWarmCurrent});
        ms = MultiStartSolve(problem, starts, 4, config);
        result = ms.best;
        result.evaluations = static_cast<int>(ms.evaluations);
      }
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      std::printf("%-12s %-13s %-10.3f %-14d %-22.3f\n", solver,
                  use_relaxed ? "relaxed" : "precise", elapsed, result.evaluations,
                  StepObjective(precise, result.x));
      if (std::string(solver) == "MultiStart") {
        const std::string prefix = use_relaxed ? "relaxed" : "precise";
        json.Set(prefix + "_bai_utility", StepObjective(precise, result.x));
        json.Set(prefix + "_bai_evals", static_cast<double>(ms.evaluations));
        json.Set(prefix + "_bai_solve_s", elapsed);
      }
    }
  }
  std::printf("\n(max possible step utility = 10; the relaxed column should be near it\n"
              " for every solver, the precise column only for DiffEvolution, slowly)\n");
}

}  // namespace
}  // namespace faro

int main(int argc, char** argv) {
  faro::BenchObs obs(argc, argv);
  faro::Run(obs.json());
  return 0;
}
