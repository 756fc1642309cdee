#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/objectives.h"
#include "src/optim/cobyla.h"
#include "src/queueing/mdc.h"

namespace faro {
namespace {

JobContext MakeJob(const std::string& name, double lambda, double p = 0.180,
                   double slo = 0.720, double priority = 1.0) {
  JobContext job;
  job.spec.name = name;
  job.spec.slo = slo;
  job.spec.processing_time = p;
  job.spec.priority = priority;
  job.predicted_load = {lambda};
  return job;
}

ClusterObjective MakeObjective(std::vector<JobContext> jobs, double capacity,
                               ObjectiveKind kind = ObjectiveKind::kSum,
                               bool relaxed = true) {
  ClusterObjectiveConfig config;
  config.kind = kind;
  config.relaxed = relaxed;
  if (!relaxed) {
    config.latency_model = LatencyModelKind::kMdcPrecise;
  }
  return ClusterObjective(std::move(jobs), ClusterResources{capacity, capacity},
                          std::move(config));
}

TEST(ObjectiveKindTest, NamesAndDropFlags) {
  EXPECT_EQ(ObjectiveKindName(ObjectiveKind::kSum), "Faro-Sum");
  EXPECT_EQ(ObjectiveKindName(ObjectiveKind::kPenaltyFairSum), "Faro-PenaltyFairSum");
  EXPECT_FALSE(UsesDropRates(ObjectiveKind::kSum));
  EXPECT_FALSE(UsesDropRates(ObjectiveKind::kFair));
  EXPECT_FALSE(UsesDropRates(ObjectiveKind::kFairSum));
  EXPECT_TRUE(UsesDropRates(ObjectiveKind::kPenaltySum));
  EXPECT_TRUE(UsesDropRates(ObjectiveKind::kPenaltyFairSum));
}

TEST(ClusterObjectiveTest, JobUtilityIncreasesWithReplicas) {
  auto objective = MakeObjective({MakeJob("a", 40.0)}, 32.0);
  double previous = 0.0;
  for (double x = 1.0; x <= 16.0; x += 1.0) {
    const double u = objective.JobUtility(0, x);
    EXPECT_GE(u, previous - 1e-12) << "x=" << x;
    previous = u;
  }
  EXPECT_NEAR(previous, 1.0, 1e-9);  // plenty of replicas -> full utility
}

TEST(ClusterObjectiveTest, UtilityAveragedOverWindow) {
  // Two steps: one trivially satisfiable, one impossible at x = 1.
  JobContext job = MakeJob("a", 0.0);
  job.predicted_load = {0.1, 500.0};
  auto objective = MakeObjective({std::move(job)}, 32.0);
  const double u = objective.JobUtility(0, 1.0);
  EXPECT_GT(u, 0.4);  // the easy step contributes ~1/2
  EXPECT_LT(u, 0.6);
}

TEST(ClusterObjectiveTest, DropsReduceLoadAndTriggerPenalty) {
  auto objective =
      MakeObjective({MakeJob("a", 40.0)}, 32.0, ObjectiveKind::kPenaltySum);
  // At 1 replica and lambda=40, utility is tiny; dropping 90% of load makes
  // the remaining 4 req/s easily served, but the penalty multiplier crushes
  // effective utility to zero.
  const double u_nodrop = objective.JobUtility(0, 1.0, 0.0);
  const double u_drop = objective.JobUtility(0, 1.0, 0.9);
  EXPECT_GT(u_drop, u_nodrop);
  // The relaxed penalty multiplier at 10% availability is tiny but nonzero
  // (the plateau-free ramp); effective utility is crushed to near zero.
  EXPECT_LT(objective.JobEffectiveUtility(0, 1.0, 0.9), 0.01);
}

TEST(ClusterObjectiveTest, SumObjectiveIsPrioritySum) {
  auto objective = MakeObjective(
      {MakeJob("a", 1.0, 0.18, 0.72, 2.0), MakeJob("b", 1.0, 0.18, 0.72, 1.0)}, 32.0);
  // Both jobs trivially satisfied at 8 replicas each -> utilities 1.
  const std::vector<double> v{8.0, 8.0};
  EXPECT_NEAR(objective.Evaluate(v), 3.0, 1e-9);
}

TEST(ClusterObjectiveTest, FairObjectiveIsNegativeSpread) {
  auto objective =
      MakeObjective({MakeJob("a", 40.0), MakeJob("b", 40.0)}, 64.0, ObjectiveKind::kFair);
  // Equal allocations -> equal utilities -> spread 0.
  const std::vector<double> equal{8.0, 8.0};
  EXPECT_NEAR(objective.Evaluate(equal), 0.0, 1e-9);
  // Lopsided allocation -> negative objective.
  const std::vector<double> lopsided{15.0, 1.0};
  EXPECT_LT(objective.Evaluate(lopsided), -0.1);
}

TEST(ClusterObjectiveTest, FairSumCombinesBoth) {
  std::vector<JobContext> jobs{MakeJob("a", 40.0), MakeJob("b", 40.0)};
  ClusterObjectiveConfig config;
  config.kind = ObjectiveKind::kFairSum;
  config.gamma = 2.0;
  ClusterObjective objective(jobs, ClusterResources{64.0, 64.0}, config);
  const std::vector<double> equal{8.0, 8.0};
  const std::vector<double> lopsided{15.0, 1.0};
  EXPECT_GT(objective.Evaluate(equal), objective.Evaluate(lopsided));
}

TEST(ClusterObjectiveTest, GammaDefaultsToJobCount) {
  std::vector<JobContext> jobs{MakeJob("a", 1.0), MakeJob("b", 1.0), MakeJob("c", 1.0)};
  ClusterObjectiveConfig config;
  config.kind = ObjectiveKind::kFairSum;
  config.gamma = -1.0;
  ClusterObjective objective(std::move(jobs), ClusterResources{32.0, 32.0}, config);
  EXPECT_DOUBLE_EQ(objective.config().gamma, 3.0);
}

TEST(ClusterObjectiveTest, ProblemRespectsCapacityConstraint) {
  auto objective = MakeObjective({MakeJob("a", 40.0), MakeJob("b", 40.0)}, 10.0);
  Problem problem = objective.BuildProblem();
  // 6 + 6 replicas exceeds the 10-vCPU cluster.
  const std::vector<double> over{6.0, 6.0};
  EXPECT_GT(problem.MaxViolation(over), 1.0);
  const std::vector<double> ok{5.0, 5.0};
  EXPECT_DOUBLE_EQ(problem.MaxViolation(ok), 0.0);
}

TEST(ClusterObjectiveTest, PreciseModeHasPlateaus) {
  // In precise mode, fractional replicas between integers give identical
  // objective values (the plateau pathology of §3.4).
  auto objective = MakeObjective({MakeJob("a", 40.0)}, 32.0, ObjectiveKind::kSum,
                                 /*relaxed=*/false);
  const double at_3_1 = objective.Evaluate(std::vector<double>{3.1});
  const double at_3_9 = objective.Evaluate(std::vector<double>{3.9});
  EXPECT_DOUBLE_EQ(at_3_1, at_3_9);
  // Whereas the relaxed surface separates them.
  auto relaxed = MakeObjective({MakeJob("a", 40.0)}, 32.0);
  EXPECT_NE(relaxed.Evaluate(std::vector<double>{3.1}),
            relaxed.Evaluate(std::vector<double>{3.9}));
}

TEST(ClusterObjectiveTest, RelaxedSolvableByCobyla) {
  // Two jobs, capacity 12, one heavy (40 req/s) one light (5 req/s): the
  // solver should give the heavy job clearly more replicas.
  auto objective = MakeObjective({MakeJob("heavy", 40.0), MakeJob("light", 5.0)}, 12.0);
  Problem problem = objective.BuildProblem();
  CobylaConfig config;
  config.rho_begin = 2.0;
  config.rho_end = 1e-4;
  const auto result = Cobyla(problem, objective.InitialPoint(), config);
  EXPECT_LE(result.max_violation, 1e-3);
  EXPECT_GT(result.x[0], result.x[1] + 1.0);
  // Cluster is right-sized for these loads: near-max utility achievable.
  EXPECT_GT(objective.Evaluate(result.x), 1.8);
}

TEST(ClusterObjectiveTest, CpuAndMemUsage) {
  JobContext a = MakeJob("a", 1.0);
  a.spec.cpu_per_replica = 2.0;
  a.spec.mem_per_replica = 4.0;
  auto objective = MakeObjective({std::move(a)}, 100.0);
  const std::vector<double> v{3.0};
  EXPECT_DOUBLE_EQ(objective.CpuUsage(v), 6.0);
  EXPECT_DOUBLE_EQ(objective.MemUsage(v), 12.0);
}

TEST(ClusterObjectiveTest, InitialPointIsOneReplicaNoDrops) {
  auto objective =
      MakeObjective({MakeJob("a", 1.0), MakeJob("b", 1.0)}, 32.0, ObjectiveKind::kPenaltySum);
  const auto v = objective.InitialPoint();
  ASSERT_EQ(v.size(), 4u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.0);
  EXPECT_DOUBLE_EQ(v[3], 0.0);
}

class ObjectiveKindParamTest : public ::testing::TestWithParam<ObjectiveKind> {};

TEST_P(ObjectiveKindParamTest, MoreCapacityNeverHurtsOptimum) {
  // Property: the solved objective value with a larger cluster is at least
  // the value with a smaller cluster (monotone resource utility).
  const ObjectiveKind kind = GetParam();
  double previous = -1e9;
  for (const double capacity : {6.0, 12.0, 24.0}) {
    auto objective =
        MakeObjective({MakeJob("a", 30.0), MakeJob("b", 10.0)}, capacity, kind);
    Problem problem = objective.BuildProblem();
    CobylaConfig config;
    config.rho_begin = 2.0;
    config.rho_end = 1e-3;
    const auto result = Cobyla(problem, objective.InitialPoint(), config);
    const double value = objective.Evaluate(result.x);
    EXPECT_GE(value, previous - 0.05) << "capacity=" << capacity;
    previous = std::max(previous, value);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ObjectiveKindParamTest,
                         ::testing::Values(ObjectiveKind::kSum, ObjectiveKind::kFair,
                                           ObjectiveKind::kFairSum, ObjectiveKind::kPenaltySum,
                                           ObjectiveKind::kPenaltyFairSum));

// Pins COBYLA's exact trajectory on the relaxed 10-job FairSum Stage-2
// problem that bench_micro_kernels' BM_CobylaStage2Solve times: any change
// to the solver's floating-point operation order shows up here.
TEST(CobylaStage2Test, RelaxedFairSumTrajectoryPinned) {
  std::vector<JobContext> contexts(10);
  for (size_t i = 0; i < contexts.size(); ++i) {
    contexts[i].spec.processing_time = 0.18;
    contexts[i].spec.slo = 0.72;
    contexts[i].predicted_load.assign(6, 10.0 + 3.0 * static_cast<double>(i));
  }
  ClusterObjectiveConfig config;
  config.kind = ObjectiveKind::kFairSum;
  const ClusterObjective objective(std::move(contexts), ClusterResources{36.0, 36.0}, config);
  CobylaConfig cobyla;
  cobyla.rho_begin = 2.0;
  cobyla.rho_end = 1e-3;
  const auto result = Cobyla(objective.BuildProblem(), objective.InitialPoint(), cobyla);
  const std::vector<double> expected_x{
      0x1.00008e5a1b8d3p+0, 0x1.4f01b179d3a1bp+0, 0x1.80578f6965549p+0, 0x1.a256247166fbcp+0,
      0x1.bb2468aa03949p+0, 0x1.cda5e8a976191p+0, 0x1.dc9c27139ffd8p+0, 0x1.e8790fa0b346p+0,
      0x1.f23a4508dcea1p+0, 0x1.fa642ed306211p+0};
  EXPECT_EQ(result.x, expected_x);
  EXPECT_EQ(result.value, -0x1.5fbf34f6da202p-15);
  EXPECT_EQ(result.max_violation, 0.0);
  EXPECT_EQ(result.evaluations, 191);
  EXPECT_TRUE(result.converged);
}

}  // namespace
}  // namespace faro
