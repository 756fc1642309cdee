// The benchmark's three workloads and the round that runs one of them.
//
// A run sets its workload up several times (timed: setup_s), then repeats
// one round -- the same inputs each time -- until its time is spent. A round
// replays one simulated run through faro::ReplayDaemon in batch mode (no
// pacing, so run_s times the program, not a clock) with the HTTP telemetry
// plane up and the open-loop scrape client polling it. Repeating identical
// rounds gives fresh timing samples while every deterministic output must
// match the first round exactly.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/probes.h"
#include "perfbench/scraper.h"
#include "src/forecast/adapter.h"
#include "src/queueing/cache.h"
#include "src/sim/harness.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  // Set-ups per run; setup_s is their median.
  int setup_reps = 3;
  size_t jobs = 10;
  double capacity = 32.0;
  // Peak total replica demand the job mix is scaled to (PrepareWorkload).
  double right_size = 36.0;
  size_t nodes = 0;       // 0 = flat capacity model
  size_t minutes = 0;     // eval-day truncation; 0 = the whole day
  std::string faults;     // named fault scenario; empty = none
  faro::SimEngine engine = faro::SimEngine::kClassic;
  std::string policy;     // "Faro-FairSum" or "AIAD"
  size_t epochs = 0;      // N-HiTS training epochs; 0 = no predictor
  bool live_actuator = false;
  double forecast_max_jump = 0.0;
  std::vector<std::string> targets;  // scrape round-robin
  double scrape_interval_ms = 20.0;
};

// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

// The fixed job mix every run of a workload uses (the paper's traces are
// fixed too); --seed picks the request streams, jitter and fault draws.
inline constexpr uint64_t kMixSeed = 42;

struct Prepared {
  faro::ExperimentSetup setup;
  faro::PreparedWorkload workload;
  std::shared_ptr<faro::NHitsWorkloadPredictor> predictor;
  size_t minutes = 0;  // simulated minutes per round
};

struct SetupTiming {
  double prepare_s = 0.0;
  double train_s = 0.0;
};

// Builds the workload: PrepareWorkload, TrainPredictor (both timed), trace
// truncation and the fault plan. `shorten_to` (> 0) overrides the horizon.
Prepared Prepare(const WorkloadSpec& spec, SpanRecorder& spans, SetupTiming* timing,
                 size_t shorten_to = 0);

struct RoundOptions {
  bool scraped = true;          // daemon + scrape client; else plain RunSimulation
  size_t solve_parallelism = 0;  // FaroConfig::solve_parallelism
  size_t shard_threads = 0;      // SimConfig::shard_threads
  size_t exposition_reps = 0;    // PrometheusText() calls timed after the run
};

struct RoundResult {
  faro::RunResult result;
  double run_s = 0.0;
  std::vector<DecisionSample> decisions;
  uint64_t fastreact_calls = 0;
  double policy_s = 0.0;
  double owed_peak = 0.0;
  uint64_t over_capacity_reissues = 0;
  uint64_t predict_calls = 0;
  faro::QueueingCacheStats cache;
  std::vector<EndpointSamples> endpoints;
  std::vector<double> late_ms;
  uint64_t alert_onsets = 0;
  size_t audit_records = 0;
  std::vector<double> exposition_ms;
  double exposition_bytes = 0.0;
};

// One round with trial seed `trial_seed`. Every correctness check on the
// round's outputs is counted in `checks`.
RoundResult RunRound(const WorkloadSpec& spec, const Prepared& prepared,
                     uint64_t trial_seed, const RoundOptions& options, CheckTally& checks,
                     SpanRecorder& spans);

// Trials per --seed: rounds cycle through this many request streams, so each
// run's figures pool several samples of the workload rather than one.
inline constexpr size_t kTrialsPerSeed = 3;

// Trial seed `trial` of --seed (the harness's trial-seed scheme, with trial
// indices seed * kTrialsPerSeed + trial).
inline uint64_t TrialSeed(uint64_t seed, size_t trial) {
  return kMixSeed + 1000 * (seed * kTrialsPerSeed + trial + 1);
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
