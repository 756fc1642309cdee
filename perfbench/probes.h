// Measurement probes the benchmark wraps around Faro's public interfaces.
//
// Nothing here reaches inside the program: timings come from steady_clock
// reads taken by decorators around AutoscalingPolicy (Decide, FastReact) and
// WorkloadPredictor (PredictQuantile), and work counts from the public
// SolverTelemetry the wrapped policy reports. Every decorated call's output
// is also checked for feasibility, so the probes double as correctness
// checks (CheckTally counts each one as an attempted operation).

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/policy.h"
#include "src/core/predictor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; 0 when
// empty.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
// Mean of the values left after dropping the lowest and the highest
// `trim` share of them (rounded down); 0 when empty.
double TrimmedMean(std::vector<double> values, double trim);

// Counts correctness checks as operations. A failed check is reported on
// stderr (the first few per check name) and counted; the benchmark's result
// is correct only when nothing failed. Thread-safe: the replay thread and the
// scrape client both report here.
class CheckTally {
 public:
  // Counts one operation; returns `ok`.
  bool Expect(bool ok, const char* check, const std::string& detail = {});

  uint64_t attempted() const;
  uint64_t failed() const;

 private:
  mutable std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::pair<std::string, int>> reported_;  // check -> lines printed
};

// In-memory span buffer written once, at the end, as a Chrome trace_event
// file (loadable in Perfetto). Disabled recorders cost one branch per span.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    const char* layer = "";
    uint32_t tid = 0;
    double start_us = 0.0;
    double dur_us = 0.0;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Microseconds since the recorder was created.
  double NowUs() const;
  // Records a finished span. Spans on one track nest by their times.
  void Add(std::string name, const char* layer, uint32_t tid, double start_us,
           double end_us);

  size_t size() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Span tracks (Chrome trace tids).
inline constexpr uint32_t kMainTid = 1;
inline constexpr uint32_t kPolicyTid = 2;
inline constexpr uint32_t kClientTid = 3;

// Checks one scaling action against the resources it was decided for: one
// entry per job, each >= 1, drop rates in [0, 1], and a cpu sum within
// capacity. The one exception is an action that grows no job beyond the
// replicas the engine reports it holding (`held[i]` = ready + starting): the
// engines report replicas still draining after a scale-down as ready, so a
// policy that re-issues or shrinks what it was shown can exceed capacity
// without asking for anything new (see README.md, "Known faults"). Such an
// action sets `*reissued_over_capacity`, so the benchmark counts them.
// Returns an empty string when feasible, else what is wrong.
std::string ActionProblem(const faro::ScalingAction& action,
                          const std::vector<faro::JobSpec>& specs,
                          const faro::ClusterResources& resources,
                          const std::vector<uint32_t>& held,
                          bool* reissued_over_capacity = nullptr);

// Returns an empty string when a forecast is finite, non-negative and of the
// requested length.
std::string ForecastProblem(std::span<const double> forecast, size_t horizon);

// Decorator around a WorkloadPredictor: times and checks every forecast.
// Faro calls its predictor serially from the Decide thread, so the
// accumulators need no lock.
class TimedPredictor : public faro::WorkloadPredictor {
 public:
  TimedPredictor(std::shared_ptr<faro::WorkloadPredictor> inner, CheckTally& checks,
                 SpanRecorder& spans)
      : inner_(std::move(inner)), checks_(checks), spans_(spans) {}

  std::vector<double> PredictQuantile(size_t job, std::span<const double> history,
                                      size_t horizon, double quantile) override;

  uint64_t calls() const { return calls_; }
  double seconds() const { return seconds_; }
  // When the last traced forecast ended (SpanRecorder time).
  double last_end_us() const { return last_end_us_; }

 private:
  std::shared_ptr<faro::WorkloadPredictor> inner_;
  CheckTally& checks_;
  SpanRecorder& spans_;
  uint64_t calls_ = 0;
  double seconds_ = 0.0;
  double last_end_us_ = 0.0;
};

// One timed long-term decision (a Decide call, or a FastReact call that ran
// a Stage-2 solve -- Faro's off-cadence re-solve after capacity loss).
struct DecisionSample {
  double decide_ms = 0.0;
  double predict_ms = 0.0;
  double solve_ms = 0.0;  // SolverTelemetry::solve_seconds_total delta
  uint64_t evaluations = 0;
  uint64_t starts = 0;
  uint64_t race_evals_saved = 0;
};

// Decorator around an AutoscalingPolicy: times every callback, splits each
// decision into predict / solve / the rest, and checks every action.
class TimedPolicy : public faro::AutoscalingPolicy {
 public:
  TimedPolicy(faro::AutoscalingPolicy& inner, TimedPredictor* predictor,
              CheckTally& checks, SpanRecorder& spans)
      : inner_(inner), predictor_(predictor), checks_(checks), spans_(spans) {}

  std::string name() const override { return inner_.name(); }
  double decision_interval_s() const override { return inner_.decision_interval_s(); }
  faro::SolverTelemetry solver_telemetry() const override {
    return inner_.solver_telemetry();
  }

  faro::ScalingAction Decide(double now_s, const std::vector<faro::JobSpec>& job_specs,
                             const std::vector<faro::JobMetrics>& metrics,
                             const faro::ClusterResources& resources) override;
  std::optional<faro::ScalingAction> FastReact(
      double now_s, const std::vector<faro::JobSpec>& job_specs,
      const std::vector<faro::JobMetrics>& metrics,
      const faro::ClusterResources& resources) override;

  const std::vector<DecisionSample>& decisions() const { return decisions_; }
  uint64_t fastreact_calls() const { return fastreact_calls_; }
  double policy_seconds() const { return policy_seconds_; }
  // Largest sum of (ready + starting) replicas the policy was shown, as a
  // multiple of the cluster's cpu capacity.
  double owed_peak() const { return owed_peak_; }
  // Actions over capacity that only re-issued or shrank what was held.
  uint64_t over_capacity_reissues() const { return over_capacity_reissues_; }

 private:
  // Shared by both callbacks: times `call`, records a decision sample when
  // the solver ran, and checks the action.
  template <typename Call>
  auto Timed(const char* what, const std::vector<faro::JobSpec>& job_specs,
             const std::vector<faro::JobMetrics>& metrics,
             const faro::ClusterResources& resources, Call&& call);

  faro::AutoscalingPolicy& inner_;
  TimedPredictor* predictor_;
  CheckTally& checks_;
  SpanRecorder& spans_;
  std::vector<DecisionSample> decisions_;
  uint64_t fastreact_calls_ = 0;
  double policy_seconds_ = 0.0;
  double owed_peak_ = 0.0;
  uint64_t over_capacity_reissues_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
