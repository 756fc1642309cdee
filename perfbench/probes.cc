#include "perfbench/probes.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string_view>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

double TrimmedMean(std::vector<double> values, double trim) {
  std::sort(values.begin(), values.end());
  const size_t cut = static_cast<size_t>(std::clamp(trim, 0.0, 0.49) *
                                         static_cast<double>(values.size()));
  double sum = 0.0;
  for (size_t i = cut; i + cut < values.size(); ++i) {
    sum += values[i];
  }
  const size_t kept = values.size() - 2 * cut;
  return kept == 0 ? 0.0 : sum / static_cast<double>(kept);
}

bool CheckTally::Expect(bool ok, const char* check, const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (ok) {
    return true;
  }
  ++failed_;
  auto it = std::find_if(reported_.begin(), reported_.end(),
                         [&](const auto& entry) { return entry.first == check; });
  if (it == reported_.end()) {
    reported_.emplace_back(check, 0);
    it = reported_.end() - 1;
  }
  if (it->second++ < 5) {
    std::fprintf(stderr, "perfbench: check %s failed: %s\n", check, detail.c_str());
  }
  return false;
}

uint64_t CheckTally::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

uint64_t CheckTally::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

double SpanRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

void SpanRecorder::Add(std::string name, const char* layer, uint32_t tid, double start_us,
                       double end_us) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), layer, tid, start_us, end_us - start_us});
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  const char* tracks[] = {"", "benchmark", "policy", "scrape client"};
  for (uint32_t tid = 1; tid <= 3; ++tid) {
    out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << tracks[tid] << "\"}},\n";
  }
  // By start time, and at equal starts the longer span first, so that a
  // viewer nests a child recorded before its parent finished inside it.
  std::vector<Span> spans = spans_;
  std::stable_sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_us != b.start_us ? a.start_us < b.start_us : a.dur_us > b.dur_us;
  });
  char buf[64];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"ph\":\"X\",\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
        << "\",\"pid\":1,\"tid\":" << s.tid;
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f", s.start_us, s.dur_us);
    out << buf << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::string ActionProblem(const faro::ScalingAction& action,
                          const std::vector<faro::JobSpec>& specs,
                          const faro::ClusterResources& resources,
                          const std::vector<uint32_t>& held, bool* reissued_over_capacity) {
  if (reissued_over_capacity != nullptr) {
    *reissued_over_capacity = false;
  }
  if (action.replicas.size() != specs.size()) {
    return "replicas has " + std::to_string(action.replicas.size()) + " entries for " +
           std::to_string(specs.size()) + " jobs";
  }
  double cpu = 0.0;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (action.replicas[i] < 1) {
      return "job " + std::to_string(i) + " gets 0 replicas";
    }
    cpu += specs[i].cpu_per_replica * action.replicas[i];
  }
  if (cpu > resources.cpu + 1e-9) {
    for (size_t i = 0; i < specs.size(); ++i) {
      if (i >= held.size() || action.replicas[i] > held[i]) {
        return "allocates " + std::to_string(cpu) + " cpu of " +
               std::to_string(resources.cpu) + " and grows job " + std::to_string(i) +
               " to " + std::to_string(action.replicas[i]) + " replicas";
      }
    }
    if (reissued_over_capacity != nullptr) {
      *reissued_over_capacity = true;
    }
  }
  if (!action.drop_rates.empty() && action.drop_rates.size() != specs.size()) {
    return "drop_rates has " + std::to_string(action.drop_rates.size()) + " entries";
  }
  for (const double d : action.drop_rates) {
    if (!(d >= 0.0 && d <= 1.0)) {
      return "drop rate " + std::to_string(d) + " outside [0, 1]";
    }
  }
  return {};
}

std::string ForecastProblem(std::span<const double> forecast, size_t horizon) {
  if (forecast.size() != horizon) {
    return "length " + std::to_string(forecast.size()) + " for horizon " +
           std::to_string(horizon);
  }
  for (const double v : forecast) {
    if (!std::isfinite(v) || v < 0.0) {
      return "value " + std::to_string(v);
    }
  }
  return {};
}

std::vector<double> TimedPredictor::PredictQuantile(size_t job,
                                                    std::span<const double> history,
                                                    size_t horizon, double quantile) {
  const double start_us = spans_.enabled() ? spans_.NowUs() : 0.0;
  const Clock::time_point start = Clock::now();
  std::vector<double> forecast = inner_->PredictQuantile(job, history, horizon, quantile);
  seconds_ += SecondsSince(start);
  ++calls_;
  if (spans_.enabled()) {
    last_end_us_ = spans_.NowUs();
    spans_.Add("predict", "forecast", kPolicyTid, start_us, last_end_us_);
  }
  const std::string problem = ForecastProblem(forecast, horizon);
  checks_.Expect(problem.empty(), "forecast",
                 "job " + std::to_string(job) + ": " + problem);
  return forecast;
}

template <typename Call>
auto TimedPolicy::Timed(const char* what, const std::vector<faro::JobSpec>& job_specs,
                        const std::vector<faro::JobMetrics>& metrics,
                        const faro::ClusterResources& resources, Call&& call) {
  std::vector<uint32_t> held(metrics.size());
  double owed = 0.0;
  for (size_t i = 0; i < metrics.size(); ++i) {
    held[i] = metrics[i].ready_replicas + metrics[i].starting_replicas;
    owed += held[i];
  }
  owed_peak_ = std::max(owed_peak_, owed / std::max(resources.cpu, 1e-9));

  const faro::SolverTelemetry before = inner_.solver_telemetry();
  const double predict_before = predictor_ != nullptr ? predictor_->seconds() : 0.0;
  const double start_us = spans_.enabled() ? spans_.NowUs() : 0.0;
  const Clock::time_point start = Clock::now();
  auto result = call();
  const double seconds = SecondsSince(start);
  const double end_us = spans_.enabled() ? spans_.NowUs() : 0.0;
  const faro::SolverTelemetry after = inner_.solver_telemetry();
  policy_seconds_ += seconds;

  const bool decided = after.cycles > before.cycles || std::string_view(what) == "decide";
  if (decided) {
    DecisionSample sample;
    sample.decide_ms = 1000.0 * seconds;
    sample.predict_ms =
        predictor_ != nullptr ? 1000.0 * (predictor_->seconds() - predict_before) : 0.0;
    sample.solve_ms = 1000.0 * (after.solve_seconds_total - before.solve_seconds_total);
    sample.evaluations = after.objective_evaluations - before.objective_evaluations;
    sample.starts = after.starts_launched - before.starts_launched;
    sample.race_evals_saved = after.race_evals_saved - before.race_evals_saved;
    decisions_.push_back(sample);
    if (spans_.enabled() && sample.solve_ms > 0.0) {
      // The solve's duration is the policy's own SolverTelemetry delta; Faro
      // runs it after forecasting, so the span starts where this decision's
      // last forecast ended, and is kept inside the decision.
      double solve_start_us = start_us + 1000.0 * sample.predict_ms;
      if (predictor_ != nullptr) {
        solve_start_us = std::max(solve_start_us, predictor_->last_end_us());
      }
      spans_.Add("solve", "optim", kPolicyTid, solve_start_us,
                 std::min(end_us, solve_start_us + 1000.0 * sample.solve_ms));
    }
  }
  spans_.Add(what, decided ? "core" : "baselines", kPolicyTid, start_us, end_us);
  if (result) {
    bool reissued = false;
    const std::string problem = ActionProblem(*result, job_specs, resources, held, &reissued);
    checks_.Expect(problem.empty(), "action", std::string(what) + ": " + problem);
    over_capacity_reissues_ += reissued ? 1 : 0;
  }
  return result;
}

faro::ScalingAction TimedPolicy::Decide(double now_s,
                                        const std::vector<faro::JobSpec>& job_specs,
                                        const std::vector<faro::JobMetrics>& metrics,
                                        const faro::ClusterResources& resources) {
  return *Timed("decide", job_specs, metrics, resources, [&] {
    return std::optional<faro::ScalingAction>(
        inner_.Decide(now_s, job_specs, metrics, resources));
  });
}

std::optional<faro::ScalingAction> TimedPolicy::FastReact(
    double now_s, const std::vector<faro::JobSpec>& job_specs,
    const std::vector<faro::JobMetrics>& metrics, const faro::ClusterResources& resources) {
  ++fastreact_calls_;
  return Timed("fastreact", job_specs, metrics, resources,
               [&] { return inner_.FastReact(now_s, job_specs, metrics, resources); });
}

}  // namespace perfbench
