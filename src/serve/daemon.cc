#include "src/serve/daemon.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <thread>

#include "src/sim/report.h"

namespace faro {
namespace {

// Shortest decimal form that round-trips the double (same policy as the
// metrics exposition and audit log; local copy, those helpers are
// file-internal to their modules).
std::string FormatDoubleShortest(double v) {
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    double parsed = 0.0;
    std::sscanf(buf, "%lf", &parsed);
    if (parsed == v) {
      break;
    }
  }
  return buf;
}

std::string JsonEscapeMinimal(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

// Last `n` lines of a newline-terminated buffer (all of it when n == 0 or
// the buffer is shorter).
std::string TailLines(const std::string& text, size_t n) {
  if (n == 0 || text.empty()) {
    return text;
  }
  size_t pos = text.size();
  if (text.back() == '\n') {
    --pos;
  }
  for (size_t lines = 0; pos > 0; --pos) {
    if (text[pos - 1] == '\n' && ++lines == n) {
      return text.substr(pos);
    }
  }
  return text;
}

size_t ParseTailParam(const std::string& query, size_t fallback) {
  const size_t key = query.find("tail=");
  if (key == std::string::npos || (key > 0 && query[key - 1] != '&')) {
    return fallback;
  }
  return static_cast<size_t>(std::strtoul(query.c_str() + key + 5, nullptr, 10));
}

}  // namespace

ReplayDaemon::ReplayDaemon(const SimConfig& config,
                           const std::vector<SimJobConfig>& jobs,
                           AutoscalingPolicy& policy, const ServeOptions& options)
    : config_(config), jobs_(jobs), policy_(policy), options_(options),
      pacing_(options.speed) {
  config_.minute_observer = this;
  MetricsRegistry& registry = MetricsRegistry::Global();
  if (options_.live_actuator) {
    config_.desired_observer = this;
    actuator_ = std::make_unique<AsyncActuator>(jobs_.size(), config_.reconciler);
    actuator_generation_gauge_ = &registry.GetGauge(
        "faro_serve_actuator_generation",
        "Newest desired-state generation accepted by the live actuator");
    actuator_fences_gauge_ = &registry.GetGauge(
        "faro_serve_actuator_fence_rejections",
        "Stale publishes discarded by the live actuator's generation fence");
  }
  budget_gauges_.reserve(jobs_.size());
  burn_fast_gauges_.reserve(jobs_.size());
  burn_slow_gauges_.reserve(jobs_.size());
  for (const SimJobConfig& job : jobs_) {
    const MetricLabels labels{{"job", job.spec.name}};
    budget_gauges_.push_back(&registry.GetGauge(
        "faro_slo_budget_remaining_ratio", labels,
        "Fraction of the job error budget left (negative when overspent)"));
    burn_fast_gauges_.push_back(&registry.GetGauge(
        "faro_slo_burn_rate_fast", labels,
        "Fast-window (1h sim) error-budget burn rate"));
    burn_slow_gauges_.push_back(&registry.GetGauge(
        "faro_slo_burn_rate_slow", labels,
        "Slow-window (6h sim) error-budget burn rate"));
  }
  sim_time_gauge_ = &registry.GetGauge("faro_serve_sim_time_seconds",
                                       "Sim time reached by the replay");
  speed_gauge_ = &registry.GetGauge("faro_serve_speed_multiplier",
                                    "Current replay speed (sim s per wall s)");
  windows_closed_ = &registry.GetCounter(
      "faro_serve_windows_closed_total",
      "Per-job metric windows closed by the replay (monotone)");
  speed_gauge_->Set(pacing_.speed());
  fast_firing_.assign(jobs_.size(), false);
  slow_firing_.assign(jobs_.size(), false);
}

ReplayDaemon::~ReplayDaemon() { server_.Stop(); }

bool ReplayDaemon::StartServer() {
  return server_.Start(options_.port,
                       [this](const HttpRequest& request) { return Handle(request); });
}

void ReplayDaemon::OnMinute(const MinuteSnapshot& snapshot) {
  const uint32_t j = snapshot.job;
  budget_gauges_[j]->Set(snapshot.budget_remaining_frac);
  burn_fast_gauges_[j]->Set(snapshot.burn_fast);
  burn_slow_gauges_[j]->Set(snapshot.burn_slow);
  sim_time_gauge_->Set(snapshot.end_s);
  sim_time_s_.store(snapshot.end_s, std::memory_order_relaxed);
  windows_closed_->Add(1);

  // Incremental burn-rate alert transitions. The firing flags mirror the
  // ledger's own onset logic (below -> at-or-above), so the number of onset
  // lines in the feed is bit-identical to the batch run's alert totals.
  const bool was_fast = fast_firing_[j];
  const bool was_slow = slow_firing_[j];
  fast_firing_[j] = snapshot.alert_fast;
  slow_firing_[j] = snapshot.alert_slow;
  if (snapshot.alert_fast == was_fast && snapshot.alert_slow == was_slow) {
    return;
  }
  std::string lines;
  uint64_t onsets = 0;
  const auto append = [&](const char* window, bool firing, bool was, double burn) {
    if (firing == was) {
      return;
    }
    lines += "{\"time_s\":" + FormatDoubleShortest(snapshot.end_s) +
             ",\"job\":\"" + JsonEscapeMinimal(jobs_[j].spec.name) +
             "\",\"window\":\"" + window +
             "\",\"event\":\"" + (firing ? "onset" : "clear") +
             "\",\"burn\":" + FormatDoubleShortest(burn) + "}\n";
    if (firing) {
      ++onsets;
    }
  };
  append("fast", snapshot.alert_fast, was_fast, snapshot.burn_fast);
  append("slow", snapshot.alert_slow, was_slow, snapshot.burn_slow);
  {
    std::lock_guard<std::mutex> lock(alerts_mu_);
    alerts_jsonl_ += lines;
  }
  alert_onsets_.fetch_add(onsets, std::memory_order_relaxed);
}

void ReplayDaemon::OnPublish(const DesiredState& desired) {
  if (actuator_ == nullptr) {
    return;
  }
  last_desired_ = desired;
  actuator_->Publish(desired);
}

std::string ReplayDaemon::AlertsJsonl() const {
  std::lock_guard<std::mutex> lock(alerts_mu_);
  return alerts_jsonl_;
}

HttpResponse ReplayDaemon::Handle(const HttpRequest& request) {
  HttpResponse response;
  if (request.path == "/healthz") {
    response.content_type = "application/json";
    response.body = "{\"status\":\"ok\",\"sim_time_s\":" +
                    FormatDoubleShortest(sim_time_s_.load(std::memory_order_relaxed)) +
                    ",\"speed\":" + FormatDoubleShortest(pacing_.speed()) +
                    ",\"done\":" + (run_complete() ? "true" : "false") +
                    ",\"alert_onsets\":" + std::to_string(alert_onsets()) + "}\n";
    return response;
  }
  if (request.path == "/metrics") {
    if (request.method != "GET") {
      response.status = 405;
      return response;
    }
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = MetricsRegistry::Global().PrometheusText();
    return response;
  }
  if (request.path == "/alerts") {
    response.content_type = "application/x-ndjson";
    response.body = TailLines(AlertsJsonl(), ParseTailParam(request.query, 0));
    return response;
  }
  if (request.path == "/audit") {
    if (options_.audit == nullptr) {
      response.status = 404;
      response.body = "no audit log configured\n";
      return response;
    }
    response.content_type = "application/x-ndjson";
    response.body = TailLines(options_.audit->ToJsonl(), ParseTailParam(request.query, 64));
    return response;
  }
  if (request.path == "/actuator") {
    if (actuator_ == nullptr) {
      response.status = 404;
      response.body = "live actuator not enabled (ServeOptions::live_actuator)\n";
      return response;
    }
    const ReconcileTelemetry t = actuator_->telemetry();
    const std::vector<ActuatorLogEntry> log = actuator_->op_log();
    // Crash-consistency probe over the op log: an entry is torn when its
    // first pass was marked applied without every job's target having been
    // issued. The AsyncActuator runs the pass in one critical section, so
    // this must read 0 at any instant -- the TSan determinism test polls it.
    size_t applied = 0, fenced = 0, superseded = 0, pending = 0, torn = 0;
    for (const ActuatorLogEntry& entry : log) {
      if (entry.applied) {
        ++applied;
        if (entry.jobs_applied < jobs_.size()) {
          ++torn;
        }
      } else if (entry.fenced) {
        ++fenced;
      } else if (entry.superseded) {
        ++superseded;
      } else {
        ++pending;
      }
    }
    response.content_type = "application/json";
    response.body =
        "{\"generation\":" + std::to_string(actuator_->generation()) +
        ",\"converged\":" + (actuator_->converged() ? "true" : "false") +
        ",\"generations_published\":" + std::to_string(t.generations_published) +
        ",\"generations_converged\":" + std::to_string(t.generations_converged) +
        ",\"generations_superseded\":" + std::to_string(t.generations_superseded) +
        ",\"fence_rejections\":" + std::to_string(t.fence_rejections) +
        ",\"retries\":" + std::to_string(t.retries) +
        ",\"op_timeouts\":" + std::to_string(t.op_timeouts) +
        ",\"op_log\":{\"entries\":" + std::to_string(log.size()) +
        ",\"applied\":" + std::to_string(applied) +
        ",\"fenced\":" + std::to_string(fenced) +
        ",\"superseded\":" + std::to_string(superseded) +
        ",\"pending\":" + std::to_string(pending) +
        ",\"torn\":" + std::to_string(torn) + "}}\n";
    return response;
  }
  if (request.path == "/speed") {
    if (request.method == "GET") {
      response.content_type = "application/json";
      response.body = "{\"speed\":" + FormatDoubleShortest(pacing_.speed()) + "}\n";
      return response;
    }
    if (request.method != "POST") {
      response.status = 405;
      return response;
    }
    const std::string& text = !request.body.empty() ? request.body : request.query;
    char* end = nullptr;
    const char* begin = text.c_str();
    // Accept a bare number or "speed=<number>".
    if (text.compare(0, 6, "speed=") == 0) {
      begin += 6;
    }
    const double requested = std::strtod(begin, &end);
    if (end == begin || !(requested > 0.0)) {
      response.status = 400;
      response.body = "expected a positive speed multiplier\n";
      return response;
    }
    const double applied = pacing_.SetSpeed(requested);
    speed_gauge_->Set(applied);
    response.content_type = "application/json";
    response.body = "{\"speed\":" + FormatDoubleShortest(applied) + "}\n";
    return response;
  }
  response.status = 404;
  response.body =
      "unknown path (try /metrics /alerts /audit /actuator /healthz /speed)\n";
  return response;
}

RunResult ReplayDaemon::Run() {
  std::unique_ptr<SimStepper> stepper = MakeSimStepper(config_, jobs_, policy_);
  pacing_.Reset(options_.speed);
  speed_gauge_->Set(pacing_.speed());
  if (actuator_ != nullptr) {
    actuator_->Start();
  }
  while (!stop_.load(std::memory_order_acquire) && !stepper->done()) {
    const double target = options_.batch
                              ? std::numeric_limits<double>::infinity()
                              : pacing_.TargetSimTime();
    stepper->StepUntil(target);
    sim_time_s_.store(stepper->now_s(), std::memory_order_relaxed);
    sim_time_gauge_->Set(stepper->now_s());
    if (stepper->done() || options_.batch) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::max(1, options_.poll_ms)));
  }
  RunResult result = stepper->Finish();
  if (actuator_ != nullptr) {
    // At-least-once wind-down: re-send the final generation. The actuator's
    // fence must discard the duplicate (fence_rejections >= 1 after every
    // completed run with at least one decision) -- the live analogue of the
    // engines' stale-delayed-scale-up fencing.
    if (last_desired_.generation > 0) {
      actuator_->Publish(last_desired_);
    }
    actuator_->Stop();
    const ReconcileTelemetry t = actuator_->telemetry();
    actuator_generation_gauge_->Set(static_cast<double>(actuator_->generation()));
    actuator_fences_gauge_->Set(static_cast<double>(t.fence_rejections));
  }
  complete_.store(true, std::memory_order_release);

  // Final flush: batch-identical artifacts (the summary CSV is the CI
  // byte-identity probe), plus the live feeds for offline inspection.
  if (!options_.summary_out.empty()) {
    if (WriteSummaryCsv(options_.summary_out, result)) {
      std::fprintf(stderr, "faro_serve: wrote summary CSV to %s\n",
                   options_.summary_out.c_str());
    }
  }
  if (!options_.metrics_out.empty()) {
    if (MetricsRegistry::Global().WriteFile(options_.metrics_out)) {
      std::fprintf(stderr, "faro_serve: wrote metrics to %s\n",
                   options_.metrics_out.c_str());
    }
  }
  if (options_.audit != nullptr && !options_.audit_out.empty()) {
    if (options_.audit->WriteJsonl(options_.audit_out)) {
      std::fprintf(stderr, "faro_serve: wrote decision audit to %s\n",
                   options_.audit_out.c_str());
    }
  }
  if (!options_.alerts_out.empty()) {
    std::ofstream out(options_.alerts_out);
    if (out) {
      out << AlertsJsonl();
      std::fprintf(stderr, "faro_serve: wrote alert feed to %s\n",
                   options_.alerts_out.c_str());
    }
  }

  while (options_.linger && !stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return result;
}

}  // namespace faro
