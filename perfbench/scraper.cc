#include "perfbench/scraper.h"

#include "perfbench/checks.h"
#include "src/serve/http.h"

namespace perfbench {

Scraper::Scraper(uint16_t port, std::vector<std::string> targets, double interval_ms,
                 CheckTally& checks, SpanRecorder& spans)
    : port_(port), interval_ms_(interval_ms), checks_(checks), spans_(spans) {
  for (std::string& target : targets) {
    endpoints_.push_back(EndpointSamples{std::move(target), {}, {}});
  }
}

Scraper::~Scraper() { Stop(); }

void Scraper::Start() { thread_ = std::thread([this] { Loop(); }); }

void Scraper::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void Scraper::Loop() {
  const Clock::time_point start = Clock::now();
  for (uint64_t k = 0;; ++k) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(interval_ms_ * k));
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_until(lock, due, [this] { return stop_; })) {
        return;
      }
    }
    EndpointSamples& endpoint = endpoints_[k % endpoints_.size()];
    const Clock::time_point sent = Clock::now();
    const double start_us = spans_.enabled() ? spans_.NowUs() : 0.0;
    int status = 0;
    std::string body;
    const bool ok = faro::HttpFetch(port_, "GET", endpoint.target, "", &status, &body);
    const Clock::time_point done = Clock::now();
    if (spans_.enabled()) {
      spans_.Add("GET " + endpoint.target, "serve", kClientTid, start_us, spans_.NowUs());
    }
    late_ms_.push_back(std::chrono::duration<double, std::milli>(sent - due).count());
    endpoint.latency_ms.push_back(std::chrono::duration<double, std::milli>(done - due).count());
    endpoint.bytes.push_back(static_cast<double>(body.size()));
    if (checks_.Expect(ok && status == 200, "scrape_status",
                       endpoint.target + " returned " + std::to_string(status))) {
      CheckBody(endpoint.target, body);
    }
  }
}

void Scraper::CheckBody(const std::string& target, const std::string& body) {
  std::string problem;
  if (target == "/metrics") {
    std::map<std::string, double> counters;
    problem = PrometheusProblem(body, &counters);
    if (problem.empty()) {
      problem = CounterDecreaseProblem(last_counters_, counters);
    }
    last_counters_ = std::move(counters);
  } else if (target == "/healthz") {
    if (body.find("\"status\":\"ok\"") == std::string::npos) {
      problem = "unhealthy: " + body;
    }
  } else if (target == "/actuator") {
    problem = ActuatorProblem(body, /*final=*/false);
  } else {
    problem = JsonLinesProblem(body);
  }
  checks_.Expect(problem.empty(), "scrape_body", target + ": " + problem);
}

}  // namespace perfbench
