// One-thread, open-loop HTTP client for the replay daemon's telemetry plane.
//
// Request k is due at start + k * interval and goes to targets[k % n]; the
// client opens one connection at a time. A request that cannot go out on
// time (the previous one is still running) is sent as soon as it can, and
// its latency is timed from when it was due, so a stall shows up in every
// request it delays. How late the client itself ran is recorded apart.
// Every response is checked: status 200, and a body of the endpoint's shape.

#ifndef PERFBENCH_SCRAPER_H_
#define PERFBENCH_SCRAPER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/probes.h"

namespace perfbench {

struct EndpointSamples {
  std::string target;
  std::vector<double> latency_ms;  // from due time to full response
  std::vector<double> bytes;
};

class Scraper {
 public:
  Scraper(uint16_t port, std::vector<std::string> targets, double interval_ms,
          CheckTally& checks, SpanRecorder& spans);
  ~Scraper();
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void Start();
  // Stops after the request in flight and joins the client thread.
  void Stop();

  // Valid after Stop().
  const std::vector<EndpointSamples>& endpoints() const { return endpoints_; }
  const std::vector<double>& late_ms() const { return late_ms_; }

 private:
  void Loop();
  void CheckBody(const std::string& target, const std::string& body);

  const uint16_t port_;
  const double interval_ms_;
  CheckTally& checks_;
  SpanRecorder& spans_;
  std::vector<EndpointSamples> endpoints_;
  std::vector<double> late_ms_;
  std::map<std::string, double> last_counters_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: joins before the members it uses go away
};

}  // namespace perfbench

#endif  // PERFBENCH_SCRAPER_H_
