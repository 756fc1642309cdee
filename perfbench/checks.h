// Correctness checks over what the program returns. Each check compares
// against a computation made here, apart from the program, or against a
// property the method states -- never against a stored copy of an earlier
// run's output. Every function returns an empty string on success and a
// description of the first problem otherwise, so the self-test can show that
// each one fails on a corrupted result.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/simulator.h"

namespace perfbench {

// Per window, the attribution buckets summed left to right equal
// max(0, 1 - minute utility) bit for bit (src/sim/simulator.h states it).
std::string AttributionProblem(const faro::JobRunStats& job);

// cluster_avg_utility recomputed as the mean over minutes of the per-minute
// sum of job utilities, to 1e-9 relative.
std::string ClusterUtilityProblem(const faro::RunResult& result);

// Arrivals within 6 sigma (+6) of the Poisson mean the trace integrates to
// over `minutes`, and drops <= violations <= arrivals.
std::string ArrivalProblem(const faro::JobRunStats& job, const faro::Series& trace_per_min,
                           size_t minutes);

// Everything a run must reproduce exactly: the same inputs give the same
// outputs, at any pool or shard thread count and with or without the replay
// daemon around the engine.
struct Fingerprint {
  uint64_t events = 0;
  uint64_t requests = 0;
  uint64_t violations = 0;
  double cluster_utility = 0.0;
  uint64_t cycles = 0;
  uint64_t evaluations = 0;
  uint64_t starts = 0;
  uint64_t generations = 0;
  uint64_t passes = 0;
  uint64_t ops = 0;
  uint64_t retries = 0;
  uint64_t replicas_killed = 0;

  bool operator==(const Fingerprint&) const = default;
  std::string ToString() const;
};
Fingerprint FingerprintOf(const faro::RunResult& result);

// Prometheus text exposition: every sample line parses, HELP and TYPE appear
// at most once per family and before its samples. Fills `counters` with the
// value of every counter series (and histogram _count) for the monotonicity
// check.
std::string PrometheusProblem(const std::string& text,
                              std::map<std::string, double>* counters);

// Counter series in `now` that fell below their value in `before`.
std::string CounterDecreaseProblem(const std::map<std::string, double>& before,
                                   const std::map<std::string, double>& now);

// JSON-lines body: every line is one {...} object.
std::string JsonLinesProblem(const std::string& body);

// /actuator snapshot: no torn generation; when `final`, also converged.
std::string ActuatorProblem(const std::string& body, bool final);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
