#include "perfbench/checks.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>

#include "src/obs/attribution.h"

namespace perfbench {

std::string AttributionProblem(const faro::JobRunStats& job) {
  const size_t windows = job.minute_utility.size();
  for (size_t c = 0; c < faro::kNumLossCauses; ++c) {
    if (job.minute_lost_by_cause[c].size() != windows) {
      return job.name + ": cause " + faro::LossCauseName(c) + " has " +
             std::to_string(job.minute_lost_by_cause[c].size()) + " windows, utility has " +
             std::to_string(windows);
    }
  }
  for (size_t w = 0; w < windows; ++w) {
    double sum = 0.0;
    for (size_t c = 0; c < faro::kNumLossCauses; ++c) {
      sum += job.minute_lost_by_cause[c][w];
    }
    const double lost = std::max(0.0, 1.0 - job.minute_utility[w]);
    if (sum != lost) {
      std::ostringstream out;
      out.precision(17);
      out << job.name << " window " << w << ": buckets sum to " << sum << ", lost is "
          << lost;
      return out.str();
    }
  }
  return {};
}

std::string ClusterUtilityProblem(const faro::RunResult& result) {
  size_t minutes = result.jobs.empty() ? 0 : result.jobs[0].minute_utility.size();
  for (const faro::JobRunStats& job : result.jobs) {
    minutes = std::min(minutes, job.minute_utility.size());
  }
  if (minutes == 0) {
    return "no per-minute utility series";
  }
  double total = 0.0;
  for (size_t t = 0; t < minutes; ++t) {
    double sum = 0.0;
    for (const faro::JobRunStats& job : result.jobs) {
      sum += job.minute_utility[t];
    }
    total += sum;
  }
  const double recomputed = total / static_cast<double>(minutes);
  if (std::abs(recomputed - result.cluster_avg_utility) >
      1e-9 * std::max(1.0, std::abs(recomputed))) {
    std::ostringstream out;
    out.precision(17);
    out << "reported " << result.cluster_avg_utility << ", recomputed " << recomputed;
    return out.str();
  }
  return {};
}

std::string ArrivalProblem(const faro::JobRunStats& job, const faro::Series& trace_per_min,
                           size_t minutes) {
  double mean = 0.0;
  for (size_t m = 0; m < std::min(minutes, trace_per_min.size()); ++m) {
    mean += std::max(0.0, trace_per_min[m]);
  }
  const double arrivals = static_cast<double>(job.arrivals);
  if (std::abs(arrivals - mean) > 6.0 * std::sqrt(mean) + 6.0) {
    return job.name + ": " + std::to_string(job.arrivals) +
           " arrivals, Poisson mean " + std::to_string(mean);
  }
  if (!(job.drops <= job.violations && job.violations <= job.arrivals)) {
    return job.name + ": drops " + std::to_string(job.drops) + ", violations " +
           std::to_string(job.violations) + ", arrivals " + std::to_string(job.arrivals);
  }
  return {};
}

Fingerprint FingerprintOf(const faro::RunResult& result) {
  Fingerprint f;
  f.events = result.events_processed;
  for (const faro::JobRunStats& job : result.jobs) {
    f.requests += job.arrivals;
    f.violations += job.violations;
  }
  f.cluster_utility = result.cluster_avg_utility;
  f.cycles = result.solver.cycles;
  f.evaluations = result.solver.objective_evaluations;
  f.starts = result.solver.starts_launched;
  f.generations = result.actuation.generations_published;
  f.passes = result.actuation.reconcile_passes;
  f.ops = result.actuation.ops_issued;
  f.retries = result.actuation.retries;
  f.replicas_killed = result.faults.replicas_killed;
  return f;
}

std::string Fingerprint::ToString() const {
  std::ostringstream out;
  out.precision(17);
  out << "events=" << events << " requests=" << requests << " violations=" << violations
      << " utility=" << cluster_utility << " cycles=" << cycles << " evals=" << evaluations
      << " starts=" << starts << " generations=" << generations << " passes=" << passes
      << " ops=" << ops << " retries=" << retries << " killed=" << replicas_killed;
  return out.str();
}

namespace {

bool ValidMetricName(const std::string& name) {
  if (name.empty() || !(std::isalpha(static_cast<unsigned char>(name[0])) ||
                        name[0] == '_' || name[0] == ':')) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  });
}

bool ParseSampleValue(const std::string& text, double* value) {
  if (text == "+Inf" || text == "-Inf" || text == "NaN") {
    *value = text == "NaN" ? std::nan("") : (text[0] == '+' ? HUGE_VAL : -HUGE_VAL);
    return true;
  }
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0';
}

}  // namespace

std::string PrometheusProblem(const std::string& text,
                              std::map<std::string, double>* counters) {
  std::set<std::string> helped;
  std::map<std::string, std::string> typed;  // family -> type
  std::istringstream in(text);
  std::string line;
  size_t lineno = 0;
  size_t samples = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string where = "line " + std::to_string(lineno) + ": ";
    if (line.empty()) {
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      const bool help = line[2] == 'H';
      const size_t name_end = line.find(' ', 7);
      const std::string family = line.substr(7, name_end == std::string::npos
                                                    ? std::string::npos
                                                    : name_end - 7);
      if (!ValidMetricName(family)) {
        return where + "bad family name '" + family + "'";
      }
      if (help) {
        if (!helped.insert(family).second) {
          return where + "second HELP for " + family;
        }
      } else {
        if (typed.count(family) != 0) {
          return where + "second TYPE for " + family;
        }
        const std::string type =
            name_end == std::string::npos ? "" : line.substr(name_end + 1);
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return where + "unknown type '" + type + "'";
        }
        typed[family] = type;
      }
      continue;
    }
    if (line[0] == '#') {
      continue;
    }
    // name[{labels}] value
    size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos) {
      return where + "no value";
    }
    const std::string name = line.substr(0, name_end);
    size_t value_start = name_end;
    if (line[name_end] == '{') {
      const size_t close = line.find("} ", name_end);
      if (close == std::string::npos) {
        return where + "unterminated label set";
      }
      value_start = close + 1;
    }
    double value = 0.0;
    if (!ParseSampleValue(line.substr(value_start + 1), &value)) {
      return where + "unparsable value in '" + line + "'";
    }
    std::string family = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s = suffix;
      if (typed.count(family) == 0 && name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        family = name.substr(0, name.size() - s.size());
      }
    }
    const auto type = typed.find(family);
    if (type == typed.end()) {
      return where + "sample " + name + " before its TYPE line";
    }
    ++samples;
    const bool monotone = type->second == "counter" ||
                          (type->second == "histogram" && name == family + "_count");
    if (monotone && counters != nullptr) {
      (*counters)[line.substr(0, value_start)] = value;
    }
  }
  if (samples == 0) {
    return "no samples";
  }
  return {};
}

std::string CounterDecreaseProblem(const std::map<std::string, double>& before,
                                   const std::map<std::string, double>& now) {
  for (const auto& [series, value] : now) {
    const auto it = before.find(series);
    if (it != before.end() && value < it->second) {
      return series + " fell from " + std::to_string(it->second) + " to " +
             std::to_string(value);
    }
  }
  return {};
}

std::string JsonLinesProblem(const std::string& body) {
  std::istringstream in(body);
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.size() < 2 || line.front() != '{' || line.back() != '}') {
      return "line " + std::to_string(lineno) + " is not one JSON object";
    }
  }
  return {};
}

std::string ActuatorProblem(const std::string& body, bool final) {
  if (body.find("\"torn\":0}") == std::string::npos) {
    return "torn generations in " + body;
  }
  if (final && body.find("\"converged\":true") == std::string::npos) {
    return "not converged at the end: " + body;
  }
  return {};
}

}  // namespace perfbench
