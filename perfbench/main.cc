// faro_perfbench: runs one benchmark workload in this process and prints one
// JSON result line (the last line of stdout).
//
//   faro_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out PATH]
//   faro_perfbench --self-test
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate traced
// run that reports the per-layer metrics and writes the span file. See
// README.md for what each metric means and which workload moves it.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/checks.h"
#include "perfbench/probes.h"
#include "perfbench/workloads.h"

namespace perfbench {

int RunSelfTest();  // selftest.cc

namespace {

// PrometheusText() calls timed after each traced round.
constexpr size_t kExpositionReps = 20;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(const CheckTally& checks, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += checks.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted());
  out += ", \"failed\": " + std::to_string(checks.failed()) + ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string Slug(const std::string& target) {
  std::string slug;
  for (const char c : target) {
    if (c == '?') {
      break;
    }
    if (c != '/') {
      slug.push_back(c);
    }
  }
  return slug;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0 &&
         (args.trace == 0 || args.trace == 1);
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (known:", args.workload.c_str());
    for (const WorkloadSpec& w : AllWorkloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }
  const bool traced = args.trace == 1;
  CheckTally checks;
  SpanRecorder spans;
  spans.set_enabled(traced);

  // Set-up, spec->setup_reps times, spread over the run so that setup_s --
  // their median -- samples the host's speed across the run as run_s does:
  // once before the first round (its workload is the one every round uses),
  // then between rounds, and any left over after the last round. Set-up time
  // does not count against --seconds.
  std::vector<double> setup_s;
  std::vector<double> prepare_s;
  std::vector<double> train_s;
  const auto set_up = [&] {
    SetupTiming timing;
    spans.set_enabled(traced);
    const Clock::time_point start = Clock::now();
    Prepared p = Prepare(*spec, spans, &timing);
    setup_s.push_back(SecondsSince(start));
    prepare_s.push_back(timing.prepare_s);
    train_s.push_back(timing.train_s);
    return p;
  };
  const Prepared prepared = set_up();
  const auto more_setups = [&] {
    return setup_s.size() < static_cast<size_t>(spec->setup_reps);
  };

  // Rounds. An untraced run cycles through kTrialsPerSeed request streams
  // and ends on a whole cycle, at the one nearest --seconds, so every
  // stream is timed equally often. The traced run repeats stream 0 and
  // cycles through three kinds of round so that each of its figures has an
  // untraced twin: traced and scraped (the per-layer numbers), untraced and
  // scraped (trace overhead), and unscraped (the engine alone, without
  // daemon or client: the observation tax). The order of the three rotates
  // from cycle to cycle, so that no kind always runs first, and the twins'
  // differences are taken within each cycle.
  enum Kind { kScraped, kTraced, kUnscraped };
  const std::vector<Kind> kinds =
      traced ? std::vector<Kind>{kTraced, kScraped, kUnscraped} : std::vector<Kind>{kScraped};
  const size_t cycle = traced ? kinds.size() : kTrialsPerSeed;
  struct Round {
    Kind kind;
    size_t trial;
    RoundResult data;
  };
  std::vector<Round> rounds;
  std::vector<Fingerprint> first(kTrialsPerSeed);
  double elapsed = 0.0;    // round time so far
  size_t setup_every = 0;  // rounds between set-ups, fixed after the first round
  for (;;) {
    if (!rounds.empty() && rounds.size() % cycle == 0) {
      const double per_cycle = elapsed * cycle / static_cast<double>(rounds.size());
      if (elapsed + 0.5 * per_cycle >= args.seconds) {
        break;
      }
    }
    if (setup_every > 0 && rounds.size() % setup_every == 0 && more_setups()) {
      set_up();
    }
    const Kind kind = kinds[(rounds.size() + rounds.size() / cycle) % kinds.size()];
    const size_t trial = traced ? 0 : rounds.size() % kTrialsPerSeed;
    RoundOptions options;
    options.scraped = kind != kUnscraped;
    options.exposition_reps = kind == kTraced ? kExpositionReps : 0;
    spans.set_enabled(kind == kTraced);
    const Clock::time_point round_start = Clock::now();
    RoundResult round =
        RunRound(*spec, prepared, TrialSeed(args.seed, trial), options, checks, spans);
    elapsed += SecondsSince(round_start);
    if (rounds.empty()) {
      // Spread the remaining set-ups evenly over the rounds the run expects.
      const double expected_rounds = args.seconds / std::max(elapsed, 1e-3);
      setup_every = static_cast<size_t>(std::max(
          1.0, std::floor(expected_rounds / std::max(1.0, spec->setup_reps - 1.0))));
    }
    const Fingerprint fingerprint = FingerprintOf(round.result);
    if (rounds.size() < cycle && (!traced || rounds.empty())) {
      first[trial] = fingerprint;
    }
    checks.Expect(fingerprint == first[trial], "determinism",
                  "round " + std::to_string(rounds.size()) + ": " + fingerprint.ToString() +
                      " vs first " + first[trial].ToString());
    if (kind == kTraced) {
      // Layer sums: the decorators' children never exceed their parent, so
      // the residuals (core self time, sim loop time) are never negative
      // beyond clock granularity.
      for (const DecisionSample& d : round.decisions) {
        checks.Expect(d.decide_ms - d.predict_ms - d.solve_ms >= -0.01, "layer_sum",
                      "decide " + std::to_string(d.decide_ms) + " ms < predict + solve");
      }
      checks.Expect(round.run_s >= round.policy_s, "layer_sum", "policy time exceeds run time");
    }
    rounds.push_back(Round{kind, trial, std::move(round)});
  }
  while (more_setups()) {
    set_up();
  }
  spans.set_enabled(traced);

  const auto pick = [&](Kind kind, auto field) {
    std::vector<double> values;
    for (const Round& round : rounds) {
      if (round.kind == kind) {
        values.push_back(field(round.data));
      }
    }
    return values;
  };
  // Median over whole cycles of the round time of kind `a` minus that of
  // kind `b` in the same cycle.
  const auto paired_median = [&](Kind a, Kind b) {
    std::vector<double> diffs;
    for (size_t c = 0; (c + 1) * cycle <= rounds.size(); ++c) {
      double diff = 0.0;
      for (size_t k = c * cycle; k < (c + 1) * cycle; ++k) {
        diff += rounds[k].kind == a ? rounds[k].data.run_s : 0.0;
        diff -= rounds[k].kind == b ? rounds[k].data.run_s : 0.0;
      }
      diffs.push_back(diff);
    }
    return Median(diffs);
  };
  // Timing samples come from the rounds a figure belongs to: untraced
  // scraped rounds for end-to-end metrics, traced rounds for layer metrics.
  const Kind main_kind = traced ? kTraced : kScraped;
  std::vector<DecisionSample> decisions;
  std::vector<double> metrics_scrape_ms;
  std::vector<double> late_ms;
  for (const Round& round : rounds) {
    if (round.kind != main_kind) {
      continue;
    }
    decisions.insert(decisions.end(), round.data.decisions.begin(),
                     round.data.decisions.end());
    late_ms.insert(late_ms.end(), round.data.late_ms.begin(), round.data.late_ms.end());
    for (const EndpointSamples& e : round.data.endpoints) {
      if (e.target == "/metrics") {
        metrics_scrape_ms.insert(metrics_scrape_ms.end(), e.latency_ms.begin(),
                                 e.latency_ms.end());
      }
    }
  }
  const auto decision_field = [&](auto field) {
    std::vector<double> values;
    for (const DecisionSample& d : decisions) {
      values.push_back(field(d));
    }
    return values;
  };
  const std::vector<double> decide_ms =
      decision_field([](const DecisionSample& d) { return d.decide_ms; });
  const RoundResult& r0 = rounds.front().data;
  const faro::RunResult& result = r0.result;

  std::vector<Metric> metrics;
  if (!traced) {
    // Quality, and round time, over the seed's request streams: each stream
    // counts once. A stream's round time is the median of its rounds, so
    // one slow round counts for little; the streams differ in cost, so a
    // median over all rounds would jump between them from seed to seed.
    double utility = 0.0;
    double run_s = 0.0;
    for (size_t t = 0; t < kTrialsPerSeed; ++t) {
      utility += rounds[t].data.result.cluster_avg_utility / kTrialsPerSeed;
      std::vector<double> stream_run_s;
      for (const Round& round : rounds) {
        if (round.trial == t) {
          stream_run_s.push_back(round.data.run_s);
        }
      }
      run_s += Median(stream_run_s) / kTrialsPerSeed;
    }
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"run_s", run_s, "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"cluster_utility", utility, "utility"},
        {"scrape_p50_ms", Quantile(metrics_scrape_ms, 0.5), "ms"},
    };
  } else {
    const double per_round_decisions = static_cast<double>(r0.decisions.size());
    const auto per_decision = [&](double total) {
      return per_round_decisions > 0 ? total / per_round_decisions : 0.0;
    };
    uint64_t evals = 0, starts = 0, saved = 0;
    double predict_total = 0.0;
    for (const DecisionSample& d : r0.decisions) {
      evals += d.evaluations;
      starts += d.starts;
      saved += d.race_evals_saved;
    }
    for (const DecisionSample& d : decisions) {
      predict_total += d.predict_ms;
    }
    uint64_t requests = 0;
    double capacity_lost = 0.0;
    for (const faro::JobRunStats& job : result.jobs) {
      requests += job.arrivals;
      capacity_lost += job.capacity_seconds_lost;
    }
    const double loop_s = Median(
        pick(kTraced, [](const RoundResult& r) { return r.run_s - r.policy_s; }));
    const double cache_total = static_cast<double>(r0.cache.hits + r0.cache.misses);
    metrics = {
        {"workload.prepare_s", Median(prepare_s), "s"},
        {"forecast.train_s", Median(train_s), "s"},
        {"forecast.predict_calls", static_cast<double>(r0.predict_calls), "count"},
        {"forecast.predict_ms_per_decision",
         decisions.empty() ? 0.0 : predict_total / static_cast<double>(decisions.size()),
         "ms"},
        {"optim.solve_ms_p50",
         Quantile(decision_field([](const DecisionSample& d) { return d.solve_ms; }), 0.5),
         "ms"},
        {"optim.solve_ms_p95",
         Quantile(decision_field([](const DecisionSample& d) { return d.solve_ms; }), 0.95),
         "ms"},
        {"optim.evals_per_decision", per_decision(static_cast<double>(evals)), "count"},
        {"optim.starts_per_decision", per_decision(static_cast<double>(starts)), "count"},
        {"optim.race_evals_saved_per_decision", per_decision(static_cast<double>(saved)),
         "count"},
        {"queueing.cache_hits", static_cast<double>(r0.cache.hits), "count"},
        {"queueing.cache_misses", static_cast<double>(r0.cache.misses), "count"},
        {"queueing.cache_hit_ratio",
         cache_total > 0 ? static_cast<double>(r0.cache.hits) / cache_total : 0.0, "ratio"},
        {"core.decisions", per_round_decisions, "count"},
        {"core.fastreact_calls", static_cast<double>(r0.fastreact_calls), "count"},
        {"core.decide_trimmed_mean_ms", TrimmedMean(decide_ms, 0.1), "ms"},
        {"core.decide_ms_p95", Quantile(decide_ms, 0.95), "ms"},
        {"core.decide_self_ms_p50",
         Quantile(decision_field([](const DecisionSample& d) {
                    return d.decide_ms - d.predict_ms - d.solve_ms;
                  }),
                  0.5),
         "ms"},
        {"core.policy_s_total",
         Median(pick(kTraced, [](const RoundResult& r) { return r.policy_s; })), "s"},
        {"core.owed_replicas_peak", r0.owed_peak, "x_capacity"},
        {"core.over_capacity_reissues", static_cast<double>(r0.over_capacity_reissues),
         "count"},
        {"sim.events", static_cast<double>(result.events_processed), "count"},
        {"sim.requests", static_cast<double>(requests), "count"},
        {"sim.loop_s", loop_s, "s"},
        {"sim.events_per_s",
         loop_s > 0 ? static_cast<double>(result.events_processed) / loop_s : 0.0, "1/s"},
        {"actuate.generations", static_cast<double>(result.actuation.generations_published),
         "count"},
        {"actuate.passes", static_cast<double>(result.actuation.reconcile_passes), "count"},
        {"actuate.ops", static_cast<double>(result.actuation.ops_issued), "count"},
        {"actuate.retries", static_cast<double>(result.actuation.retries), "count"},
        {"actuate.superseded", static_cast<double>(result.actuation.generations_superseded),
         "count"},
        {"actuate.fence_rejections", static_cast<double>(result.actuation.fence_rejections),
         "count"},
        {"faults.replica_kills", static_cast<double>(result.faults.replicas_killed), "count"},
        {"faults.capacity_s_lost", capacity_lost, "s"},
    };
    std::vector<double> exposition_ms;
    double exposition_bytes = 0.0;
    for (const Round& round : rounds) {
      exposition_ms.insert(exposition_ms.end(), round.data.exposition_ms.begin(),
                           round.data.exposition_ms.end());
      exposition_bytes = std::max(exposition_bytes, round.data.exposition_bytes);
    }
    metrics.push_back({"obs.exposition_ms_p50", Quantile(exposition_ms, 0.5), "ms"});
    metrics.push_back({"obs.exposition_bytes", exposition_bytes, "bytes"});
    metrics.push_back({"obs.alert_onsets", static_cast<double>(r0.alert_onsets), "count"});
    metrics.push_back({"obs.audit_records", static_cast<double>(r0.audit_records), "count"});
    // Every endpoint of the richest workload, so each run names the same set;
    // an endpoint a workload does not poll reads 0.
    for (const std::string target :
         {"/metrics", "/alerts", "/audit", "/healthz", "/actuator"}) {
      std::vector<double> latency, bytes;
      for (const Round& round : rounds) {
        if (round.kind != kTraced) {
          continue;
        }
        for (const EndpointSamples& e : round.data.endpoints) {
          if (Slug(e.target) == Slug(target)) {
            latency.insert(latency.end(), e.latency_ms.begin(), e.latency_ms.end());
            bytes.insert(bytes.end(), e.bytes.begin(), e.bytes.end());
          }
        }
      }
      metrics.push_back({"serve." + Slug(target) + "_p50_ms", Quantile(latency, 0.5), "ms"});
      metrics.push_back({"serve." + Slug(target) + "_bytes", Median(bytes), "bytes"});
    }
    metrics.push_back({"serve.metrics_p95_ms", Quantile(metrics_scrape_ms, 0.95), "ms"});
    metrics.push_back({"serve.generator_late_ms_p95", Quantile(late_ms, 0.95), "ms"});
    metrics.push_back(
        {"serve.unscraped_run_s",
         Median(pick(kUnscraped, [](const RoundResult& r) { return r.run_s; })), "s"});
    metrics.push_back(
        {"serve.observation_tax_s", paired_median(kScraped, kUnscraped), "s"});
    metrics.push_back({"trace.overhead_s", paired_median(kTraced, kScraped), "s"});
    metrics.push_back({"trace.spans", static_cast<double>(spans.size()), "count"});

    std::string path = args.trace_out;
    if (path.empty()) {
      std::filesystem::create_directories(".bench_trace");
      path = ".bench_trace/" + spec->name + "-seed" + std::to_string(args.seed) + ".json";
    }
    if (!checks.Expect(spans.WriteChromeTrace(path), "trace_file", "cannot write " + path)) {
      path.clear();
    }
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans.size(), path.c_str());
  }
  for (Metric& m : metrics) {
    if (!checks.Expect(std::isfinite(m.value), "finite_metric", m.name)) {
      m.value = 0.0;
    }
  }
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu rounds, %zu decisions sampled\n",
               spec->name.c_str(), static_cast<unsigned long long>(args.seed), rounds.size(),
               decisions.size());
  PrintResult(checks, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // The program's worker pool (solver fan-out, sharded-engine shards) gets
  // one thread, so that it, the HTTP server thread, the live actuator and the
  // scrape client stay within four cores; on this benchmark's noisy hosts
  // one worker also measured steadier than two. The self-test uses three, so
  // that its wide runs really run in parallel.
  const bool self_test = argc == 2 && std::strcmp(argv[1], "--self-test") == 0;
  setenv("FARO_THREADS", self_test ? "3" : "1", 1);
  if (self_test) {
    return perfbench::RunSelfTest();
  }
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: faro_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH]\n       faro_perfbench --self-test\n");
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
