#include "perfbench/workloads.h"

#include <stdexcept>

#include "perfbench/checks.h"
#include "src/core/autoscaler.h"
#include "src/faults/faultplan.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/serve/daemon.h"
#include "src/serve/http.h"

namespace perfbench {

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;
    // The control plane: Faro-FairSum with a trained N-HiTS predictor on the
    // paper's standard 10-job mix over 32 replicas in cluster (noisy) mode,
    // Table 3's shape, over the first 180 sim-minutes of the evaluation day
    // (~37 decisions a round).
    WorkloadSpec day;
    day.name = "faro-day";
    day.jobs = 10;
    day.capacity = 32.0;
    day.minutes = 180;
    day.policy = "Faro-FairSum";
    day.epochs = 2;
    day.targets = {"/metrics", "/alerts", "/audit?tail=64", "/healthz"};
    w.push_back(day);
    // The data plane: AIAD, whose decisions cost next to nothing, over 120
    // jobs on the sharded engine, so the event loop, request pools, calendar
    // queue, reconciler first passes and SLO ledger do the work.
    WorkloadSpec fleet;
    fleet.name = "fleet";
    // Its set-up is PrepareWorkload alone (~0.7 s), so it is timed more often.
    fleet.setup_reps = 7;
    fleet.jobs = 120;
    fleet.capacity = 432.0;  // right-sized: 3.6 replicas per job, as for 10 jobs
    fleet.right_size = 432.0;
    fleet.minutes = 40;
    fleet.engine = faro::SimEngine::kSharded;
    fleet.policy = "AIAD";
    fleet.targets = {"/metrics", "/alerts", "/audit?tail=64", "/healthz"};
    w.push_back(fleet);
    // The live plane under chaos: the Fig. 17 cluster (8 four-replica nodes,
    // spread placement) losing a node, Faro with a trained predictor and the
    // forecast guard faro_serve arms, the live actuator racing the replay,
    // and every endpoint scraped. 240 minutes keep the crash and recovery in
    // frame, as the chaos bench's fast mode does.
    WorkloadSpec crash;
    crash.name = "serve-crash";
    crash.jobs = 10;
    crash.capacity = 32.0;
    crash.nodes = 8;
    crash.minutes = 240;
    crash.faults = "node-crash";
    crash.policy = "Faro-FairSum";
    crash.epochs = 2;
    crash.live_actuator = true;
    crash.forecast_max_jump = 8.0;
    crash.targets = {"/metrics", "/alerts", "/audit?tail=64", "/healthz", "/actuator"};
    w.push_back(crash);
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

Prepared Prepare(const WorkloadSpec& spec, SpanRecorder& spans, SetupTiming* timing,
                 size_t shorten_to) {
  Prepared p;
  p.setup.num_jobs = spec.jobs;
  p.setup.capacity = spec.capacity;
  p.setup.right_size_replicas = spec.right_size;
  p.setup.seed = kMixSeed;
  p.setup.engine = spec.engine;
  p.setup.trials = 1;
  std::vector<std::string> node_names;
  for (size_t n = 0; n < spec.nodes; ++n) {
    node_names.push_back("node" + std::to_string(n));
    p.setup.nodes.push_back(faro::Node{node_names.back(), spec.capacity / spec.nodes,
                                       spec.capacity / spec.nodes});
  }

  double start_us = spans.enabled() ? spans.NowUs() : 0.0;
  Clock::time_point start = Clock::now();
  p.workload = faro::PrepareWorkload(p.setup);
  timing->prepare_s = SecondsSince(start);
  spans.Add("PrepareWorkload", "workload", kMainTid, start_us, spans.NowUs());

  if (spec.epochs > 0) {
    start_us = spans.enabled() ? spans.NowUs() : 0.0;
    start = Clock::now();
    p.predictor = faro::TrainPredictor(p.workload, p.setup.seed, spec.epochs);
    timing->train_s = SecondsSince(start);
    spans.Add("TrainPredictor", "forecast", kMainTid, start_us, spans.NowUs());
  }

  const size_t minutes = shorten_to > 0 ? shorten_to : spec.minutes;
  if (minutes > 0) {
    for (faro::SimJobConfig& job : p.workload.jobs) {
      if (job.arrival_rate_per_min.size() > minutes) {
        job.arrival_rate_per_min = job.arrival_rate_per_min.Slice(0, minutes);
      }
    }
  }
  p.minutes = p.workload.jobs.empty() ? 0 : p.workload.jobs[0].arrival_rate_per_min.size();
  if (!spec.faults.empty()) {
    p.setup.faults =
        faro::MakeFaultScenario(spec.faults, 60.0 * static_cast<double>(p.minutes), node_names);
    if (!p.setup.faults.active()) {
      throw std::invalid_argument("unknown fault scenario " + spec.faults);
    }
  }
  return p;
}

RoundResult RunRound(const WorkloadSpec& spec, const Prepared& prepared,
                     uint64_t trial_seed, const RoundOptions& options, CheckTally& checks,
                     SpanRecorder& spans) {
  RoundResult round;
  // Every round starts from an empty registry so each one exposes, and is
  // scraped for, the same amount of state.
  faro::MetricsRegistry::Global().ResetForTest();
  faro::AuditLog audit;

  std::shared_ptr<TimedPredictor> predictor;
  std::unique_ptr<faro::AutoscalingPolicy> inner;
  if (spec.policy == "AIAD") {
    inner = faro::MakePolicy(spec.policy, nullptr);
  } else {
    // MakePolicy("Faro-FairSum") with the predictor behind a timing
    // decorator: the same FaroAutoscaler, config and predictor.
    faro::FaroConfig config;
    config.objective = faro::ObjectiveKind::kFairSum;
    config.forecast_max_jump = spec.forecast_max_jump;
    config.solve_parallelism = options.solve_parallelism;
    config.audit = &audit;
    config.audit_label = spec.name;
    if (prepared.predictor != nullptr) {
      predictor = std::make_shared<TimedPredictor>(prepared.predictor, checks, spans);
    }
    inner = std::make_unique<faro::FaroAutoscaler>(config, predictor);
  }
  TimedPolicy policy(*inner, predictor.get(), checks, spans);

  faro::SimConfig config = faro::BuildSimConfig(prepared.setup, trial_seed);
  config.obs_metrics = true;
  config.shard_threads = options.shard_threads;
  const std::vector<faro::SimJobConfig>& jobs = prepared.workload.jobs;

  const faro::QueueingCacheStats cache_before = faro::GetGlobalQueueingCacheStats();
  const double start_us = spans.enabled() ? spans.NowUs() : 0.0;
  if (options.scraped) {
    faro::ServeOptions serve;
    serve.batch = true;
    serve.audit = &audit;
    serve.live_actuator = spec.live_actuator;
    faro::ReplayDaemon daemon(config, jobs, policy, serve);
    if (!checks.Expect(daemon.StartServer(), "serve_start", "cannot bind a loopback port")) {
      throw std::runtime_error("replay daemon could not start its HTTP server");
    }
    Scraper scraper(daemon.port(), spec.targets, spec.scrape_interval_ms, checks, spans);
    scraper.Start();
    const Clock::time_point start = Clock::now();
    round.result = daemon.Run();
    round.run_s = SecondsSince(start);
    scraper.Stop();
    round.endpoints = scraper.endpoints();
    round.late_ms = scraper.late_ms();
    round.alert_onsets = daemon.alert_onsets();
    if (spec.live_actuator) {
      int status = 0;
      std::string body;
      const bool ok = faro::HttpFetch(daemon.port(), "GET", "/actuator", "", &status, &body);
      const std::string problem =
          ok && status == 200 ? ActuatorProblem(body, /*final=*/true) : "no final snapshot";
      checks.Expect(problem.empty(), "actuator_final", problem);
    }
  } else {
    const Clock::time_point start = Clock::now();
    round.result = faro::RunSimulation(config, jobs, policy);
    round.run_s = SecondsSince(start);
  }
  spans.Add(options.scraped ? "ReplayDaemon::Run" : "RunSimulation", "sim", kMainTid,
            start_us, spans.NowUs());
  const faro::QueueingCacheStats cache_after = faro::GetGlobalQueueingCacheStats();
  round.cache.hits = cache_after.hits - cache_before.hits;
  round.cache.misses = cache_after.misses - cache_before.misses;

  round.decisions = policy.decisions();
  round.fastreact_calls = policy.fastreact_calls();
  round.policy_s = policy.policy_seconds();
  round.owed_peak = policy.owed_peak();
  round.over_capacity_reissues = policy.over_capacity_reissues();
  round.predict_calls = predictor != nullptr ? predictor->calls() : 0;
  round.audit_records = audit.size();

  for (size_t i = 0; i < options.exposition_reps; ++i) {
    const double rep_us = spans.enabled() ? spans.NowUs() : 0.0;
    const Clock::time_point start = Clock::now();
    const std::string text = faro::MetricsRegistry::Global().PrometheusText();
    round.exposition_ms.push_back(1000.0 * SecondsSince(start));
    spans.Add("PrometheusText", "obs", kMainTid, rep_us, spans.NowUs());
    round.exposition_bytes = static_cast<double>(text.size());
  }

  const faro::RunResult& r = round.result;
  checks.Expect(r.jobs.size() == jobs.size(), "result_shape",
                std::to_string(r.jobs.size()) + " job results");
  const std::string utility = ClusterUtilityProblem(r);
  checks.Expect(utility.empty(), "cluster_utility", utility);
  for (size_t j = 0; j < r.jobs.size() && j < jobs.size(); ++j) {
    const std::string attribution = AttributionProblem(r.jobs[j]);
    checks.Expect(attribution.empty(), "attribution", attribution);
    const std::string arrivals =
        ArrivalProblem(r.jobs[j], jobs[j].arrival_rate_per_min, prepared.minutes);
    checks.Expect(arrivals.empty(), "arrivals", arrivals);
  }
  return round;
}

}  // namespace perfbench
