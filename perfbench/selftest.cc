// The benchmark's own tests (faro_perfbench --self-test):
//  1. determinism: every workload, on a shortened horizon, gives the same
//     deterministic outputs run serially (one solver thread, one shard, no
//     daemon) and wide (the pool, three shards, daemon and scrape client);
//  2. every check passes on those real results;
//  3. every check fails on a corrupted copy of a real result, so a check that
//     cannot fail would show here.

#include <cmath>
#include <cstdio>
#include <string>

#include "perfbench/checks.h"
#include "perfbench/probes.h"
#include "perfbench/workloads.h"
#include "src/obs/metrics.h"

namespace perfbench {

int RunSelfTest() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::fprintf(stderr, "%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };
  const auto fails = [&](const std::string& problem, const std::string& what) {
    expect(!problem.empty(), what + " is caught (" + problem + ")");
  };

  CheckTally checks;
  SpanRecorder spans;
  faro::RunResult real;
  std::vector<faro::SimJobConfig> real_jobs;
  size_t real_minutes = 0;
  for (const WorkloadSpec& spec : AllWorkloads()) {
    SetupTiming timing;
    const Prepared prepared = Prepare(spec, spans, &timing, /*shorten_to=*/30);
    RoundOptions serial;
    serial.scraped = false;
    serial.solve_parallelism = 1;
    serial.shard_threads = 1;
    RoundOptions wide;
    wide.shard_threads = 3;
    const RoundResult a = RunRound(spec, prepared, TrialSeed(7, 0), serial, checks, spans);
    const RoundResult b = RunRound(spec, prepared, TrialSeed(7, 0), wide, checks, spans);
    const Fingerprint fa = FingerprintOf(a.result);
    const Fingerprint fb = FingerprintOf(b.result);
    expect(fa == fb, spec.name + ": serial and wide runs agree (" + fa.ToString() + ")");
    expect(fa.events > 0 && fa.requests > 0, spec.name + ": the run did work");
    real = b.result;
    real_jobs = prepared.workload.jobs;
    real_minutes = prepared.minutes;
  }
  expect(checks.failed() == 0 && checks.attempted() > 0,
         "all " + std::to_string(checks.attempted()) + " checks pass on real runs");

  // Corrupted copies of the last real result (serve-crash: nodes, faults,
  // live actuator).
  expect(ClusterUtilityProblem(real).empty(), "cluster utility holds on the real result");
  faro::RunResult bad = real;
  bad.cluster_avg_utility += 1e-6;
  fails(ClusterUtilityProblem(bad), "a cluster utility off by 1e-6");

  faro::JobRunStats job = real.jobs[0];
  expect(AttributionProblem(job).empty(), "attribution holds on the real result");
  double& bucket = job.minute_lost_by_cause[0][job.minute_utility.size() / 2];
  bucket = std::nextafter(bucket, 1.0);
  fails(AttributionProblem(job), "an attribution bucket one ulp off");

  job = real.jobs[0];
  expect(ArrivalProblem(job, real_jobs[0].arrival_rate_per_min, real_minutes).empty(),
         "arrivals hold on the real result");
  job.arrivals *= 2;
  fails(ArrivalProblem(job, real_jobs[0].arrival_rate_per_min, real_minutes),
        "twice the arrivals");
  job = real.jobs[0];
  job.drops = job.violations + 1;
  fails(ArrivalProblem(job, real_jobs[0].arrival_rate_per_min, real_minutes),
        "more drops than violations");

  bad = real;
  ++bad.events_processed;
  expect(!(FingerprintOf(bad) == FingerprintOf(real)), "one extra event breaks determinism");

  std::vector<faro::JobSpec> specs(3);
  const faro::ClusterResources resources{6.0, 6.0};
  const std::vector<uint32_t> held = {2, 2, 2};
  faro::ScalingAction action;
  action.replicas = {2, 2, 2};
  bool reissued = true;
  expect(ActionProblem(action, specs, resources, held, &reissued).empty() && !reissued,
         "a feasible action passes");
  expect(ActionProblem(action, specs, {5.0, 5.0}, held, &reissued).empty() && reissued,
         "re-issuing an allocation held over capacity passes, and is counted");
  action.replicas = {1, 2, 3};
  fails(ActionProblem(action, specs, {5.0, 5.0}, held),
        "an action over capacity that grows one job inside the held total");
  action.replicas = {2, 2, 3};
  fails(ActionProblem(action, specs, resources, held), "an action over capacity");
  action.replicas = {2, 0, 2};
  fails(ActionProblem(action, specs, resources, held), "a job with no replica");
  action.replicas = {2, 2};
  fails(ActionProblem(action, specs, resources, held), "an action missing a job");
  action.replicas = {2, 2, 2};
  action.drop_rates = {0.0, 1.5, 0.0};
  fails(ActionProblem(action, specs, resources, held), "a drop rate of 1.5");

  const std::vector<double> forecast = {1.0, 2.0, 3.0};
  expect(ForecastProblem(forecast, 3).empty(), "a sane forecast passes");
  fails(ForecastProblem(forecast, 4), "a forecast one step short");
  fails(ForecastProblem(std::vector<double>{1.0, std::nan(""), 3.0}, 3), "a NaN forecast");
  fails(ForecastProblem(std::vector<double>{1.0, -0.5, 3.0}, 3), "a negative forecast");

  const std::string text = faro::MetricsRegistry::Global().PrometheusText();
  std::map<std::string, double> counters;
  expect(PrometheusProblem(text, &counters).empty() && !counters.empty(),
         "the live exposition parses, with counters");
  const size_t help = text.find("# HELP ");
  fails(PrometheusProblem(text + text.substr(help, text.find('\n', help) - help + 1), nullptr),
        "a family with two HELP lines");
  fails(PrometheusProblem("faro_orphan_total 3\n", nullptr), "a sample without TYPE");
  fails(PrometheusProblem("# TYPE faro_x counter\nfaro_x three\n", nullptr),
        "an unparsable sample value");
  std::map<std::string, double> lower = counters;
  lower.begin()->second -= 1.0;
  fails(CounterDecreaseProblem(counters, lower), "a counter that decreases");

  expect(JsonLinesProblem("{\"a\":1}\n{\"b\":2}\n").empty(), "JSON lines pass");
  fails(JsonLinesProblem("{\"a\":1}\nnot json\n"), "a line that is not JSON");
  const std::string actuator =
      "{\"generation\":3,\"converged\":true,\"op_log\":{\"entries\":3,\"torn\":0}}";
  expect(ActuatorProblem(actuator, true).empty(), "a converged actuator passes");
  fails(ActuatorProblem("{\"converged\":true,\"op_log\":{\"torn\":1}}", false),
        "a torn generation");
  fails(ActuatorProblem("{\"converged\":false,\"op_log\":{\"torn\":0}}", true),
        "an actuator not converged at the end");

  std::fprintf(stderr, "self-test: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
