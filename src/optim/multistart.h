// Multi-start Stage-2 solve driver (§3.4, §5).
//
// Faro's sloppified objective is solvable by one stock local solver -- COBYLA
// with an initial variable change of 2 -- but any single start can still
// stall (fairness ridges, saturated clusters) or land infeasible. The driver
// runs COBYLA from K deterministic-seeded start points (warm starts, a
// capacity heuristic, jittered variants) and allocates the evaluation budget
// among them with a best-arm-identification race (src/optim/bai.h).
//
// Budget tiers: the primary start (index 0) may spend the full configured
// budget; other non-scout ("anchor") starts a quarter of it with a higher
// floor; heuristic and jittered starts are scouts, capped at a quarter --
// they exist to reveal a basin change after a load shift, not to be
// polished.
//
// The race, in three phases:
//
//   1. Anchors run serially in index order at their tier cap (the primary
//      optionally on a shorter `racing_confirm_evals` prefix). An anchor has
//      "early-exit quality" iff its start and result are feasible within
//      `feasibility_tolerance` and the solve improved on the start's
//      objective by at most 5% of (1 + |start value|). That stability bar
//      says the start already sat on the optimum -- the common steady-state
//      cycle -- so the lowest exit-quality anchor wins among anchors 0..e
//      and every later start is cancelled unrun. Formal convergence is not
//      required: on large problems the solver hits its cap first, and
//      failing to beat the bar under a full budget is the same evidence.
//   2. With no exit, every scout runs a cheap probe solve (max(64,
//      2*dim + 24) evaluations, clamped to its cap). Probes fan out across
//      the shared thread pool; each is a pure function of its index.
//   3. Racing rounds, merged serially in index order: prune every scout
//      whose optimistic value (probe merit minus its observed probe gain
//      minus an unknown-variance confidence radius over the pooled gains)
//      cannot beat the leader, extend the most promising survivor to its
//      tier cap, repeat. A total-budget guard never spends more than the
//      sum of the racing arms' tier caps.
//
// Extension re-runs COBYLA from the arm's original start at the larger cap.
// COBYLA consults `max_evaluations` only to stop, so a capped run is an exact
// prefix of a longer one: an extended arm's result is bit-identical to a
// direct `Cobyla(problem, start, tier cap)` call, and a probe that stopped
// below its budget converged at rho_end and is final as it stands. Pruned
// probes are never ranked. The winner is the best final result (feasible
// before infeasible, then lower objective, ties to the lower index).
//
// Determinism contract (the experiment harness's): the result is bit-identical
// at every `max_parallelism`. Anchors run serially, probes are pure functions
// of their index, jitter draws from an Rng seeded by HashCombine(seed, start
// index), and every leader/challenger/prune decision is a pure function of
// the accumulated arm statistics, merged in index order behind the probe
// barrier -- never of thread interleaving or wall time. The one exception is
// the opt-in wall-clock deadline (degradation ladder).

#ifndef SRC_OPTIM_MULTISTART_H_
#define SRC_OPTIM_MULTISTART_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "src/obs/trace.h"
#include "src/optim/bai.h"
#include "src/optim/cobyla.h"
#include "src/optim/problem.h"

namespace faro {

// Provenance of a start point, reported as telemetry ("which start won").
enum class StartKind : uint8_t {
  kWarmCurrent = 0,   // the currently deployed allocation
  kPrevSolution = 1,  // previous cycle's continuous solution (warm-start cache)
  kHeuristic = 2,     // capacity-proportional heuristic point
  kJitter = 3,        // seeded perturbation of one of the above
};
const char* StartKindName(StartKind kind);

struct StartPoint {
  std::vector<double> x;
  StartKind kind = StartKind::kHeuristic;
};

struct MultiStartConfig {
  CobylaConfig cobyla;
  // A result counts as feasible when its max constraint violation (capacity
  // and box bounds) is at most this.
  double feasibility_tolerance = 1e-3;
  // Early exit on the lowest-indexed anchor whose start was already
  // near-optimal (see the stability bar above).
  bool early_exit = true;
  // Root seed for the jittered start variants.
  uint64_t seed = 0;
  // Thread cap for the scout probe fan-out: 0 = shared pool size, 1 = serial
  // in index order. Results are bit-identical at every setting.
  size_t max_parallelism = 0;
  // Wall-clock deadline (degradation ladder): arms that have not started
  // when the deadline passes are skipped and `deadline_hit` is reported;
  // already-running solves finish. Off by default -- a deadline makes which
  // arms ran (and hence the winner) depend on wall time, trading the
  // bit-determinism contract for bounded decision latency.
  bool deadline_enabled = false;
  std::chrono::steady_clock::time_point deadline{};
  // When > 0 and below the primary tier cap, the primary start runs only this
  // many evaluations. If it passes the stability bar the cycle ends there
  // (the common steady-state case); otherwise the truncated result stands and
  // the race decides whether a scout basin beats it.
  int racing_confirm_evals = 0;
  // Observability: each solve records a wall-clock span (one trace track per
  // start index) into this session. Measurement only.
  TraceSession trace;
};

struct MultiStartResult {
  OptimResult best;
  size_t winner_start = 0;  // index into the expanded start list
  StartKind winner_kind = StartKind::kHeuristic;
  size_t starts_total = 0;     // starts after jitter expansion
  size_t starts_launched = 0;  // starts that consumed any evaluations
  // Starts that did not run to their budget, by cause (disjoint): cancelled
  // by the early-exit rule before starting, skipped/abandoned by the
  // wall-clock deadline, or stopped by the BAI stopping rule (pruned arms ran
  // a probe, so they also count as launched).
  size_t starts_cancelled = 0;
  size_t starts_deadline_skipped = 0;
  size_t starts_pruned = 0;
  bool early_exit = false;   // winner came from the early-exit rule
  bool deadline_hit = false; // at least one start was skipped by the deadline
  int64_t evaluations = 0;   // objective evaluations across launched starts
  RacingTelemetry race;
};

// Appends `extra_jittered` seeded perturbations of the given starts, clips
// every start (all coordinates, drop rates included) into the problem's box
// bounds, races them as described above, and returns the deterministic
// winner. `starts` must be non-empty. On a deadline hit before any anchor
// ran, `best.x` is empty and the caller's degradation ladder takes over.
MultiStartResult MultiStartSolve(const Problem& problem, std::vector<StartPoint> starts,
                                 size_t extra_jittered, const MultiStartConfig& config);

}  // namespace faro

#endif  // SRC_OPTIM_MULTISTART_H_
