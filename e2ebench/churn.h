#ifndef E2EBENCH_CHURN_H_
#define E2EBENCH_CHURN_H_

// The daemon-churn load generator: an in-process Daemon on a Unix socket
// in a private temporary directory, and closed-loop client threads that
// each repeat create -> evict -> poll until done -> fetch result.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"
#include "ipc/messages.h"

namespace e2ebench {

/// One session configuration clients cycle through.
struct ChurnConfig {
  size_t task = 0;  ///< Index into ChurnSetup::tasks.
  volcanoml::SessionConfig config;
};

struct ChurnSetup {
  std::vector<Task> tasks;
  std::vector<ChurnConfig> configs;
  /// Closed-loop clients: 3, fewer when the daemon thread and the
  /// clients would outnumber the cores.
  size_t clients = 3;
  /// Resident-executor cap; below the number of live sessions.
  size_t max_resident = 2;
  /// Sessions of the timed loop; session k runs config k mod #configs on
  /// client k mod #clients, so every run of a setup does the same work.
  size_t sessions = 100;
  /// Directory the per-run temporary directory is created in.
  std::string work_dir = ".";
};

/// What one completed session returned.
struct SessionResult {
  double best_utility = 0.0;
  std::vector<volcanoml::TrajectoryPoint> trajectory;
  volcanoml::Assignment best_assignment;
  uint64_t evaluations = 0;
};

/// Best utility and trajectory equal bit for bit.
bool SameResult(const SessionResult& a, const SessionResult& b);

struct ChurnResult {
  bool started = false;
  std::string error;
  double wall_seconds = 0.0;
  size_t sessions_attempted = 0;
  size_t sessions_done = 0;
  size_t sessions_failed = 0;
  size_t requests = 0;
  size_t request_failures = 0;
  uint64_t evaluations = 0;
  double idle_rtt_s = 0.0;
  /// CreateSession round trips on the idle daemon (parked sessions).
  std::vector<double> setup_s;
  std::vector<double> create_s, evict_s, query_s, fetch_s, turnaround_s;
  size_t evictions_seen = 0;
  size_t restores_seen = 0;
  /// First result per config index; repeats must match it exactly.
  std::vector<bool> have_result;
  std::vector<SessionResult> results;
  size_t repeat_mismatches = 0;
};

/// The daemon-churn session mix for `seed`: the churn pool's datasets
/// (train split capped at `max_train_rows`) times the three plans.
ChurnSetup MakeChurnSetup(uint64_t seed, size_t max_train_rows,
                          double budget);

/// Starts a daemon, warms it up with one untimed session, measures the
/// idle round trip and the set-up time, runs the closed loop over
/// `setup.sessions`, shuts the daemon down and removes its directory.
/// Client request spans go to `tracer`.
ChurnResult RunChurn(const ChurnSetup& setup, Tracer* tracer);

/// Adds the ipc and daemon per-layer metrics of a churn run.
void AddIpcLayerMetrics(const ChurnResult& churn, MetricSet* metrics);

}  // namespace e2ebench

#endif  // E2EBENCH_CHURN_H_
