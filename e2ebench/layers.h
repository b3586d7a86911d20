#ifndef E2EBENCH_LAYERS_H_
#define E2EBENCH_LAYERS_H_

// Per-layer attribution of in-process searches, measured from outside the
// library: every number comes from timing calls into a layer's public API,
// either during the search (core, snapshot) or by replaying the search's
// committed history after it ended (eval, bo, fe, ml).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/volcano_ml.h"
#include "harness.h"

namespace e2ebench {

/// A finished traced search, kept for the replays.
struct KeptSearch {
  uint64_t owner = 0;
  volcanoml::VolcanoMlOptions options;
  std::unique_ptr<volcanoml::VolcanoML> automl;
  /// Wall seconds spent in PlanExecutor::Step.
  double step_seconds = 0.0;
};

/// Counters gathered beside the spans.
struct LayerTotals {
  /// Threads the replays run on (the workload's engine threads).
  size_t threads = 1;
  /// Step and engine counters of every traced search (CountSearch).
  size_t searches = 0;
  size_t steps = 0;
  size_t evaluations = 0;
  size_t memo_hits = 0;
  /// Step time of the kept (replayed) searches only: the base of the
  /// replayed layers' shares.
  double step_seconds = 0.0;
  size_t failed_trials = 0;
  std::vector<double> snapshot_bytes;
  std::map<std::string, double> ml_busy_by_algorithm;
  /// Replayed trials whose utility differed from the committed one, and
  /// restored snapshots that did not re-serialize to the same bytes.
  size_t mismatches = 0;
};

/// Adds a finished search's step and engine counters to `totals`.
void CountSearch(const volcanoml::VolcanoML& automl, LayerTotals* totals);

/// Times PlanExecutor::SaveSnapshot and a LoadSnapshot into a freshly
/// prepared twin (spans snapshot.save / snapshot.load).
void TimeSnapshot(const KeptSearch& search, Tracer* tracer,
                  LayerTotals* totals);

/// Replays the committed history of every kept search: distinct requests
/// through EvalContext::EvaluateOnce (eval.trial), the optimizer calls
/// (bo.suggest / bo.observe) and the FE / model fits (fe.fit / ml.fit).
/// Runs on `totals->threads` threads, like the search did.
void ReplayLayers(const std::vector<KeptSearch>& searches, Tracer* tracer,
                  LayerTotals* totals);

/// Adds the core, bo, eval, fe, ml and snapshot per-layer metrics.
void AddSearchLayerMetrics(const Tracer& tracer, const LayerTotals& totals,
                           MetricSet* metrics);

/// Prints self time per layer (span duration minus its children).
void PrintSelfTimes(const Tracer& tracer);

}  // namespace e2ebench

#endif  // E2EBENCH_LAYERS_H_
