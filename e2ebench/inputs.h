#ifndef E2EBENCH_INPUTS_H_
#define E2EBENCH_INPUTS_H_

// Seeded inputs of the benchmark: which suite datasets a run uses, their
// train CSV text and held-out test split, and the test-score check.

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace e2ebench {

/// One dataset of a run: the train split as CSV text (what the program is
/// handed), the held-out test split, and the search seed to use on it.
struct Task {
  std::string name;
  std::string train_csv;
  volcanoml::Dataset test;
  uint64_t search_seed = 0;
  /// Share of the test split held by its most frequent class.
  double majority_rate = 0.0;
};

/// The fixed dataset cycle a workload draws from (see inputs.cc).
enum class Pool {
  kSmallSpace,  ///< 11 datasets, for the small-space searches.
  kLargeSpace,  ///< 8 datasets cheap enough for large-space searches.
  kChurn,       ///< 4 datasets for the daemon sessions.
};

/// The dataset names of `pool`, in cycle order.
const std::vector<std::string>& PoolNames(Pool pool);

/// `count` seeded tasks from MediumClassificationSuite(): task i is
/// dataset (offset + i) mod |pool| of `pool` with a fresh data draw, an
/// 80/20 train/test split and a search seed that depends only on the
/// dataset and its earlier uses in the run; the seed picks the offset
/// and the draws. A count that is a multiple of |pool|
/// visits every dataset equally often. `max_train_rows` > 0 keeps only
/// that many training rows. Same arguments, same tasks.
std::vector<Task> SelectTasks(uint64_t seed, size_t count, Pool pool,
                              size_t max_train_rows = 0);

/// Headerless numeric CSV, last column the target, %.17g doubles (the
/// parser reads them back bit-exactly).
std::string ToCsv(const volcanoml::Dataset& data);

/// Balanced accuracy of `predictions` on `task.test`.
double TestScore(const Task& task, const std::vector<double>& predictions);

}  // namespace e2ebench

#endif  // E2EBENCH_INPUTS_H_
