#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "data/splits.h"
#include "data/suite.h"
#include "ml/metrics.h"
#include "util/check.h"
#include "util/rng.h"

namespace e2ebench {

namespace {

using volcanoml::Dataset;

// Dataset pools, each a fixed cycle through MediumClassificationSuite()
// names. A run visits every dataset of its pool equally often, so two
// seeds differ only in the data draws and the rotation, not in which
// datasets make up the work.
//
// The pools hold the 11 datasets on which search incumbents beat the
// majority-class rate of the held-out split for every draw tried. Left
// out: the XOR parity tasks, where validation often picks noise features
// and the incumbent tests at chance; the imbalanced tasks, whose majority
// share is above a good model's balanced accuracy; and the two-class
// Gaussian tasks, some of whose draws carry no signal at all.
//
// Small space, by the wall time of a 150-unit VolcanoML search on a
// 4-core Xeon (0.13 s to 0.74 s).
const std::vector<std::string> kSmallSpacePool = {
    "circles_tight", "circles_noisy",  "gauss_easy_3c",
    "gauss_5class",  "moons_noisy",    "moons_clean",
    "blobs_4c",      "gauss_mid_3c",   "gauss_clean_3c",
    "gauss_hard_4c", "blobs_overlap",
};

// Large-space searches cost up to 13x more on some datasets than on
// others; this pool drops the three dearest of the 11 (gauss_mid_3c,
// gauss_5class, gauss_hard_4c: 5.8 s to 8.2 s per 72-unit search on a
// 4-core Xeon, against 1.1 s to 4.3 s for these).
const std::vector<std::string> kLargeSpacePool = {
    "moons_clean",  "circles_tight", "moons_noisy",    "circles_noisy",
    "blobs_4c",     "blobs_overlap", "gauss_clean_3c", "gauss_easy_3c",
};

const std::vector<std::string> kChurnPool = {
    "moons_noisy", "blobs_4c", "gauss_easy_3c", "gauss_5class",
};

double MajorityRate(const Dataset& data) {
  std::map<double, size_t> counts;
  for (double y : data.y()) ++counts[y];
  size_t best = 0;
  for (const auto& [label, count] : counts) best = std::max(best, count);
  return data.y().empty() ? 1.0
                          : static_cast<double>(best) /
                                static_cast<double>(data.y().size());
}

}  // namespace

const std::vector<std::string>& PoolNames(Pool pool) {
  switch (pool) {
    case Pool::kSmallSpace:
      return kSmallSpacePool;
    case Pool::kLargeSpace:
      return kLargeSpacePool;
    case Pool::kChurn:
      return kChurnPool;
  }
  return kSmallSpacePool;
}

std::vector<Task> SelectTasks(uint64_t seed, size_t count, Pool pool,
                              size_t max_train_rows) {
  std::map<std::string, volcanoml::DatasetSpec> by_name;
  for (volcanoml::DatasetSpec& spec : volcanoml::MediumClassificationSuite()) {
    by_name.emplace(spec.name, std::move(spec));
  }
  const std::vector<std::string>& names = PoolNames(pool);
  volcanoml::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x51ed);
  const size_t offset = rng.Index(names.size());
  std::vector<size_t> uses(names.size(), 0);
  std::vector<Task> tasks;
  for (size_t i = 0; i < count; ++i) {
    const std::string& name = names[(offset + i) % names.size()];
    auto it = by_name.find(name);
    VOLCANOML_CHECK_MSG(it != by_name.end(), name.c_str());
    const uint64_t draw = rng.Fork() % 100000;
    Dataset full = it->second.make(draw);
    volcanoml::Rng split_rng(draw + 17);
    volcanoml::Split split = volcanoml::TrainTestSplit(full, 0.2, &split_rng);
    std::vector<size_t> train_rows = split.train;
    if (max_train_rows > 0 && train_rows.size() > max_train_rows) {
      train_rows.resize(max_train_rows);
    }
    Task task;
    task.name = name;
    task.train_csv = ToCsv(full.Subset(train_rows));
    task.test = full.Subset(split.test);
    // Common random numbers: the search seed depends on the dataset and
    // on how often the run used it before, not on the workload seed, so
    // the optimizers of two seeds' runs explore alike and only the data
    // draws differ.
    const size_t position = (offset + i) % names.size();
    task.search_seed = 1 + (position + names.size() * uses[position]++) * 7919;
    task.majority_rate = MajorityRate(task.test);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

std::string ToCsv(const Dataset& data) {
  std::string out;
  char buffer[40];
  for (size_t i = 0; i < data.NumSamples(); ++i) {
    for (size_t j = 0; j < data.NumFeatures(); ++j) {
      std::snprintf(buffer, sizeof(buffer), "%.17g,", data.x()(i, j));
      out += buffer;
    }
    std::snprintf(buffer, sizeof(buffer), "%.17g\n", data.y()[i]);
    out += buffer;
  }
  return out;
}

double TestScore(const Task& task, const std::vector<double>& predictions) {
  return volcanoml::BalancedAccuracy(task.test.y(), predictions,
                                     task.test.NumClasses());
}

}  // namespace e2ebench
