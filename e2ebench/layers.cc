#include "layers.h"

#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <utility>

#include "bo/smac.h"
#include "data/splits.h"
#include "fe/pipeline.h"
#include "fe/registry.h"
#include "ml/algorithms.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace e2ebench {

namespace {

using volcanoml::Assignment;
using volcanoml::ConfigurationSpace;
using volcanoml::EvalContext;
using volcanoml::PlanKind;
using volcanoml::SearchSpace;

/// The algorithms of the small space, present in every workload; their
/// model-fit time is broken out per algorithm.
const char* const kSmallAlgorithms[] = {"logistic_regression", "decision_tree",
                                        "knn", "gaussian_nb", "lda"};

std::string AlgorithmOf(const SearchSpace& space, const Assignment& a) {
  const ConfigurationSpace& joint = space.joint();
  return joint.GetChoiceName(joint.FromAssignment(a), "algorithm");
}

Assignment FePart(const Assignment& a) {
  Assignment fe;
  for (const auto& [name, value] : a) {
    if (name.rfind("fe:", 0) == 0) fe[name] = value;
  }
  return fe;
}

/// Distinct committed requests of a search, in first-commit order, with
/// the utility the search committed for them.
std::vector<std::pair<Assignment, double>> DistinctRequests(
    const KeptSearch& search) {
  const EvalContext& context = search.automl->evaluator()->context();
  std::map<std::string, bool> seen;
  std::vector<std::pair<Assignment, double>> out;
  for (const auto& [assignment, utility] :
       search.automl->evaluator()->observations()) {
    if (seen.emplace(context.CacheKey(assignment, 1.0), true).second) {
      out.emplace_back(assignment, utility);
    }
  }
  return out;
}

/// One replayed optimizer: its space must outlive it.
struct ReplayOptimizer {
  std::unique_ptr<ConfigurationSpace> space;
  std::unique_ptr<volcanoml::SmacOptimizer> smac;
};

void ReplayOptimizers(const KeptSearch& search, Tracer* tracer,
                      int64_t parent) {
  const SearchSpace& space = search.automl->space();
  const PlanKind plan = search.options.plan;
  std::map<std::string, ReplayOptimizer> optimizers;
  uint64_t next_seed = 1;
  auto get = [&](const std::string& key,
                 const std::function<ConfigurationSpace()>& make)
      -> ReplayOptimizer& {
    ReplayOptimizer& r = optimizers[key];
    if (r.smac == nullptr) {
      r.space = std::make_unique<ConfigurationSpace>(make());
      r.smac = std::make_unique<volcanoml::SmacOptimizer>(
          r.space.get(), volcanoml::SmacOptimizer::Options{}, next_seed++);
    }
    return r;
  };
  // Arm-side bookkeeping for alternating plans: the side whose variables
  // changed since the arm's previous request proposed this one.
  std::map<std::string, Assignment> last_in_arm;
  for (const auto& [assignment, utility] :
       search.automl->evaluator()->observations()) {
    ReplayOptimizer* r = nullptr;
    if (plan == PlanKind::kJoint) {
      r = &get("joint", [&] { return space.joint(); });
    } else {
      const std::string algorithm = AlgorithmOf(space, assignment);
      if (plan == PlanKind::kConditioningJoint) {
        r = &get(algorithm, [&] {
          ConfigurationSpace sub = space.FeSubspace();
          sub.Merge(space.HpSubspaceFor(algorithm), "");
          return sub;
        });
      } else {
        auto prev = last_in_arm.find(algorithm);
        const bool hp_empty = space.HpSubspaceFor(algorithm).empty();
        const bool fe_side = hp_empty || prev == last_in_arm.end() ||
                             FePart(prev->second) != FePart(assignment);
        last_in_arm[algorithm] = assignment;
        if (fe_side) {
          r = &get("fe[" + algorithm + "]", [&] { return space.FeSubspace(); });
        } else {
          r = &get("hp[" + algorithm + "]",
                   [&] { return space.HpSubspaceFor(algorithm); });
        }
      }
    }
    {
      ScopedSpan span(tracer, "bo.suggest", parent, search.owner);
      volcanoml::Configuration ignored = r->smac->Suggest();
      (void)ignored;
    }
    volcanoml::Configuration config = r->space->FromAssignment(assignment);
    ScopedSpan span(tracer, "bo.observe", parent, search.owner);
    r->smac->Observe(config, utility);
  }
}

/// Fits the FE pipeline and the model of one request on the search's
/// validation split, exactly as EvalContext seeds them; returns the
/// algorithm name and the model-fit seconds.
std::pair<std::string, double> ReplaySplit(const KeptSearch& search,
                                           const volcanoml::Split& split,
                                           const Assignment& a, Tracer* tracer,
                                           int64_t parent) {
  const SearchSpace& space = search.automl->space();
  const EvalContext& context = search.automl->evaluator()->context();
  const uint64_t eval_seed = context.options().seed;
  const ConfigurationSpace& joint = space.joint();
  const volcanoml::Configuration config = joint.FromAssignment(a);

  volcanoml::Rng fe_rng(EvalContext::FeRequestHash(a) ^ eval_seed);
  volcanoml::FePipeline fe;
  for (volcanoml::FeStage stage : space.stages()) {
    const std::string stage_param =
        std::string("fe:") + volcanoml::FeStageName(stage);
    const std::string op_name =
        space.StageOperators(stage)[joint.GetChoice(config, stage_param)].name;
    const volcanoml::FeOperatorInfo info = volcanoml::FindFeOperator(op_name);
    const std::string prefix = stage_param + ":" + op_name + ":";
    Assignment local;
    for (const auto& [name, value] : a) {
      if (name.rfind(prefix, 0) == 0) local[name.substr(prefix.size())] = value;
    }
    auto op = info.create(info.hp_space, info.hp_space.FromAssignment(local),
                          fe_rng.Fork());
    op->SetPrecision(context.options().precision);
    fe.Add(std::move(op));
  }
  const std::string algorithm = joint.GetChoiceName(config, "algorithm");
  const volcanoml::Dataset& data = context.data();
  volcanoml::Result<volcanoml::Dataset> engineered =
      volcanoml::Status::Internal("not run");
  {
    ScopedSpan span(tracer, "fe.fit", parent, search.owner);
    engineered = fe.FitTransform(data.Subset(split.train));
    if (engineered.ok()) {
      volcanoml::Matrix valid = fe.Transform(data.Subset(split.test).x());
      (void)valid;
    }
  }
  if (!engineered.ok()) return {algorithm, 0.0};

  const volcanoml::Algorithm& algo =
      volcanoml::FindAlgorithm(algorithm, space.task());
  const std::string prefix = "alg:" + algorithm + ":";
  Assignment local;
  for (const auto& [name, value] : a) {
    if (name.rfind(prefix, 0) == 0) local[name.substr(prefix.size())] = value;
  }
  volcanoml::Rng model_rng(EvalContext::RequestHash(a) ^ eval_seed);
  auto model = algo.create(algo.hp_space, algo.hp_space.FromAssignment(local),
                           model_rng.Fork());
  model->SetPrecision(context.options().precision);
  const Timer fit;
  ScopedSpan span(tracer, "ml.fit", parent, search.owner);
  volcanoml::Status fitted = model->Fit(engineered.value());
  (void)fitted;
  return {algorithm, fit.Seconds()};
}

}  // namespace

void CountSearch(const volcanoml::VolcanoML& automl, LayerTotals* totals) {
  const volcanoml::EvalEngine& engine = automl.evaluator()->engine();
  totals->searches += 1;
  totals->steps += automl.executor()->num_steps();
  totals->evaluations += engine.num_evaluations();
  totals->memo_hits += engine.cache_hits();
  totals->failed_trials +=
      engine.num_evaluations() -
      engine.outcome_count(volcanoml::TrialOutcome::kOk);
}

void TimeSnapshot(const KeptSearch& search, Tracer* tracer,
                  LayerTotals* totals) {
  std::string bytes;
  {
    ScopedSpan span(tracer, "snapshot.save", -1, search.owner);
    bytes = search.automl->executor()->SaveSnapshot();
  }
  volcanoml::VolcanoML twin(search.options);
  if (!twin.Prepare(search.automl->evaluator()->data()).ok()) {
    ++totals->mismatches;
    return;
  }
  volcanoml::Status loaded = volcanoml::Status::Ok();
  {
    ScopedSpan span(tracer, "snapshot.load", -1, search.owner);
    loaded = twin.executor()->LoadSnapshot(bytes);
  }
  if (!loaded.ok() || twin.executor()->SaveSnapshot() != bytes) {
    ++totals->mismatches;
  }
  totals->snapshot_bytes.push_back(static_cast<double>(bytes.size()));
}

void ReplayLayers(const std::vector<KeptSearch>& searches, Tracer* tracer,
                  LayerTotals* totals) {
  volcanoml::ThreadPool pool(totals->threads);
  std::mutex mu;
  for (const KeptSearch& search : searches) {
    const auto requests = DistinctRequests(search);
    const EvalContext& context = search.automl->evaluator()->context();
    {
      ScopedSpan replay(tracer, "replay.eval", -1, search.owner);
      pool.ParallelFor(requests.size(), [&](size_t i) {
        volcanoml::EvalOutcome outcome;
        {
          ScopedSpan span(tracer, "eval.trial", replay.index(), search.owner);
          outcome = context.EvaluateOnce(requests[i].first, 1.0);
        }
        if (!SameBits(outcome.utility, requests[i].second)) {
          std::lock_guard<std::mutex> lock(mu);
          ++totals->mismatches;
        }
      });
    }
    {
      ScopedSpan replay(tracer, "replay.bo", -1, search.owner);
      ReplayOptimizers(search, tracer, replay.index());
    }
    {
      volcanoml::Rng split_rng(context.options().seed);
      const volcanoml::Split split = volcanoml::TrainTestSplit(
          context.data(), context.options().validation_fraction, &split_rng);
      ScopedSpan replay(tracer, "replay.split", -1, search.owner);
      pool.ParallelFor(requests.size(), [&](size_t i) {
        auto [algorithm, seconds] =
            ReplaySplit(search, split, requests[i].first, tracer,
                        replay.index());
        std::lock_guard<std::mutex> lock(mu);
        totals->ml_busy_by_algorithm[algorithm] += seconds;
      });
    }
  }
}

void AddSearchLayerMetrics(const Tracer& tracer, const LayerTotals& totals,
                           MetricSet* m) {
  const double ms = 1e3;
  auto scaled = [](std::vector<double> v, double k) {
    for (double& x : v) x *= k;
    return v;
  };
  const double step_s = totals.step_seconds > 0.0 ? totals.step_seconds : 1.0;
  const size_t searches = totals.searches > 0 ? totals.searches : 1;

  std::printf("per-layer (%zu traced searches, %zu replay threads):\n",
              totals.searches, totals.threads);
  m->Add("core.prepare_ms", Mean(tracer.Durations("core.prepare")) * ms, "ms");
  const std::vector<double> steps_ms =
      scaled(tracer.Durations("core.step"), ms);
  m->AddPercentile("core.step_ms.p50", PercentileOf(steps_ms, 0.5), "ms");
  m->AddPercentile("core.step_ms.p90", PercentileOf(steps_ms, 0.9), "ms");
  m->Add("core.steps",
         static_cast<double>(totals.steps) / static_cast<double>(searches),
         "count");
  m->Add("core.evals_per_step",
         static_cast<double>(totals.evaluations) /
             static_cast<double>(totals.steps > 0 ? totals.steps : 1),
         "count");

  std::vector<std::pair<double, double>> trial_intervals;
  for (const Span& s : tracer.spans()) {
    if (s.name == "eval.trial") trial_intervals.emplace_back(s.start, s.end);
  }
  const double eval_wall = UnionLength(trial_intervals);
  const std::vector<double> suggest = tracer.Durations("bo.suggest");
  const std::vector<double> observe = tracer.Durations("bo.observe");
  const double bo_busy = Sum(suggest) + Sum(observe);
  m->Add("core.self_s", step_s - eval_wall - bo_busy, "s");

  m->AddPercentile("bo.suggest_ms.p50", PercentileOf(scaled(suggest, ms), 0.5),
                   "ms");
  m->AddPercentile("bo.suggest_ms.p90", PercentileOf(scaled(suggest, ms), 0.9),
                   "ms");
  m->AddPercentile("bo.observe_ms.p50", PercentileOf(scaled(observe, ms), 0.5),
                   "ms");
  m->Add("bo.busy_s", bo_busy, "s");
  m->Add("bo.share", bo_busy / step_s, "frac");

  const std::vector<double> trials = tracer.Durations("eval.trial");
  const double eval_busy = Sum(trials);
  m->Add("eval.trials", static_cast<double>(totals.evaluations), "count");
  m->Add("eval.memo_hits", static_cast<double>(totals.memo_hits), "count");
  m->Add("eval.memo_hit_ratio",
         static_cast<double>(totals.memo_hits) /
             static_cast<double>(totals.evaluations > 0 ? totals.evaluations
                                                        : 1),
         "frac");
  m->Add("eval.failed_trials", static_cast<double>(totals.failed_trials),
         "count");
  m->AddPercentile("eval.trial_ms.p50", PercentileOf(scaled(trials, ms), 0.5),
                   "ms");
  m->AddPercentile("eval.trial_ms.p90", PercentileOf(scaled(trials, ms), 0.9),
                   "ms");
  m->Add("eval.busy_s", eval_busy, "s");
  m->Add("eval.share", eval_busy / step_s, "frac");
  m->Add("eval.parallel_efficiency",
         eval_busy / (static_cast<double>(totals.threads) * step_s), "frac");

  const std::vector<double> fe_fits = tracer.Durations("fe.fit");
  const std::vector<double> ml_fits = tracer.Durations("ml.fit");
  m->Add("fe.busy_s", Sum(fe_fits), "s");
  m->AddPercentile("fe.fit_ms.p50", PercentileOf(scaled(fe_fits, ms), 0.5),
                   "ms");
  m->Add("ml.busy_s", Sum(ml_fits), "s");
  m->AddPercentile("ml.fit_ms.p50", PercentileOf(scaled(ml_fits, ms), 0.5),
                   "ms");
  for (const char* algorithm : kSmallAlgorithms) {
    auto it = totals.ml_busy_by_algorithm.find(algorithm);
    m->Add(std::string("ml.busy_s.") + algorithm,
           it == totals.ml_busy_by_algorithm.end() ? 0.0 : it->second, "s");
  }
  for (const auto& [algorithm, seconds] : totals.ml_busy_by_algorithm) {
    std::printf("  ml fit time %-22s %10.4f s\n", algorithm.c_str(), seconds);
  }

  m->Add("snapshot.save_ms", Mean(tracer.Durations("snapshot.save")) * ms,
         "ms");
  m->Add("snapshot.load_ms", Mean(tracer.Durations("snapshot.load")) * ms,
         "ms");
  m->Add("snapshot.bytes", Mean(totals.snapshot_bytes), "bytes");
}

void PrintSelfTimes(const Tracer& tracer) {
  std::printf("self time by layer (span minus children):\n");
  for (const auto& [layer, seconds] : SelfTimeByLayer(tracer.spans())) {
    std::printf("  %-10s %10.4f s\n", layer.c_str(), seconds);
  }
}

}  // namespace e2ebench
