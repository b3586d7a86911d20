#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "churn.h"
#include "core/volcano_ml.h"
#include "daemon/session.h"
#include "data/csv.h"
#include "harness.h"
#include "inputs.h"
#include "layers.h"

namespace e2ebench {

namespace {

using volcanoml::PlanKind;
using volcanoml::SpacePreset;
using volcanoml::VolcanoML;
using volcanoml::VolcanoMlOptions;

/// An in-process search workload. `reference_rate` is the searches per
/// second a 4-core Xeon completes; a run does round(seconds * rate)
/// searches rounded to whole cycles through the dataset pool, so its work
/// is a function of (seed, seconds) alone.
struct SearchSpec {
  const char* name;
  SpacePreset preset;
  PlanKind plan;
  double budget;
  size_t batch_size;
  size_t threads;
  Pool pool;
  double reference_rate;
};

const SearchSpec kSearchSpecs[] = {
    {"joint-small", SpacePreset::kSmall, PlanKind::kJoint, 150, 1, 1,
     Pool::kSmallSpace, 1.2},
    {"volcano-small", SpacePreset::kSmall, PlanKind::kConditioningAlternating,
     150, 1, 1, Pool::kSmallSpace, 3.5},
    {"volcano-large", SpacePreset::kLarge, PlanKind::kConditioningAlternating,
     33, 3, 3, Pool::kLargeSpace, 1.6},
};

/// daemon-churn: sessions per second a 4-core Xeon completes.
constexpr double kChurnReferenceRate = 55.0;
constexpr double kChurnBudget = 8.0;
constexpr size_t kChurnTrainRows = 240;

/// round(seconds * rate) rounded to a positive multiple of `cycle`.
size_t WholeCycles(double seconds, double rate, size_t cycle) {
  const double cycles = std::round(seconds * rate / static_cast<double>(cycle));
  return cycle * std::max<size_t>(1, static_cast<size_t>(cycles));
}

/// Setups timed per search (the last one is searched): enough samples
/// for a median with ten beyond it on every workload.
constexpr size_t kSetupRepeats = 5;

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

size_t ThreadCap(size_t want) {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::max<size_t>(1, std::min(want, hw));
}

VolcanoMlOptions OptionsFor(const SearchSpec& spec, const Task& task,
                            size_t threads) {
  VolcanoMlOptions options;
  options.space.preset = spec.preset;
  options.plan = spec.plan;
  options.optimizer = volcanoml::JointOptimizerKind::kSmac;
  options.budget = spec.budget;
  options.batch_size = spec.batch_size;
  options.eval.num_threads = threads;
  options.eval.budget_in_seconds = false;
  options.seed = task.search_seed;
  return options;
}

/// Timing and result of one search.
struct SearchRun {
  bool ok = false;
  std::vector<double> setup_s;
  double step_s = 0.0;
  double turnaround_s = 0.0;
  size_t steps = 0;
  size_t evaluations = 0;
  double consumed = 0.0;
  double best = 0.0;
  std::unique_ptr<VolcanoML> automl;
};

/// kSetupRepeats timed setups (CSV text -> ParseCsvDataset -> Prepare),
/// then steps the last prepared executor until its budget is spent.
SearchRun RunSearch(const VolcanoMlOptions& options, const Task& task,
                    Tracer* tracer, uint64_t owner) {
  SearchRun run;
  ScopedSpan search(tracer, "search.run", -1, owner);
  double last_setup_start = 0.0;
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    const Timer setup;
    last_setup_start = setup.start();
    volcanoml::Result<volcanoml::Dataset> train =
        volcanoml::Status::Internal("not parsed");
    {
      ScopedSpan span(tracer, "data.parse", search.index(), owner);
      train = volcanoml::ParseCsvDataset(task.train_csv,
                                         volcanoml::TaskType::kClassification,
                                         task.name, "e2ebench task");
    }
    if (!train.ok()) return run;
    auto automl = std::make_unique<VolcanoML>(options);
    volcanoml::Status prepared = volcanoml::Status::Ok();
    {
      ScopedSpan span(tracer, "core.prepare", search.index(), owner);
      prepared = automl->Prepare(train.value());
    }
    if (!prepared.ok()) return run;
    run.setup_s.push_back(setup.Seconds());
    run.automl = std::move(automl);
  }
  volcanoml::PlanExecutor* executor = run.automl->executor();
  const Timer steps;
  while (!executor->Done()) {
    ScopedSpan span(tracer, "core.step", search.index(), owner);
    executor->Step();
  }
  run.step_s = steps.Seconds();
  run.turnaround_s = NowSeconds() - last_setup_start;
  run.steps = executor->num_steps();
  run.evaluations = run.automl->evaluator()->num_evaluations();
  run.consumed = executor->consumed_budget();
  run.best = executor->BestUtility();
  run.ok = true;
  return run;
}

/// Test-set balanced accuracy of the search's incumbent refit on the
/// whole train split; -1 when the refit fails.
double IncumbentTestScore(VolcanoML* automl, const Task& task) {
  automl->Finish();
  volcanoml::Result<volcanoml::FittedPipeline> pipeline =
      automl->FitFinalPipeline();
  if (!pipeline.ok()) return -1.0;
  return TestScore(task, pipeline.value().Predict(task.test.x()));
}

/// One pass over a run's task list.
struct Pass {
  size_t searches = 0;
  size_t failed = 0;
  size_t evaluations = 0;
  size_t steps = 0;
  double step_s = 0.0;
  double turnaround_s = 0.0;
  std::vector<double> setup_s;
  std::vector<double> best;
  std::vector<double> test_score;
  std::vector<KeptSearch> kept;
  LayerTotals totals;

  double evals_per_s() const {
    return step_s > 0.0 ? static_cast<double>(evaluations) / step_s : 0.0;
  }
};

/// Runs every task once. The first pass of a run computes test scores;
/// a traced pass keeps its first `keep` searches for the layer replays.
/// `reference` (if non-null) holds best utilities every search must
/// reproduce bit for bit.
Pass RunPass(const SearchSpec& spec, const std::vector<Task>& tasks,
             size_t threads, Tracer* tracer, bool score, size_t keep,
             const std::vector<double>* reference) {
  Pass pass;
  pass.totals.threads = threads;
  for (size_t i = 0; i < tasks.size(); ++i) {
    const Task& task = tasks[i];
    const VolcanoMlOptions options = OptionsFor(spec, task, threads);
    SearchRun run = RunSearch(options, task, tracer, i + 1);
    ++pass.searches;
    bool ok = run.ok && SameBits(run.consumed, spec.budget);
    if (ok && reference != nullptr) {
      ok = SameBits(run.best, (*reference)[i]);
    }
    double test = 0.0;
    if (ok && score) {
      test = IncumbentTestScore(run.automl.get(), task);
      ok = test > task.majority_rate;
    }
    std::printf("  search %3zu %-18s evals %4zu steps %4zu step %8.4f s "
                "best %.6f test %.6f\n",
                i, task.name.c_str(), run.evaluations, run.steps, run.step_s,
                run.best, test);
    if (!ok) {
      ++pass.failed;
      std::printf("  search %zu FAILED its correctness check\n", i);
      continue;
    }
    pass.evaluations += run.evaluations;
    pass.steps += run.steps;
    pass.step_s += run.step_s;
    pass.turnaround_s += run.turnaround_s;
    pass.setup_s.insert(pass.setup_s.end(), run.setup_s.begin(),
                        run.setup_s.end());
    pass.best.push_back(run.best);
    if (score) pass.test_score.push_back(test);
    if (tracer->enabled()) {
      CountSearch(*run.automl, &pass.totals);
      if (pass.kept.size() < keep) {
        KeptSearch kept;
        kept.owner = i + 1;
        kept.options = options;
        kept.automl = std::move(run.automl);
        kept.step_seconds = run.step_s;
        pass.totals.step_seconds += run.step_s;
        pass.kept.push_back(std::move(kept));
      }
    }
  }
  return pass;
}

void PrintHeader(const RunArgs& args, const std::string& detail) {
  std::printf("e2ebench %s seed %llu seconds %g trace %d\n%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, detail.c_str());
}

bool WriteSpans(const RunArgs& args, const Tracer& tracer) {
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string path = args.out_dir + "/spans-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".jsonl";
  const bool ok = tracer.WriteJsonLines(path);
  std::printf("spans: %zu written to %s%s\n", tracer.spans().size(),
              path.c_str(), ok ? "" : " (FAILED)");
  return ok;
}

void AddTraceOverhead(double untraced_rate, double traced_rate,
                      MetricSet* metrics) {
  const double overhead =
      traced_rate > 0.0 ? untraced_rate / traced_rate - 1.0 : 0.0;
  std::printf("tracing overhead: untraced %.4f/s traced %.4f/s -> %+.2f%%\n",
              untraced_rate, traced_rate, overhead * 100.0);
  metrics->Add("trace.overhead", overhead, "frac");
}

int Finish(const MetricSet& metrics, bool correct, uint64_t attempted,
           uint64_t failed) {
  if (!metrics.ok()) {
    std::fprintf(stderr, "e2ebench: %s\n", metrics.error().c_str());
    return 1;
  }
  correct = correct && failed == 0;
  std::printf("%s\n", metrics.ResultJson(correct, attempted, failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void PrintChurn(const char* label, const ChurnResult& r) {
  std::printf(
      "%s: %zu/%zu sessions done, %zu failed, %zu requests (%zu failed), "
      "%.4f s wall, %llu evaluations, %zu evictions / %zu restores seen, "
      "%zu repeat mismatches%s%s\n",
      label, r.sessions_done, r.sessions_attempted, r.sessions_failed,
      r.requests, r.request_failures, r.wall_seconds,
      static_cast<unsigned long long>(r.evaluations), r.evictions_seen,
      r.restores_seen, r.repeat_mismatches, r.error.empty() ? "" : ", error: ",
      r.error.c_str());
}

bool ChurnOk(const ChurnResult& r) {
  return r.started && r.error.empty() && r.sessions_failed == 0 &&
         r.request_failures == 0 && r.repeat_mismatches == 0 &&
         r.sessions_done == r.sessions_attempted;
}

/// The ipc/daemon probe of the in-process workloads' traced runs: a short
/// fixed churn, so every traced run reports every layer.
ChurnResult RunIpcProbe(const RunArgs& args) {
  ChurnSetup probe = MakeChurnSetup(args.seed, kChurnTrainRows, kChurnBudget);
  probe.sessions = 6 * probe.configs.size();
  probe.work_dir = args.out_dir;
  Tracer off(false);
  return RunChurn(probe, &off);
}

int RunSearchWorkload(const SearchSpec& spec, const RunArgs& args) {
  const size_t threads = ThreadCap(spec.threads);
  const size_t n = WholeCycles(args.seconds, spec.reference_rate,
                               PoolNames(spec.pool).size());
  const std::vector<Task> tasks = SelectTasks(args.seed, n, spec.pool);
  char detail[200];
  std::snprintf(detail, sizeof(detail),
                "%zu searches of %g units, batch %zu on %zu thread(s)", n,
                spec.budget, spec.batch_size, threads);
  PrintHeader(args, detail);

  // Untimed warm-up; the timed pass repeats task 0 and must match it.
  Tracer off(false);
  SearchRun warmup =
      RunSearch(OptionsFor(spec, tasks[0], threads), tasks[0], &off, 0);

  const Pass untraced = RunPass(spec, tasks, threads, &off, true, 0, nullptr);
  bool correct = warmup.ok && !untraced.best.empty() &&
                 SameBits(warmup.best, untraced.best[0]);
  uint64_t attempted = untraced.searches;
  uint64_t failed = untraced.failed;
  MetricSet metrics;

  if (!args.trace) {
    const Percentile setup = PercentileOf(untraced.setup_s, 0.5);
    std::printf("end-to-end:\n");
    metrics.Add("evals_per_s", untraced.evals_per_s(), "evals/s");
    metrics.AddPercentile("setup_s", setup, "s");
    metrics.Add("best_utility", Mean(untraced.best), "frac");
    metrics.Add("test_score", Mean(untraced.test_score), "frac");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
    metrics.Add("sessions_per_s",
                static_cast<double>(untraced.best.size()) /
                    untraced.turnaround_s,
                "sessions/s");
    metrics.Add("turnaround_s",
                untraced.turnaround_s /
                    static_cast<double>(untraced.best.size()),
                "s");
    std::printf("  evals_per_s %.4f best_utility %.6f test_score %.6f\n",
                untraced.evals_per_s(), Mean(untraced.best),
                Mean(untraced.test_score));
    return Finish(metrics, correct, attempted, failed);
  }

  // Traced run: the same searches again with spans on; they must
  // reproduce the untraced pass bit for bit.
  Tracer tracer(true);
  const size_t keep = std::clamp<size_t>(n / 5, 2, 10);
  Pass traced = RunPass(spec, tasks, threads, &tracer, false, keep,
                        untraced.best.size() == n ? &untraced.best : nullptr);
  attempted += traced.searches;
  failed += traced.failed;
  for (const KeptSearch& kept : traced.kept) {
    TimeSnapshot(kept, &tracer, &traced.totals);
  }
  ReplayLayers(traced.kept, &tracer, &traced.totals);
  const ChurnResult probe = RunIpcProbe(args);
  correct = correct && traced.totals.mismatches == 0 && ChurnOk(probe);
  if (traced.totals.mismatches != 0) {
    std::printf("replay mismatches: %zu\n", traced.totals.mismatches);
  }

  AddSearchLayerMetrics(tracer, traced.totals, &metrics);
  AddIpcLayerMetrics(probe, &metrics);
  AddTraceOverhead(untraced.evals_per_s(), traced.evals_per_s(), &metrics);
  PrintSelfTimes(tracer);
  correct = WriteSpans(args, tracer) && correct;
  return Finish(metrics, correct, attempted, failed);
}

/// In-process twin of a churn config: steps the same SessionConfig
/// locally (spans on `tracer`) for the bit-identity check, the test score
/// and the layer replays.
struct Twin {
  bool ok = false;
  SessionResult result;
  double test_score = 0.0;
  KeptSearch kept;
};

Twin RunTwin(const ChurnSetup& setup, size_t index, Tracer* tracer) {
  Twin twin;
  const ChurnConfig& cc = setup.configs[index];
  const Task& task = setup.tasks[cc.task];
  volcanoml::Result<VolcanoMlOptions> options =
      volcanoml::SessionConfigToOptions(cc.config);
  if (!options.ok()) return twin;
  volcanoml::Result<volcanoml::Dataset> train = volcanoml::ParseCsvDataset(
      task.train_csv, volcanoml::TaskType::kClassification, task.name,
      "e2ebench twin");
  if (!train.ok()) return twin;
  auto automl = std::make_unique<VolcanoML>(options.value());
  {
    ScopedSpan span(tracer, "core.prepare", -1, index);
    if (!automl->Prepare(train.value()).ok()) return twin;
  }
  const Timer steps;
  while (!automl->executor()->Done()) {
    ScopedSpan span(tracer, "core.step", -1, index);
    automl->executor()->Step();
  }
  twin.kept.step_seconds = steps.Seconds();
  twin.result.best_utility = automl->executor()->BestUtility();
  twin.result.trajectory = automl->executor()->trajectory();
  twin.test_score = IncumbentTestScore(automl.get(), task);
  twin.kept.owner = index;
  twin.kept.options = options.value();
  twin.kept.automl = std::move(automl);
  twin.ok = true;
  return twin;
}

int RunChurnWorkload(const RunArgs& args) {
  ChurnSetup setup = MakeChurnSetup(args.seed, kChurnTrainRows, kChurnBudget);
  setup.sessions =
      WholeCycles(args.seconds, kChurnReferenceRate, setup.configs.size());
  setup.work_dir = args.out_dir;
  char detail[200];
  std::snprintf(detail, sizeof(detail),
                "%zu sessions of %g units over %zu configs, %zu clients, "
                "max_resident %zu",
                setup.sessions, kChurnBudget, setup.configs.size(),
                setup.clients, setup.max_resident);
  PrintHeader(args, detail);

  Tracer off(false);
  const ChurnResult untraced = RunChurn(setup, &off);
  PrintChurn("churn", untraced);
  bool correct = ChurnOk(untraced);
  uint64_t attempted = untraced.sessions_attempted;
  uint64_t failed = untraced.sessions_failed;

  // Every config's result must equal its in-process twin, bit for bit.
  Tracer tracer(args.trace);
  std::vector<double> best, test;
  std::vector<KeptSearch> kept;
  LayerTotals totals;
  for (size_t i = 0; i < setup.configs.size(); ++i) {
    Twin twin = RunTwin(setup, i, &tracer);
    const bool match = twin.ok && untraced.have_result[i] &&
                       SameResult(twin.result, untraced.results[i]);
    const double majority = setup.tasks[setup.configs[i].task].majority_rate;
    std::printf("  config %2zu %-18s %-22s best %.6f test %.6f twin %s\n", i,
                setup.tasks[setup.configs[i].task].name.c_str(),
                setup.configs[i].config.plan.c_str(),
                twin.result.best_utility, twin.test_score,
                match ? "identical" : "DIFFERS");
    if (!match || twin.test_score <= majority) {
      correct = false;
      ++failed;
      continue;
    }
    best.push_back(twin.result.best_utility);
    test.push_back(twin.test_score);
    if (args.trace) {
      CountSearch(*twin.kept.automl, &totals);
      totals.step_seconds += twin.kept.step_seconds;
      kept.push_back(std::move(twin.kept));
    }
  }
  MetricSet metrics;
  if (!args.trace) {
    std::printf("end-to-end:\n");
    metrics.Add("evals_per_s",
                static_cast<double>(untraced.evaluations) /
                    untraced.wall_seconds,
                "evals/s");
    metrics.AddPercentile("setup_s", PercentileOf(untraced.setup_s, 0.5),
                          "s");
    metrics.Add("best_utility", Mean(best), "frac");
    metrics.Add("test_score", Mean(test), "frac");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
    metrics.Add("sessions_per_s",
                static_cast<double>(untraced.sessions_done) /
                    untraced.wall_seconds,
                "sessions/s");
    metrics.Add("turnaround_s", Mean(untraced.turnaround_s), "s");
    std::vector<double> requests_ms;
    for (const auto* v : {&untraced.create_s, &untraced.evict_s,
                          &untraced.query_s, &untraced.fetch_s}) {
      for (double x : *v) requests_ms.push_back(x * 1e3);
    }
    std::printf("daemon latencies (report only):\n");
    PrintPercentile("turnaround_p90_s",
                    PercentileOf(untraced.turnaround_s, 0.9), "s");
    PrintPercentile("request_p50_ms", PercentileOf(requests_ms, 0.5), "ms");
    PrintPercentile("request_p90_ms", PercentileOf(requests_ms, 0.9), "ms");
    return Finish(metrics, correct, attempted, failed);
  }

  totals.threads = 1;
  for (const KeptSearch& k : kept) TimeSnapshot(k, &tracer, &totals);
  ReplayLayers(kept, &tracer, &totals);
  const ChurnResult traced = RunChurn(setup, &tracer);
  PrintChurn("traced churn", traced);
  correct = correct && ChurnOk(traced) && totals.mismatches == 0;
  attempted += traced.sessions_attempted;
  failed += traced.sessions_failed;
  AddSearchLayerMetrics(tracer, totals, &metrics);
  AddIpcLayerMetrics(traced, &metrics);
  AddTraceOverhead(
      static_cast<double>(untraced.sessions_done) / untraced.wall_seconds,
      static_cast<double>(traced.sessions_done) / traced.wall_seconds,
      &metrics);
  PrintSelfTimes(tracer);
  correct = WriteSpans(args, tracer) && correct;
  return Finish(metrics, correct, attempted, failed);
}

}  // namespace

int RunWorkload(const RunArgs& args) {
  for (const SearchSpec& spec : kSearchSpecs) {
    if (args.workload == spec.name) return RunSearchWorkload(spec, args);
  }
  if (args.workload == "daemon-churn") return RunChurnWorkload(args);
  std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}

}  // namespace e2ebench
