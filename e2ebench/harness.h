#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

// Measurement helpers of the whole-search benchmark: the percentile rule,
// metric-name validation, the result line, and the in-memory span tracer
// with span self time. Nothing here knows about AutoML; the workloads in
// workloads.cc and churn.cc feed it.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

// ---------------------------------------------------------------- clock

/// Monotonic seconds since an arbitrary process-wide origin.
double NowSeconds();

/// Seconds since construction.
class Timer {
 public:
  Timer() : start_(NowSeconds()) {}
  double Seconds() const { return NowSeconds() - start_; }
  double start() const { return start_; }

 private:
  double start_;
};

// ---------------------------------------------------------- percentiles

/// A percentile together with the sample count it rests on.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  /// True when at least ten samples lie beyond the percentile. Otherwise
  /// `value` is the sample maximum, which bounds the percentile from above.
  bool supported = false;
};

/// Samples strictly beyond the q-quantile's rank: n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

/// Linear-interpolated q-quantile (q in [0, 1]) under the rule that at
/// least ten samples must lie beyond it; see Percentile::supported.
/// An empty input gives value 0, samples 0, supported false.
Percentile PercentileOf(std::vector<double> samples, double q);

double Mean(const std::vector<double>& v);
double Sum(const std::vector<double>& v);

/// Bitwise equality of two doubles (the determinism checks' notion).
bool SameBits(double a, double b);

// -------------------------------------------------------------- metrics

/// Whether `name` is a legal metric name: 1-64 characters from
/// [A-Za-z0-9_.-], starting with a letter or digit.
bool ValidMetricName(const std::string& name);

/// Whether `unit` is a legal unit: 1-16 characters from [A-Za-z0-9_/%.-].
bool ValidUnit(const std::string& unit);

/// Ordered metric set of one run, printed as the last stdout line.
class MetricSet {
 public:
  /// Records a metric. Returns false (and records nothing) when the name
  /// or unit is invalid, the name repeats, or the value is not finite.
  bool Add(const std::string& name, double value, const std::string& unit);

  /// PrintPercentile, then Add.
  bool AddPercentile(const std::string& name, const Percentile& p,
                     const std::string& unit);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  size_t size() const { return entries_.size(); }

  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  std::string ResultJson(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  bool ok_ = true;
  std::string error_;
};

/// Formats a double with all 17 significant digits.
std::string FullDigits(double value);

/// Prints a percentile with its sample count as a report line, flagged
/// when fewer than ten samples lie beyond it.
void PrintPercentile(const std::string& name, const Percentile& p,
                     const std::string& unit);

// --------------------------------------------------------------- spans

/// One timed call into a layer's public API. Times are NowSeconds().
struct Span {
  std::string name;   ///< "<layer>.<call>", e.g. "core.step".
  double start = 0.0;
  double end = 0.0;
  int64_t parent = -1;  ///< Index of the parent span, -1 for roots.
  uint64_t owner = 0;   ///< Search or session id the span belongs to.

  double seconds() const { return end - start; }
  /// Text before the first '.', e.g. "core".
  std::string layer() const;
};

/// Thread-safe in-memory span store. Disabled tracers record nothing, so
/// the untraced path pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  int64_t Begin(const std::string& name, int64_t parent, uint64_t owner);
  void End(int64_t index);
  /// Records an already-measured span.
  int64_t Add(const std::string& name, double start, double end,
              int64_t parent, uint64_t owner);

  std::vector<Span> spans() const;

  /// Durations (seconds) of every span with this exact name.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t parent,
             uint64_t owner)
      : tracer_(tracer), index_(tracer->Begin(name, parent, owner)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int64_t index_;
};

/// Total length of the union of [start, end) intervals.
double UnionLength(std::vector<std::pair<double, double>> intervals);

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it. Children that overlap (spans of
/// concurrent threads under one parent) are counted once, so self time
/// is never negative.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Self time summed per layer.
std::map<std::string, double> SelfTimeByLayer(const std::vector<Span>& spans);

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_H_
