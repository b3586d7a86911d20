#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace e2ebench {

double NowSeconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

size_t SamplesBeyond(size_t n, double q) {
  const size_t at = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n > at ? n - at : 0;
}

Percentile PercentileOf(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  p.supported = SamplesBeyond(samples.size(), q) >= 10;
  if (!p.supported) {
    p.value = samples.back();
    return p;
  }
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  p.value = samples[lo] + (pos - static_cast<double>(lo)) *
                              (samples[hi] - samples[lo]);
  return p;
}

double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

namespace {

bool AllFrom(const std::string& s, const std::string& extra) {
  for (char c : s) {
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    if (!alnum && extra.find(c) == std::string::npos) return false;
  }
  return true;
}

bool AlnumFirst(const std::string& s) {
  return !s.empty() && AllFrom(s.substr(0, 1), "");
}

}  // namespace

bool ValidMetricName(const std::string& name) {
  return name.size() <= 64 && AlnumFirst(name) && AllFrom(name, "_.-");
}

bool ValidUnit(const std::string& unit) {
  return !unit.empty() && unit.size() <= 16 && AllFrom(unit, "_/%.-");
}

std::string FullDigits(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

bool MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  std::string problem;
  if (!ValidMetricName(name)) {
    problem = "invalid metric name '" + name + "'";
  } else if (!ValidUnit(unit)) {
    problem = "invalid unit '" + unit + "' for " + name;
  } else if (!std::isfinite(value)) {
    problem = "non-finite value for " + name;
  } else {
    for (const Entry& e : entries_) {
      if (e.name == name) problem = "duplicate metric " + name;
    }
  }
  if (!problem.empty()) {
    if (ok_) error_ = problem;
    ok_ = false;
    return false;
  }
  entries_.push_back({name, value, unit});
  return true;
}

void PrintPercentile(const std::string& name, const Percentile& p,
                     const std::string& unit) {
  std::printf("  %-28s %14.6f %-8s n=%zu%s\n", name.c_str(), p.value,
              unit.c_str(), p.samples,
              p.supported ? "" : "  (fewer than 10 beyond: sample max)");
}

bool MetricSet::AddPercentile(const std::string& name, const Percentile& p,
                              const std::string& unit) {
  PrintPercentile(name, p, unit);
  return Add(name, p.value, unit);
}

std::string MetricSet::ResultJson(bool correct, uint64_t attempted,
                                  uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " +
           FullDigits(entries_[i].value) + ", \"unit\": \"" +
           entries_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string Span::layer() const { return name.substr(0, name.find('.')); }

int64_t Tracer::Begin(const std::string& name, int64_t parent,
                      uint64_t owner) {
  if (!enabled_) return -1;
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, now, now, parent, owner});
  return static_cast<int64_t>(spans_.size() - 1);
}

void Tracer::End(int64_t index) {
  if (index < 0) return;
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end = now;
}

int64_t Tracer::Add(const std::string& name, double start, double end,
                    int64_t parent, uint64_t owner) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, end, parent, owner});
  return static_cast<int64_t>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans()) {
    out << "{\"name\": \"" << s.name << "\", \"start\": " << FullDigits(s.start)
        << ", \"end\": " << FullDigits(s.end) << ", \"parent\": " << s.parent
        << ", \"owner\": " << s.owner << "}\n";
  }
  return static_cast<bool>(out);
}

double UnionLength(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = 0.0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (!open || start > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    children[static_cast<size_t>(s.parent)].push_back(
        {std::max(s.start, p.start), std::min(s.end, p.end)});
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = std::max(0.0, spans[i].seconds() - UnionLength(children[i]));
  }
  return self;
}

std::map<std::string, double> SelfTimeByLayer(const std::vector<Span>& spans) {
  std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_layer[spans[i].layer()] += self[i];
  }
  return by_layer;
}

}  // namespace e2ebench
