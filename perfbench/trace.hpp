// Wall-clock sampling, order statistics and the in-memory span recorder of
// the perf benchmark.
//
// Every timing in the benchmark is steady_clock around a call (never CPU
// time). Spans are kept in memory while the workload runs and written once
// at the end as Chrome trace-event JSON (load it in Perfetto or
// chrome://tracing). A disabled Tracer records nothing, so the untraced run
// pays one branch per call site.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of the samples (mean of the middle two for an even count).
[[nodiscard]] inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

/// Nearest-rank percentile `q` in (0, 1].
[[nodiscard]] inline double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size()))), 1, xs.size());
  return xs[rank - 1];
}

/// Samples strictly above the nearest-rank `q` percentile; a tail
/// percentile is only reported when at least ten lie beyond it.
[[nodiscard]] inline std::size_t samples_beyond(const std::vector<double>& xs, double q) {
  const double cut = percentile(xs, q);
  return static_cast<std::size_t>(
      std::count_if(xs.begin(), xs.end(), [cut](double x) { return x > cut; }));
}

struct Span {
  std::string name;
  double start_us;
  double end_us;
  int id;
  int parent;  // -1 = root
  std::vector<std::pair<std::string, double>> attrs;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// tracing is off).
  int begin(std::string name) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now_us(), 0.0, id, open_.empty() ? -1 : open_.back(), {}});
    open_.push_back(id);
    return id;
  }

  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  void attr(int id, std::string key, double value) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].attrs.emplace_back(std::move(key), value);
  }

  /// Writes every span as a complete ("X") trace event; `meta` becomes
  /// the trace's top-level metadata.
  bool write(const std::string& path,
             const std::vector<std::pair<std::string, std::string>>& meta) const {
    std::ofstream out(path);
    if (!out) return false;
    out.precision(17);
    out << "{\"displayTimeUnit\":\"ms\",\"metadata\":{";
    for (std::size_t i = 0; i < meta.size(); ++i) {
      out << (i ? "," : "") << '"' << meta[i].first << "\":\"" << meta[i].second << '"';
    }
    out << "},\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
          << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"id\":" << s.id
          << ",\"parent\":" << s.parent;
      for (const auto& [key, value] : s.attrs) out << ",\"" << key << "\":" << value;
      out << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: begin on construction, end on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { tracer_.end(id_); }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
