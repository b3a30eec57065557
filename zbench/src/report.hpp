// Shared plumbing of the benchmark: the result record every workload
// fills, order statistics, the span tracer, and the output format.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace zbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
[[nodiscard]] double seconds_since(Clock::time_point t0);
/// Seconds since the process started (a static initializer stamps it
/// before main runs) — the reference of every setup_s.
[[nodiscard]] double seconds_since_start();
/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Median of `v` (linear interpolation between the middle pair).
[[nodiscard]] double median(std::vector<double> v);
/// Quantile `q` in [0,1] with linear interpolation.
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// The highest percentile (in whole percent) that leaves at least ten
/// samples above it, or -1 when there are fewer than forty samples (such
/// a percentile would be no tail).
[[nodiscard]] int tail_percentile(std::size_t samples);

/// Every sample of a registry (wall-clock ones included), by name — one
/// collection, then any number of lookups.
class RegSnapshot {
 public:
  explicit RegSnapshot(const zendoo::obs::Registry& reg);
  /// The sample's value, 0 when the registry has no such metric.
  [[nodiscard]] double operator[](const std::string& name) const;

 private:
  std::map<std::string, std::uint64_t> values_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run of a workload reports.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Contract metrics: the end-to-end set (trace off) or the per-layer
  /// set (trace on).
  std::map<std::string, Metric> metrics;
  /// Workload-specific figures printed by name above the result line.
  std::vector<std::pair<std::string, Metric>> report;
  /// Failed correctness checks, one line each.
  std::vector<std::string> errors;

  /// Records a check's outcome: `diagnostic` is "" on success.
  void check(const std::string& context, const std::string& diagnostic) {
    if (!diagnostic.empty()) {
      correct = false;
      errors.push_back(context + ": " + diagnostic);
    }
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& name, double value, const std::string& unit) {
    report.emplace_back(name, Metric{value, unit});
  }
};

/// Spans recorded from the benchmark's own code around each call into a
/// layer: name, start, end, parent. Kept in memory and written out once
/// at the end. Disabled tracers record nothing and cost one branch.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit Tracer(bool enabled);

  /// RAII span; nests under the innermost open span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_ = 0;
    std::uint32_t saved_parent_ = 0;
  };

  /// Total duration of every span called `name` recorded since `mark`
  /// (a span_count() taken earlier), in seconds.
  [[nodiscard]] double total_s(const std::string& name,
                               std::size_t mark = 0) const;
  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }
  /// Time the tracer itself spent (bookkeeping around each span, plus
  /// whatever the workload books via add_overhead), in seconds.
  [[nodiscard]] double overhead_s() const;
  void add_overhead(double s) { extra_overhead_s_ += s; }

  /// Attach a counter snapshot (registry deltas) to the trace output.
  void add_counters(const std::string& label,
                    std::vector<std::pair<std::string, double>> values);

  /// Writes spans + counter snapshots as JSON to `path`.
  void write(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::uint32_t current_ = 0;
  double extra_overhead_s_ = 0;
  struct CounterRow {
    std::string label;
    std::vector<std::pair<std::string, double>> values;
  };
  std::vector<CounterRow> counters_;
};

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Where traced runs write their spans, relative to the checkout root.
inline constexpr const char* kTraceDir = ".bench_out";

/// Prints the report lines, then the one-line JSON result (last line).
void print_result(const Options& opt, const Result& r);

}  // namespace zbench
