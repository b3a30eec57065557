#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "mainchain/codec.hpp"
#include "workloads.hpp"

namespace zbench {

namespace {

const Clock::time_point kProcessStart = Clock::now();

/// Shortest round-trip spelling of a double, so every digit the
/// measurement has reaches the output.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc{}) throw std::runtime_error("number formatting failed");
  return std::string(buf, end);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double seconds_since_start() { return seconds_since(kProcessStart); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

int tail_percentile(std::size_t samples) {
  if (samples < 40) return -1;
  // p such that at least ten samples lie above the p-th percentile.
  for (int p = 99; p >= 50; --p) {
    double above = static_cast<double>(samples) * (100 - p) / 100.0;
    if (above >= 10.0) return p;
  }
  return 50;
}

RegSnapshot::RegSnapshot(const zendoo::obs::Registry& reg) {
  for (auto& sample : reg.collect(/*include_wall_clock=*/true)) {
    values_.emplace(std::move(sample.name), sample.value);
  }
}

double RegSnapshot::operator[](const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : static_cast<double>(it->second);
}

// ---- Tracer ----------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(tracer_.spans_.size() + 1);
  span.parent = tracer_.current_;
  index_ = tracer_.spans_.size();
  saved_parent_ = tracer_.current_;
  tracer_.current_ = span.id;
  tracer_.spans_.push_back(span);
  tracer_.spans_.back().start_ns = tracer_.now_ns();
}

Tracer::Scope::~Scope() {
  if (!tracer_.enabled_) return;
  tracer_.spans_[index_].end_ns = tracer_.now_ns();
  tracer_.current_ = saved_parent_;
}

double Tracer::total_s(const std::string& name, std::size_t mark) const {
  std::int64_t ns = 0;
  for (std::size_t i = mark; i < spans_.size(); ++i) {
    if (name == spans_[i].name) ns += spans_[i].end_ns - spans_[i].start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::overhead_s() const {
  if (!enabled_) return 0;
  // Price one span's bookkeeping on this host: open and close a batch of
  // empty spans on a scratch tracer.
  Tracer probe(true);
  constexpr int kProbe = 20000;
  auto t0 = Clock::now();
  for (int i = 0; i < kProbe; ++i) Scope s(probe, "probe");
  double per_span = seconds_since(t0) / kProbe;
  return per_span * static_cast<double>(spans_.size()) + extra_overhead_s_;
}

void Tracer::add_counters(const std::string& label,
                          std::vector<std::pair<std::string, double>> values) {
  if (!enabled_) return;
  counters_.push_back(CounterRow{label, std::move(values)});
}

void Tracer::write(const std::string& path) const {
  std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path);
  out << "{\"schema\":\"zbench-trace-v1\",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"name\":" << quoted(s.name)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}";
  }
  out << "],\"counters\":[";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    out << (i ? ",\n" : "\n") << "{\"label\":" << quoted(counters_[i].label)
        << ",\"values\":{";
    for (std::size_t j = 0; j < counters_[i].values.size(); ++j) {
      const auto& [k, v] = counters_[i].values[j];
      out << (j ? "," : "") << quoted(k) << ":" << num(v);
    }
    out << "}}";
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

// ---- Output ----------------------------------------------------------------

void print_result(const Options& opt, const Result& r) {
  std::printf("workload %s seed %llu trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  for (const auto& [name, m] : r.report) {
    std::printf("  %-34s %16s %s\n", name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  for (const std::string& e : r.errors) {
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  }
  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) line += ", ";
    first = false;
    line += quoted(name) + ": {\"value\": " + num(m.value) +
            ", \"unit\": " + quoted(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// ---- Metric sets -------------------------------------------------------------

void set_layer(Result& r, const char* name, double value) {
  for (const LayerMetric& m : kPerLayer) {
    if (std::string_view(m.name) == name) {
      r.set(name, value, m.unit);
      return;
    }
  }
  throw std::logic_error(std::string("unknown per-layer metric ") + name);
}

void fill_layers(Result& r) {
  for (const LayerMetric& m : kPerLayer) {
    if (!r.metrics.contains(m.name)) r.set(m.name, 0.0, m.unit);
  }
}

void set_end_to_end(Result& r, double setup_s, double rss_mb,
                    double throughput_per_s, double latency_s) {
  r.set("setup_s", setup_s, "s");
  r.set("peak_rss_mb", rss_mb, "MB");
  r.set("throughput_per_s", throughput_per_s, "1/s");
  r.set("latency_s", latency_s, "s");
}

double decode_seconds(const std::vector<std::vector<std::uint8_t>>& wire) {
  auto t0 = Clock::now();
  for (const auto& bytes : wire) {
    if (zendoo::mainchain::codec::decode_block(bytes).header.height == 0) {
      throw std::logic_error("decoded a genesis block from the wire");
    }
  }
  return seconds_since(t0);
}

}  // namespace zbench
