#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/trace.hpp"

namespace perfbench {

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

TailStat tail_stat(const std::vector<double>& values) {
  static constexpr struct {
    const char* label;
    double q;
  } kLevels[] = {{"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p75", 0.75}};
  const auto n = static_cast<double>(values.size());
  for (const auto& level : kLevels) {
    if (n * (1.0 - level.q) >= 10.0) {
      return {level.label, quantile(values, level.q), values.size()};
    }
  }
  return {"p50", median(values), values.size()};
}

double control_alu() {
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < (1u << 23); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x * 0xBF58476D1CE4E5B9ull;
  }
  // Keep the loop: its result feeds an opaque asm operand.
  asm volatile("" : : "r"(acc));
  return seconds_since(start);
}

Spans::Scope::Scope(Spans* spans, std::string_view name) : spans_(spans) {
  if (!spans_) return;
  index_ = static_cast<int>(spans_->spans_.size());
  spans_->spans_.push_back({std::string(name), seconds_since(spans_->origin_), 0.0,
                            spans_->open_});
  spans_->open_ = index_;
}

Spans::Scope::~Scope() {
  if (!spans_) return;
  Span& span = spans_->spans_[static_cast<std::size_t>(index_)];
  span.end = seconds_since(spans_->origin_);
  spans_->open_ = span.parent;
}

double Spans::self_seconds(std::size_t i) const {
  double self = spans_[i].end - spans_[i].begin;
  for (const Span& child : spans_) {
    if (child.parent == static_cast<int>(i)) self -= child.end - child.begin;
  }
  return self;
}

std::size_t Spans::write_chrome(const std::string& path, std::size_t* events) const {
  // Recorded in open order, which is begin order with parents first — the
  // per-lane monotone order the obs analysis tools expect.
  multihit::obs::Tracer tracer;
  tracer.set_lane_name(0, "perfbench");
  for (const Span& span : spans_) {
    tracer.complete(0, span.name, "perfbench", span.begin, span.end);
  }
  if (events) *events = tracer.size();
  const std::string json = tracer.to_chrome_json();
  std::ofstream out(path);
  out << json << '\n';
  return out ? json.size() + 1 : 0;
}

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
