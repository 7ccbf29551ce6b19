#pragma once
// Measurement plumbing shared by every perfbench workload: clocks, order
// statistics, the pure-ALU noise control, process resource counters, the
// benchmark-side layer span recorder, and the metric list main.cpp prints.
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU seconds of the whole process (all threads).
double process_cpu_seconds();

/// CPU seconds consumed by the calling thread.
double thread_cpu_seconds();

/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// The highest of p50/p75/p90/p95/p99 that leaves at least ten samples
/// beyond it, as a label ("p75") and value; "p50" with fewer than 20
/// samples. `n` is the sample count.
struct TailStat {
  std::string label;
  double value = 0.0;
  std::size_t n = 0;
};
TailStat tail_stat(const std::vector<double>& values);

/// One run of the fixed pure-ALU control loop; returns its wall seconds.
/// Its work never changes, so its time moves only with the machine.
double control_alu();

/// A benchmark-side span: one call into a library layer, timed from the
/// benchmark's own code. `parent` indexes the enclosing span (-1 = root).
struct Span {
  std::string name;
  double begin = 0.0;
  double end = 0.0;
  int parent = -1;
};

/// In-memory span recorder. Spans nest by call order on one thread; they
/// are written out once, at the end, as an obs::Tracer Chrome trace.
class Spans {
 public:
  Spans() : origin_(Clock::now()) {}

  /// RAII span: opens on construction, closes on destruction. A null
  /// recorder makes it a no-op, so untraced runs pay one branch.
  class Scope {
   public:
    Scope(Spans* spans, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time of span i: its duration minus the part its children cover.
  double self_seconds(std::size_t i) const;

  /// Writes the spans as Chrome trace-event JSON through obs::Tracer, on one
  /// lane, in begin order. Returns the bytes written (0 on I/O failure).
  std::size_t write_chrome(const std::string& path, std::size_t* events) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// A named number with its unit, as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
