#pragma once
// The perfbench workloads, behind one interface main.cpp times; the
// interface keeps the library's headers out of main.cpp. Every
// workload builds its inputs from the seed alone, computes its correctness
// oracle once outside every timed region, and calls the library only through
// its public headers.
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "harness.hpp"

namespace perfbench {

struct Env {
  std::uint64_t seed = 1;
  std::uint32_t threads = 4;  ///< host-sweep workers (at most nproc)
  std::string out_dir;        ///< output directory for checkpoints and artifacts
};

/// Per-layer metric values by name; units live in main.cpp's table.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds one repeat's inputs from the seed (the timed setup_s).
  virtual void setup(Spans* spans) = 0;
  /// Computes the oracle for the current inputs. Untimed; once per run.
  virtual void reference() = 0;
  /// One time to solution; returns the combinations it evaluated.
  virtual std::uint64_t solve(Spans* spans) = 0;
  /// Empty when the last solve matches the oracle; otherwise the reason.
  virtual std::string check() const = 0;
  /// Traced runs only: switches the solve's own instrumentation (the host
  /// profiler with dispatch call counting) on or off.
  virtual void instrument(bool on) = 0;
  /// Traced runs only: fills the per-layer values from the last traced solve
  /// plus probes of single layers on inputs built from this run's seed.
  /// `spans` holds the traced solves. Throws when a probe's output differs
  /// from its oracle.
  virtual void layer_metrics(LayerValues& out, const Spans& spans) = 0;
};

/// "cover4_brca" or "cover3_checkpointed"; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name, const Env& env);

}  // namespace perfbench
