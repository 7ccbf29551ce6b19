// perfbench: measured time to solution of the MultiHit library on seeded
// workloads, with per-layer attribution in a separate traced run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//
// Untraced (--trace 0): repeats set-up + solve for S seconds (at least three
// repeats), interleaved with a fixed pure-ALU control loop, and prints the
// end-to-end metrics. Traced (--trace 1): alternates untraced and traced
// solves for S seconds, probes single layers on the same inputs, writes the
// benchmark-side layer spans as a Chrome trace (DIR/NAME.trace.json, readable
// by `multihit-obstool analyze --folded-out`), and prints the per-layer
// metrics. The last stdout line is always the JSON result. Exit status: 0
// when every solve matched its oracle, 1 when any did not, 2 on bad usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "bitmat/bitops.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Every per-layer metric, with its unit, in print order. Each traced run
/// prints all of them (README.md says where each comes from).
const std::vector<std::pair<const char*, const char*>>& layer_table() {
  static const std::vector<std::pair<const char*, const char*>> table = {
      {"control.alu_s", "s"},
      {"control.noisy_frac", "frac"},
      {"bitmat.backend_avx2", "count"},
      {"bitmat.calls_per_combo", "calls"},
      {"bitmat.words.head", "count"},
      {"bitmat.words.tail", "count"},
      {"bitmat.and2_ns.head", "ns"},
      {"bitmat.and2_ns.tail", "ns"},
      {"bitmat.and_rows_ns.head", "ns"},
      {"bitmat.and_rows_ns.tail", "ns"},
      {"kernel.ns_per_combo.head", "ns"},
      {"kernel.ns_per_combo.tail", "ns"},
      {"kernel.word_ops_per_combo", "count"},
      {"kernel.global_bytes_per_combo", "B"},
      {"kernel.memopt_speedup", "x"},
      {"hostsweep.sweep_s", "s"},
      {"hostsweep.sweep_tail_s", "s"},
      {"hostsweep.chunks_per_sweep", "count"},
      {"hostsweep.workers_busy", "count"},
      {"hostsweep.tail_idle_frac", "frac"},
      {"hostsweep.merge_s", "s"},
      {"hostsweep.speedup_t4_vs_t1", "x"},
      {"engine.iterations", "count"},
      {"engine.self_s", "s"},
      {"checkpoint.write_s", "s"},
      {"checkpoint.bytes", "B"},
      {"data.maf_generate_s", "s"},
      {"data.summarize_s", "s"},
      {"data.planted_recovered_frac", "frac"},
      {"serve.cache_hit_ratio", "frac"},
      {"serve.cache_lookups", "count"},
      {"serve.dataset_builds", "count"},
      {"serve.computed_jobs", "count"},
      {"serve.rounds", "count"},
      {"serve.replay_s", "s"},
      {"serve.report_s", "s"},
      {"sched.equiarea_s", "s"},
      {"gpusim.launches_per_iter", "count"},
      {"mpisim.messages_per_iter", "count"},
      {"mpisim.bytes_per_iter", "B"},
      {"cluster.run_s", "s"},
      {"cluster.recorder_overhead_frac", "frac"},
      {"obs.trace_events", "count"},
      {"obs.trace_bytes", "B"},
      {"obs.write_trace_s", "s"},
      {"obs.write_metrics_s", "s"},
      {"obs.analyze_s", "s"},
      {"obs.monitor_s", "s"},
      {"obs.profile_write_s", "s"},
      {"obs.report_s", "s"},
      {"model.makespan_s", "sim_s"},
      {"model.p99_s", "sim_s"},
      {"model.memopt_speedup", "sim_x"},
      {"model.serve_p99_s", "sim_s"},
      {"model.cluster_makespan_s", "sim_s"},
      {"trace.solve_s", "s"},
      {"trace.untraced_solve_s", "s"},
      {"trace.overhead_s", "s"},
      {"trace.residual_frac", "frac"},
      {"trace.self_frac.core.session", "frac"},
      {"trace.self_frac.core.hostsweep", "frac"},
      {"trace.self_frac.core.checkpoint", "frac"},
  };
  return table;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n");
  return 2;
}

/// Counts solves and their failures; a failure is a selection mismatch or
/// an exception, reported on stderr.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  struct Outcome {
    bool ok = false;
    std::uint64_t combos = 0;
    double wall = 0.0;  ///< solve wall seconds (the check is not timed)
    double cpu = 0.0;   ///< process CPU seconds during the solve
  };

  /// One checked solve. With `spans`, the solve sits under a "solve" root.
  Outcome solve(Workload& w, Spans* spans) {
    ++attempted;
    Outcome out;
    try {
      const double cpu0 = process_cpu_seconds();
      const Clock::time_point t0 = Clock::now();
      {
        Spans::Scope root(spans, "solve");
        out.combos = w.solve(spans);
      }
      out.wall = seconds_since(t0);
      out.cpu = process_cpu_seconds() - cpu0;
      const std::string why = w.check();
      out.ok = why.empty();
      if (!out.ok) {
        std::fprintf(stderr, "perfbench: solve %llu failed: %s\n",
                     static_cast<unsigned long long>(attempted), why.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: solve %llu threw: %s\n",
                   static_cast<unsigned long long>(attempted), e.what());
    }
    failed += out.ok ? 0 : 1;
    return out;
  }
};

/// CPU seconds per set-up, averaged over a batch of at least 50 ms of wall
/// time so that sub-millisecond set-ups still give a steady sample. Set-up
/// is single-threaded, and its thread's CPU time leaves out the time a
/// shared VM's hypervisor takes the vCPU away, which moved wall-clock set-up
/// medians by up to 50% between otherwise equal runs.
double timed_setup(Workload& w) {
  const Clock::time_point start = Clock::now();
  const double cpu0 = thread_cpu_seconds();
  int calls = 0;
  do {
    w.setup(nullptr);
    ++calls;
  } while (seconds_since(start) < 0.05);
  return (thread_cpu_seconds() - cpu0) / calls;
}

/// Noise guard: a repeat is noisy when its control loop ran 25% slower than
/// the run's fastest control loop.
double noisy_fraction(const std::vector<double>& control) {
  if (control.empty()) return 0.0;
  const double best = quantile(control, 0.0);
  std::size_t noisy = 0;
  for (double c : control) noisy += c > 1.25 * best ? 1 : 0;
  return static_cast<double>(noisy) / static_cast<double>(control.size());
}

void print_stat(const char* name, const std::vector<double>& values, const char* unit) {
  const TailStat tail = tail_stat(values);
  std::printf("  %-14s median %.6g %s, %s %.6g %s (n=%zu)\n", name, median(values), unit,
              tail.label.c_str(), tail.value, unit, tail.n);
}

void run_untraced(Workload& w, const Args& args, Tally& tally, std::vector<Metric>& metrics,
                 std::vector<double>& control) {
  std::vector<double> setup_s;
  std::vector<double> solve_s;
  std::vector<double> combos_per_s;
  std::vector<double> cpu_s;
  const Clock::time_point start = Clock::now();
  for (int repeat = 0; repeat < 3 || seconds_since(start) < args.seconds; ++repeat) {
    control.push_back(control_alu());
    setup_s.push_back(timed_setup(w));
    const Tally::Outcome out = tally.solve(w, nullptr);
    if (!out.ok) continue;
    solve_s.push_back(out.wall);
    cpu_s.push_back(out.cpu);
    combos_per_s.push_back(static_cast<double>(out.combos) / out.wall);
  }
  std::printf("end-to-end (%zu repeats):\n", solve_s.size());
  print_stat("setup_s", setup_s, "s");
  print_stat("solve_s", solve_s, "s");
  print_stat("combos_per_s", combos_per_s, "1/s");
  print_stat("cpu_s", cpu_s, "s");
  metrics.push_back({"setup_s", median(setup_s), "s"});
  metrics.push_back({"solve_s", median(solve_s), "s"});
  metrics.push_back({"combos_per_s", median(combos_per_s), "1/s"});
  metrics.push_back({"cpu_s", median(cpu_s), "s"});
  metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
}

void run_traced(Workload& w, const Args& args, Tally& tally, LayerValues& values,
                std::vector<double>& control) {
  Spans spans;
  std::vector<double> untraced;
  std::vector<double> traced;
  const Clock::time_point start = Clock::now();
  while (traced.empty() || seconds_since(start) < args.seconds) {
    control.push_back(control_alu());
    w.setup(nullptr);
    untraced.push_back(tally.solve(w, nullptr).wall);
    w.setup(&spans);
    w.instrument(true);
    traced.push_back(tally.solve(w, &spans).wall);
    w.instrument(false);
  }
  values["trace.solve_s"] = median(traced);
  values["trace.untraced_solve_s"] = median(untraced);
  values["trace.overhead_s"] = median(traced) - median(untraced);

  // Identity over the traced solves: solve = Σ layer self time + residual.
  const std::vector<Span>& all = spans.spans();
  std::map<std::string, double> self;
  double solve_total = 0.0;
  double residual = 0.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    int root = static_cast<int>(i);
    while (all[static_cast<std::size_t>(root)].parent >= 0) {
      root = all[static_cast<std::size_t>(root)].parent;
    }
    if (all[static_cast<std::size_t>(root)].name != "solve") continue;
    if (root == static_cast<int>(i)) {
      solve_total += all[i].end - all[i].begin;
      residual += spans.self_seconds(i);
    } else {
      self[all[i].name] += spans.self_seconds(i);
    }
  }
  std::printf("identity over %zu traced solve(s): solve %.6f s =", traced.size(), solve_total);
  for (const auto& [layer, seconds] : self) {
    std::printf(" %s %.6f +", layer.c_str(), seconds);
    values["trace.self_frac." + layer] = seconds / solve_total;
  }
  std::printf(" residual %.6f s\n", residual);
  values["trace.residual_frac"] = residual / solve_total;

  w.layer_metrics(values, spans);

  const std::string path = (std::filesystem::path(args.out_dir) /
                            (args.workload + ".trace.json")).string();
  std::size_t events = 0;
  if (spans.write_chrome(path, &events) == 0) {
    throw std::runtime_error("cannot write the layer trace to " + path);
  }
  std::printf("layer trace: %s (%zu spans)\n", path.c_str(), events);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      args.trace = std::string(value) == "1";
    } else if (arg == "--out-dir") {
      args.out_dir = value;
    } else {
      return usage();
    }
  }
  Env env;
  env.seed = args.seed;
  env.threads = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  env.out_dir = args.out_dir;
  std::unique_ptr<Workload> w = make_workload(args.workload, env);
  if (!w || !(args.seconds > 0.0)) return usage();
  std::filesystem::create_directories(args.out_dir);

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d backend=%s threads=%u\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, multihit::backend_name(multihit::active_backend()),
              env.threads);
  Tally tally;
  std::vector<double> control;
  std::vector<Metric> metrics;
  try {
    w->setup(nullptr);
    w->reference();  // the oracle: untimed, once per run
    tally.solve(*w, nullptr);  // warm-up, checked
    if (args.trace) {
      LayerValues values;
      run_traced(*w, args, tally, values, control);
      values["control.alu_s"] = median(control);
      values["control.noisy_frac"] = noisy_fraction(control);
      for (const auto& [name, unit] : layer_table()) {
        const auto it = values.find(name);
        metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
        if (it != values.end()) values.erase(it);
      }
      if (!values.empty()) {
        std::fprintf(stderr, "perfbench: internal error: unlisted metric %s\n",
                     values.begin()->first.c_str());
        return 1;
      }
    } else {
      run_untraced(*w, args, tally, metrics, control);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    ++tally.failed;
    tally.attempted = std::max(tally.attempted, tally.failed);
  }
  std::printf("noise: control.alu_s median %.6g s, %.0f%% of %zu repeats noisy (>1.25x best)\n",
              median(control), 100.0 * noisy_fraction(control), control.size());
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::printf("%s\n", result_json(correct, tally.attempted, tally.failed, metrics).c_str());
  return correct ? 0 : 1;
}
