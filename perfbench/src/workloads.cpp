#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "bitmat/bitops.hpp"
#include "cluster/distributed.hpp"
#include "cluster/model.hpp"
#include "cluster/summit.hpp"
#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/hostsweep.hpp"
#include "core/schemes.hpp"
#include "core/session.hpp"
#include "data/maf.hpp"
#include "data/registry.hpp"
#include "gpusim/perfmodel.hpp"
#include "obs/analyze.hpp"
#include "obs/hostprof.hpp"
#include "obs/monitor.hpp"
#include "obs/recorder.hpp"
#include "sched/schedule.hpp"
#include "sched/workload.hpp"
#include "serve/cache.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace {

using namespace multihit;
using Selections = std::vector<std::vector<std::uint32_t>>;

// ------------------------------------------------------------------ helpers

/// Wall seconds of one call.
template <class F>
double timed(F&& f) {
  const Clock::time_point start = Clock::now();
  f();
  return seconds_since(start);
}

/// Median wall seconds of `reps` calls.
template <class F>
double median_timed(int reps, F&& f) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) samples.push_back(timed(f));
  return median(samples);
}

/// Durations and summed self time of every span called `name`.
struct SpanStats {
  std::vector<double> durations;
  double self_total = 0.0;
};
SpanStats span_stats(const Spans& spans, std::string_view name) {
  SpanStats stats;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& span = spans.spans()[i];
    if (span.name != name) continue;
    stats.durations.push_back(span.end - span.begin);
    stats.self_total += spans.self_seconds(i);
  }
  return stats;
}

FContext context_for(const BitMatrix& tumor, const BitMatrix& normal) {
  FContext ctx;
  ctx.tumor_total = tumor.samples();
  ctx.normal_total = normal.samples();
  return ctx;
}

/// One single-thread full-λ call of the scheme the host sweep uses for
/// `hits` (3 -> 2x1, 4 -> 3x1).
EvalResult evaluate_full(const BitMatrix& tumor, const BitMatrix& normal, std::uint32_t hits,
                         const MemOpts& opts, KernelStats* stats) {
  const FContext ctx = context_for(tumor, normal);
  const std::uint32_t genes = tumor.genes();
  switch (hits) {
    case 3:
      return evaluate_range_3hit(tumor, normal, ctx, Scheme3::k2x1, 0,
                                 scheme3_threads(Scheme3::k2x1, genes), opts, stats);
    case 4:
      return evaluate_range_4hit(tumor, normal, ctx, Scheme4::k3x1, 0,
                                 scheme4_threads(Scheme4::k3x1, genes), opts, stats);
    default:
      throw std::invalid_argument("perfbench: unsupported hit count");
  }
}

WorkloadModel workload_model(std::uint32_t genes, std::uint32_t hits) {
  return hits == 3 ? WorkloadModel::for_scheme3(Scheme3::k2x1, genes)
                   : WorkloadModel::for_scheme4(Scheme4::k3x1, genes);
}

/// Head and tail tumor states of a greedy run: the iteration-0 matrix and
/// the input of the last committed iteration (the most-spliced nonempty one).
struct GreedyStates {
  BitMatrix head;
  BitMatrix tail;
};

/// Runs a greedy cover (outside every timed region) and records its head
/// and tail tumor states.
GreedyResult greedy_with_states(const Dataset& data, std::uint32_t hits,
                              std::uint32_t max_iterations, const Evaluator& evaluator,
                              GreedyStates& states) {
  BitMatrix current = data.tumor;
  BitMatrix previous = data.tumor;
  EngineConfig config;
  config.hits = hits;
  config.max_iterations = max_iterations;
  config.on_iteration = [&](const IterationRecord&, const BitMatrix& tumor, std::uint32_t) {
    previous = std::move(current);
    current = tumor;
  };
  GreedyResult result = run_greedy(data.tumor, data.normal, config, evaluator);
  states.head = data.tumor;
  states.tail = previous.samples() > 0 ? std::move(previous) : data.tumor;
  return result;
}

/// Fraction of planted combinations found among `selections`.
double planted_recovery(const Selections& planted, const Selections& selections) {
  if (planted.empty()) return 1.0;
  std::size_t found = 0;
  for (std::vector<std::uint32_t> combo : planted) {
    std::sort(combo.begin(), combo.end());
    if (std::find(selections.begin(), selections.end(), combo) != selections.end()) ++found;
  }
  return static_cast<double>(found) / static_cast<double>(planted.size());
}

// ------------------------------------------------------------ layer probes

/// bitmat: ns per dispatched call on real rows of `m`.
double and2_ns(const BitMatrix& m) {
  constexpr std::uint32_t kCalls = 1u << 20;
  std::uint64_t sink = 0;
  const std::uint32_t genes = m.genes();
  const double seconds = timed([&] {
    for (std::uint32_t c = 0; c < kCalls; ++c) {
      sink += and_popcount(m.row(c % genes), m.row((c * 7 + 1) % genes));
    }
  });
  asm volatile("" : : "r"(sink));
  return seconds * 1e9 / kCalls;
}

double and_rows_ns(const BitMatrix& m) {
  constexpr std::uint32_t kCalls = 1u << 20;
  std::vector<std::uint64_t> dst(m.words_per_row());
  const std::uint32_t genes = m.genes();
  const double seconds = timed([&] {
    for (std::uint32_t c = 0; c < kCalls; ++c) {
      and_rows(dst, m.row(c % genes), m.row((c * 7 + 1) % genes));
    }
  });
  asm volatile("" : : "r"(dst.data()) : "memory");
  return seconds * 1e9 / kCalls;
}

void probe_bitmat(const GreedyStates& states, LayerValues& out) {
  out["bitmat.backend_avx2"] = active_backend() == BitopsBackend::kAvx2 ? 1.0 : 0.0;
  out["bitmat.words.head"] = states.head.words_per_row();
  out["bitmat.words.tail"] = states.tail.words_per_row();
  out["bitmat.and2_ns.head"] = and2_ns(states.head);
  out["bitmat.and2_ns.tail"] = and2_ns(states.tail);
  out["bitmat.and_rows_ns.head"] = and_rows_ns(states.head);
  out["bitmat.and_rows_ns.tail"] = and_rows_ns(states.tail);
}

/// core.schemes: single-thread full-λ kernel calls on the head and tail
/// states, plus the measured MemOpt off/on ratio on the head state.
void probe_kernel(const GreedyStates& states, const BitMatrix& normal, std::uint32_t hits,
                  LayerValues& out) {
  const MemOpts on{.prefetch_i = true, .prefetch_j = true};
  KernelStats stats;
  evaluate_full(states.head, normal, hits, on, &stats);  // warm + computed counts
  const double combos = static_cast<double>(stats.combinations);
  out["kernel.word_ops_per_combo"] = static_cast<double>(stats.word_ops) / combos;
  out["kernel.global_bytes_per_combo"] = static_cast<double>(stats.global_words) * 8.0 / combos;
  const auto ns_per_combo = [&](const BitMatrix& tumor, const MemOpts& opts) {
    return median_timed(3, [&] { evaluate_full(tumor, normal, hits, opts, nullptr); }) * 1e9 /
           combos;
  };
  const double head_on = ns_per_combo(states.head, on);
  out["kernel.ns_per_combo.head"] = head_on;
  out["kernel.ns_per_combo.tail"] = ns_per_combo(states.tail, on);
  out["kernel.memopt_speedup"] = ns_per_combo(states.head, MemOpts{}) / head_on;
}

HostSweepOptions sweep_options(std::uint32_t hits, std::uint32_t threads) {
  HostSweepOptions options;
  options.hits = hits;
  options.threads = threads;
  return options;
}

/// core.hostsweep: iteration-0 sweep at one thread versus `threads`,
/// interleaved, median of five each.
void probe_speedup(const BitMatrix& head, const BitMatrix& normal, std::uint32_t hits,
                   std::uint32_t threads, LayerValues& out) {
  const FContext ctx = context_for(head, normal);
  std::vector<double> t1;
  std::vector<double> tn;
  for (int i = 0; i < 5; ++i) {
    t1.push_back(timed([&] { host_sweep_find_best(head, normal, ctx, sweep_options(hits, 1)); }));
    tn.push_back(
        timed([&] { host_sweep_find_best(head, normal, ctx, sweep_options(hits, threads)); }));
  }
  out["hostsweep.speedup_t4_vs_t1"] = median(t1) / median(tn);
}

/// core.hostsweep wall-clock metrics from the public HostProfiler seam.
void hostsweep_metrics(const obs::HostProfile& profile, LayerValues& out) {
  if (profile.sweeps.empty()) return;
  std::vector<double> walls;
  std::vector<double> merges;
  std::vector<double> chunks;
  double worker_seconds = 0.0;
  for (const obs::HostSweepStat& sweep : profile.sweeps) {
    walls.push_back(sweep.wall_seconds);
    merges.push_back(sweep.merge_seconds);
    chunks.push_back(static_cast<double>(sweep.chunk_count));
    worker_seconds += sweep.wall_seconds * sweep.workers;
  }
  out["hostsweep.sweep_s"] = median(walls);
  out["hostsweep.sweep_tail_s"] = tail_stat(walls).value;
  out["hostsweep.chunks_per_sweep"] = median(chunks);
  out["hostsweep.workers_busy"] = profile.sweeps.front().workers;
  out["hostsweep.tail_idle_frac"] =
      worker_seconds > 0.0 ? profile.tail_idle_seconds / worker_seconds : 0.0;
  out["hostsweep.merge_s"] = median(merges);
  if (profile.total_combinations > 0) {
    out["bitmat.calls_per_combo"] = static_cast<double>(profile.total_calls.total()) /
                                    static_cast<double>(profile.total_combinations);
  }
}

/// sched: the equi-area schedule of this λ space over 24 GPUs (4 nodes).
void probe_sched(std::uint32_t genes, std::uint32_t hits, LayerValues& out) {
  const WorkloadModel model = workload_model(genes, hits);
  constexpr int kCalls = 200;
  const double seconds = median_timed(5, [&] {
    for (int i = 0; i < kCalls; ++i) {
      const auto partitions = equiarea_schedule(model, 24);
      asm volatile("" : : "r"(partitions.data()) : "memory");
    }
  });
  out["sched.equiarea_s"] = seconds / kCalls;
}

/// Modeled (simulated-clock) numbers for this input size on 4 Summit nodes.
ModelInputs model_inputs(const Dataset& data, std::uint32_t hits) {
  ModelInputs inputs;
  inputs.genes = data.genes();
  inputs.tumor_samples = data.tumor_samples();
  inputs.normal_samples = data.normal_samples();
  inputs.hits = hits;
  return inputs;
}

void model_memopt(const ModelInputs& inputs, LayerValues& out) {
  ModelInputs off = inputs;
  off.mem_opts = MemOpts{};
  off.bit_splicing = false;
  ModelInputs on = off;
  on.mem_opts = MemOpts{.prefetch_i = true, .prefetch_j = true};
  out["model.memopt_speedup"] = model_single_gpu_time(DeviceSpec::v100(), off) /
                                model_single_gpu_time(DeviceSpec::v100(), on);
}

/// The analytic Summit model of this cover, calibrated to the measured
/// greedy run's coverage per iteration and iteration count.
void model_cluster(ModelInputs inputs, const GreedyResult& greedy, LayerValues& out) {
  inputs.coverage_per_iteration = calibrate_coverage(greedy);
  inputs.max_iterations = static_cast<std::uint32_t>(greedy.iterations.size());
  SummitConfig config;
  config.nodes = 4;
  const ModeledRun run = model_cluster_run(config, inputs);
  std::vector<double> iterations;
  for (const ModeledIteration& it : run.iterations) iterations.push_back(it.time);
  out["model.makespan_s"] = run.total_time;
  out["model.p99_s"] = quantile(iterations, 0.99);
}

std::string join(const std::string& dir, const std::string& file) {
  return (std::filesystem::path(dir) / file).string();
}

// ------------------------------------------------ serve and cluster probes
//
// The job service and the simulated cluster run single-threaded kernels on
// 1–2-word rows, whose wall clock on a shared VM swings by more than the
// benchmark's largest bound between runs; they are measured here, in the
// traced run, on inputs built from the run's seed, rather than as timed
// workloads of their own.

/// serve: one replay of an open-mix trace (192 analyze requests,
/// invalidate rate 0.25, default ServiceOptions, cache on) on a service whose
/// cohorts were ingested first. Every completed job must equal a standalone
/// run of its cancer; throws otherwise.
void probe_serve(const Env& env, LayerValues& out) {
  serve::TraceSpec spec;
  spec.mix = serve::ArrivalMix::kOpen;
  spec.jobs = 192;
  spec.invalidate_rate = 0.25;
  spec.seed = env.seed;
  const serve::RequestTrace trace = serve::generate_trace(spec);
  const serve::ServiceOptions options;
  serve::JobService service(options);
  for (const serve::Request& request : trace.requests) service.cache().dataset(request.cancer);
  const std::uint64_t ingest_builds = service.cache().stats().dataset_builds;

  serve::ServeResult result;
  out["serve.replay_s"] = timed([&] { result = service.replay(trace); });

  // serve's standalone check, outside the timed replay.
  std::map<std::string, Selections> standalone;
  for (const serve::JobRecord& job : result.jobs) {
    if (job.outcome != serve::JobOutcome::kCompleted) continue;
    auto it = standalone.find(job.cancer);
    if (it == standalone.end()) {
      const Dataset data =
          generate_dataset(serve::CancerCache::serve_spec(*find_cancer_type(job.cancer)));
      EngineConfig config;
      config.hits = job.hits;
      it = standalone
               .emplace(job.cancer, run_greedy(data.tumor, data.normal, config,
                                               make_kernel_evaluator(job.hits))
                                        .combinations())
               .first;
    }
    if (it->second != job.selections) {
      throw std::runtime_error("serve job " + std::to_string(job.id) + " (" + job.cancer +
                               ") differs from its standalone run");
    }
  }

  const serve::CancerCache::Stats& cache = service.cache().stats();
  const double lookups = static_cast<double>(cache.result_hits + cache.result_misses);
  out["serve.cache_lookups"] = lookups;
  out["serve.cache_hit_ratio"] =
      lookups > 0.0 ? static_cast<double>(cache.result_hits) / lookups : 0.0;
  out["serve.dataset_builds"] = static_cast<double>(cache.dataset_builds - ingest_builds);
  out["serve.computed_jobs"] = result.completed - result.cache_hits;
  out["serve.rounds"] = static_cast<double>(result.rounds);
  out["serve.report_s"] = median_timed(3, [&] {
    std::ofstream file(join(env.out_dir, "serve.json"));
    file << serve::serve_report(result, trace, options).dump() << '\n';
  });
  out["model.serve_p99_s"] = result.p99_latency;
}

/// cluster, sched, gpusim, mpisim, obs: ClusterRunner::run on 4 simulated
/// nodes with equi-area scheduling and the recorder and kernel profiler on,
/// over brca_scaleout's G=90, 120/80 4-hit downscale with registry-style
/// noise, then the five run artifacts written. A full cover of this cohort
/// takes 10 to 30 selections depending on the seed; the run stops at 10.
/// Its selections must equal the host sweep's; throws otherwise.
void probe_cluster(const Env& env, LayerValues& out) {
  constexpr std::uint32_t kSelections = 10;
  SyntheticSpec spec;
  spec.genes = 90;
  spec.tumor_samples = 120;
  spec.normal_samples = 80;
  spec.hits = 4;
  spec.num_combinations = 5;
  spec.driver_detect_rate = 0.97;
  spec.background_rate = 0.012;
  spec.tumor_excess_rate = 0.004;
  spec.normal_contamination = 0.03;
  spec.seed = env.seed;
  const Dataset data = summarize_maf(generate_maf_study(spec));

  SummitConfig config;
  config.nodes = 4;
  const ClusterRunner runner(config);
  DistributedOptions options;
  options.hits = spec.hits;
  options.max_iterations = kSelections;
  const double bare = median_timed(3, [&] { runner.run(data, options); });

  obs::Recorder recorder;
  recorder.profile.enable();
  options.recorder = &recorder;
  ClusterRunResult result;
  const double traced = timed([&] { result = runner.run(data, options); });
  out["cluster.run_s"] = traced;
  out["cluster.recorder_overhead_frac"] = (traced - bare) / bare;

  EngineConfig reference;
  reference.hits = spec.hits;
  reference.max_iterations = kSelections;
  const Selections host = run_greedy(data.tumor, data.normal, reference,
                                     make_host_sweep_evaluator(
                                         sweep_options(spec.hits, env.threads)))
                              .combinations();
  if (result.greedy.combinations() != host) {
    throw std::runtime_error("cluster selections differ from the host sweep's");
  }

  const auto artifact = [&](const char* suffix) {
    return join(env.out_dir, std::string("cluster.") + suffix);
  };
  out["obs.write_trace_s"] = timed([&] { recorder.write_trace(artifact("trace.json")); });
  out["obs.write_metrics_s"] = timed([&] { recorder.write_metrics(artifact("metrics.json")); });
  obs::TraceAnalysis analysis;
  out["obs.analyze_s"] = timed([&] { analysis = obs::analyze_trace(recorder.trace); });
  const obs::JsonValue metrics_doc = recorder.metrics.snapshot();
  out["obs.report_s"] = timed([&] {
    std::ofstream file(artifact("analysis.json"));
    file << obs::analysis_report(analysis, &metrics_doc).dump() << '\n';
  });
  out["obs.profile_write_s"] = timed([&] { recorder.write_profile(artifact("profile.json")); });
  out["obs.monitor_s"] = timed([&] {
    std::ofstream file(artifact("health.json"));
    file << obs::health_report(obs::monitor_trace(recorder.trace)).dump() << '\n';
  });
  out["obs.trace_events"] = static_cast<double>(recorder.trace.size());
  out["obs.trace_bytes"] = static_cast<double>(std::filesystem::file_size(artifact("trace.json")));

  const auto totals = obs::metrics_counter_totals(metrics_doc);
  const auto per_iteration = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : it->second / static_cast<double>(result.iterations.size());
  };
  out["gpusim.launches_per_iter"] = per_iteration("gpu.kernel_launches");
  out["mpisim.messages_per_iter"] = per_iteration("comm.messages");
  out["mpisim.bytes_per_iter"] = per_iteration("comm.message_bytes");
  out["model.cluster_makespan_s"] = result.total_time;
}

// ---------------------------------------------------------------- workloads

/// Greedy cover through the Engine session API with the threaded host
/// sweep as evaluator (cover4_brca, cover3_checkpointed).
class CoverWorkload final : public Workload {
 public:
  CoverWorkload(std::string name, SyntheticSpec spec, std::uint32_t max_iterations,
                std::uint32_t checkpoint_every, const Env& env)
      : name_(std::move(name)),
        spec_(spec),
        max_iterations_(max_iterations),
        checkpoint_every_(checkpoint_every),
        env_(env) {
    spec_.seed = env.seed;
  }

  void setup(Spans* spans) override {
    MafStudy study;
    {
      Spans::Scope span(spans, "data.maf_generate");
      study = generate_maf_study(spec_);
    }
    Spans::Scope span(spans, "data.summarize");
    data_ = summarize_maf(study);
    planted_ = study.planted;
  }

  void reference() override {
    reference_ = greedy_with_states(data_, spec_.hits, max_iterations_,
                                    make_serial_evaluator(spec_.hits), states_);
    selections_reference_ = reference_.combinations();
  }

  std::uint64_t solve(Spans* spans) override {
    HostSweepTelemetry telemetry;
    HostSweepOptions options = sweep_options(spec_.hits, env_.threads);
    if (profiling_) options.profiler = profiler_.get();
    const Evaluator sweep = make_host_sweep_evaluator(options, &telemetry);
    const Evaluator evaluator = [&](const BitMatrix& t, const BitMatrix& n, const FContext& c) {
      Spans::Scope span(spans, "core.hostsweep");
      return sweep(t, n, c);
    };
    EngineConfig config;
    config.hits = spec_.hits;
    config.max_iterations = max_iterations_;
    Engine engine(data_.tumor, data_.normal, config, evaluator);
    while (!engine.done() && engine.iterations_committed() < max_iterations_) {
      {
        Spans::Scope span(spans, "core.session");
        if (engine.step(1) == 0) break;
      }
      if (checkpoint_every_ > 0 && engine.iterations_committed() % checkpoint_every_ == 0) {
        Spans::Scope span(spans, "core.checkpoint");
        save_checkpoint(checkpoint_path(), engine.checkpoint());
      }
    }
    selections_ = engine.result().combinations();
    iterations_ = engine.iterations_committed();
    return telemetry.stats.combinations;
  }

  std::string check() const override {
    if (selections_ != selections_reference_) {
      return "selections differ from the serial reference";
    }
    if (planted_recovery(planted_, selections_) < kMinRecovery) {
      return "fewer than 90% of the planted combinations recovered";
    }
    return {};
  }

  void instrument(bool on) override {
    if (on) profiler_ = std::make_unique<obs::HostProfiler>();  // one traced solve's sweeps
    profiling_ = on;
  }

  void layer_metrics(LayerValues& out, const Spans& spans) override {
    const double solves =
        static_cast<double>(std::max<std::size_t>(1, span_stats(spans, "solve").durations.size()));
    out["engine.iterations"] = iterations_;
    out["engine.self_s"] = span_stats(spans, "core.session").self_total / solves;
    out["data.planted_recovered_frac"] = planted_recovery(planted_, selections_);
    out["data.maf_generate_s"] = median(span_stats(spans, "data.maf_generate").durations);
    out["data.summarize_s"] = median(span_stats(spans, "data.summarize").durations);
    if (profiler_) hostsweep_metrics(profiler_->profile(), out);
    const SpanStats checkpoints = span_stats(spans, "core.checkpoint");
    if (!checkpoints.durations.empty()) {
      out["checkpoint.write_s"] = median(checkpoints.durations);
      out["checkpoint.bytes"] =
          static_cast<double>(std::filesystem::file_size(checkpoint_path()));
    } else {
      // This cover writes no periodic checkpoint: time writing its final state.
      CheckpointState state;
      state.hits = spec_.hits;
      state.tumor = states_.tail;
      out["checkpoint.write_s"] =
          median_timed(5, [&] { save_checkpoint(checkpoint_path(), state); });
      out["checkpoint.bytes"] =
          static_cast<double>(std::filesystem::file_size(checkpoint_path()));
    }
    probe_bitmat(states_, out);
    probe_kernel(states_, data_.normal, spec_.hits, out);
    probe_speedup(states_.head, data_.normal, spec_.hits, env_.threads, out);
    probe_sched(data_.genes(), spec_.hits, out);
    const ModelInputs inputs = model_inputs(data_, spec_.hits);
    model_cluster(inputs, reference_, out);
    model_memopt(inputs, out);
    probe_serve(env_, out);
    probe_cluster(env_, out);
  }

 private:
  static constexpr double kMinRecovery = 0.9;

  std::string checkpoint_path() const { return join(env_.out_dir, name_ + ".ckpt"); }

  std::string name_;
  SyntheticSpec spec_;
  std::uint32_t max_iterations_;
  std::uint32_t checkpoint_every_;
  Env env_;
  Dataset data_;
  Selections planted_;
  GreedyResult reference_;
  Selections selections_reference_;
  GreedyStates states_;
  Selections selections_;
  std::uint32_t iterations_ = 0;
  std::unique_ptr<obs::HostProfiler> profiler_;
  bool profiling_ = false;
};

SyntheticSpec brca_cohort(std::uint32_t genes, std::uint32_t hits, std::uint32_t planted) {
  SyntheticSpec spec;
  spec.genes = genes;
  spec.tumor_samples = 911;
  spec.normal_samples = 520;
  spec.hits = hits;
  spec.num_combinations = planted;
  spec.driver_detect_rate = 0.97;
  spec.background_rate = 0.012;
  return spec;
}

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, const Env& env) {
  // Cover caps sit below the shortest full cover seen across seeds, so every
  // seed does the same number of greedy iterations.
  if (name == "cover4_brca") {
    return std::make_unique<CoverWorkload>("cover4_brca", brca_cohort(100, 4, 6), 48, 0, env);
  }
  if (name == "cover3_checkpointed") {
    return std::make_unique<CoverWorkload>("cover3_checkpointed", brca_cohort(250, 3, 20), 80,
                                           10, env);
  }
  return nullptr;
}

}  // namespace perfbench
