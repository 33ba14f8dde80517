// The four workloads, their set-up, the traced run's layer probe, and the
// metric assembly.  Every library call goes through a public function and
// is timed from outside; the library runs unchanged.
//
// Clocks: every *_ms / *_us / *_s value is wall clock unless its name says
// "modeled", which is the library's virtual clock (thread CPU time × the smp
// platform's 1997 compute scale, plus α–β message costs).  "minstr" values
// are retired user-space instructions, in millions.
#include "harness.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "checks.h"
#include "counters.h"
#include "ptwgr/circuit/generator.h"
#include "ptwgr/circuit/io.h"
#include "ptwgr/circuit/suite.h"
#include "ptwgr/mp/runtime.h"
#include "ptwgr/obs/record.h"
#include "ptwgr/parallel/parallel_router.h"
#include "ptwgr/partition/net_partition.h"
#include "ptwgr/partition/row_partition.h"
#include "ptwgr/route/coarse.h"
#include "ptwgr/route/connect.h"
#include "ptwgr/route/feedthrough.h"
#include "ptwgr/route/grid.h"
#include "ptwgr/route/router.h"
#include "ptwgr/route/steiner.h"
#include "ptwgr/route/switchable.h"
#include "ptwgr/serve/engine.h"
#include "ptwgr/serve/runner.h"
#include "ptwgr/support/json.h"
#include "ptwgr/support/rng.h"
#include "ptwgr/support/timer.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using ptwgr::Circuit;
using ptwgr::ParallelAlgorithm;
using ptwgr::RoutingMetrics;

constexpr int kRanks = 4;
/// Set-up is repeated and its median reported, so one slow set-up (page
/// faults, a neighbour's burst) does not decide setup_s: at least
/// kSetupReps times and until kSetupSeconds have passed, so a short set-up
/// (serve-mixed's takes ~0.1 s) gets more samples.
constexpr int kSetupReps = 7;
constexpr double kSetupSeconds = 4.0;
/// Repetitions of each probe measurement in the traced run.
constexpr int kProbeReps = 3;

/// The three circuit classes, in equal shares.  biomed and industry3 have
/// no giant nets; avq.large has the 3,200-pin clock net that makes the MST
/// the hot path.  Equal shares put p50 in industry3 and the tail in
/// avq.large, away from the class boundaries.
constexpr std::array<const char*, 3> kCircuits = {"biomed", "industry3",
                                                  "avq.large"};
constexpr std::size_t kClasses = kCircuits.size();

constexpr std::array<const char*, 5> kSteps = {"steiner", "coarse",
                                               "feedthrough", "connect",
                                               "switchable"};
constexpr std::array<ParallelAlgorithm, 4> kAlgorithms = {
    ParallelAlgorithm::RowWise, ParallelAlgorithm::NetWise,
    ParallelAlgorithm::Hybrid, ParallelAlgorithm::TaskGraph};

// serve-mixed: one job kind, as the service receives it.
constexpr const char* kServeSource = "suite:biomed";
constexpr const char* kServeAlgorithm = "row-wise";
constexpr int kServeRanks = 2;
constexpr int kServeBudget = 4;
constexpr std::size_t kServeInFlight = 4;
/// Every kObservedEvery-th job asks for a run report (an observed job).
constexpr std::size_t kObservedEvery = 4;
constexpr std::size_t kServeProbeJobs = 8;

ptwgr::mp::CostModel platform() {
  return ptwgr::mp::CostModel::sparc_center_smp();
}

// --- seeds, clocks, process counters ----------------------------------------

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Stable per-purpose seed derived from the run's --seed (FNV-1a of the
/// salt, so it does not depend on the standard library's hash).
std::uint64_t derive_seed(std::uint64_t seed, std::string_view salt) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : salt) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return splitmix64(seed ^ h) | 1ULL;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// VmHWM (peak resident set) in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

// --- per-layer observations -----------------------------------------------------

struct SerialLayer {
  std::vector<double> generate_ms, parse_ms, verify_ms;
  std::array<std::vector<double>, kSteps.size()> step_ms;
  std::vector<double> route_ms;      ///< Σ of the five step spans
  std::vector<double> route_cpu_ms;  ///< thread CPU of the five steps
  std::size_t text_bytes = 0;
  std::optional<RoutingMetrics> metrics;
  std::vector<double> partition_rows_ms, partition_nets_ms;
};

struct ParallelLayer {
  std::vector<double> wall_ms, modeled_ms, cpu_ms, imbalance;
  std::optional<RoutingMetrics> metrics;
  ptwgr::mp::CommStats comm;  ///< one job's totals
};

struct ServeLayer {
  std::vector<double> submit_us, load_ms;
  std::array<std::vector<double>, 2> queue_wait_ms, route_ms;  ///< plain, observed
  double busy_thread_s = 0.0;
  double window_s = 0.0;
  std::uint64_t retries = 0;
  bool measured = false;
};

struct Observations {
  std::array<SerialLayer, kClasses> serial;
  std::array<std::array<ParallelLayer, kClasses>, kAlgorithms.size()> parallel;
  std::vector<double> launch_ms, sendrecv_us, allreduce_us;
  ServeLayer serve;
};

std::size_t algorithm_index(ParallelAlgorithm algorithm) {
  for (std::size_t a = 0; a < kAlgorithms.size(); ++a) {
    if (kAlgorithms[a] == algorithm) return a;
  }
  throw std::logic_error("unknown algorithm");
}

// --- run state -------------------------------------------------------------------

struct ClassCircuit {
  std::string name;
  Circuit circuit;
  std::string text;  ///< serialized form (serial-file only)
};

/// One job of the timed window.
struct JobSample {
  std::size_t cls = 0;
  double ms = 0.0;
  bool traced = false;
};

struct Run {
  explicit Run(const Options& o) : opt(o) {
    router.seed = derive_seed(o.seed, "router");
    parallel.router = router;
    if (o.trace) spans.emplace();
  }

  Spans* tracer() { return spans ? &*spans : nullptr; }

  /// A harness-level check failed (set-up or probe reference mismatch).
  void fail(const std::string& what) {
    if (setup_error.empty()) setup_error = what;
  }

  const Options& opt;
  ptwgr::RouterOptions router;
  ptwgr::ParallelOptions parallel;
  std::optional<Spans> spans;
  FailureLedger ledger;
  std::string setup_error;
  Observations obs;

  std::vector<ClassCircuit> circuits;
  /// Reference metrics per class (serial) or per class × algorithm.
  std::vector<std::vector<RoutingMetrics>> reference;
  /// serve-mixed: the canonical run report an observed job must return.
  std::string reference_report;
  std::vector<double> setup_s;

  std::vector<JobSample> jobs;
  std::vector<std::string> class_names;
  double window_s = 0.0;
  double window_minstr = 0.0;  ///< retired in the window, in millions
  /// Σ track_count / area over one checked job per class.
  std::vector<std::optional<std::pair<std::int64_t, std::int64_t>>> quality;
};

void record_quality(Run& run, std::size_t cls, std::int64_t tracks,
                    std::int64_t area) {
  if (!run.quality[cls]) run.quality[cls] = std::make_pair(tracks, area);
}

// --- circuits ----------------------------------------------------------------------

Circuit generate_class_circuit(Run& run, std::size_t cls) {
  ptwgr::SuiteEntry entry = ptwgr::suite_entry(kCircuits[cls]);
  entry.config.seed = derive_seed(run.opt.seed, kCircuits[cls]);
  ScopedSpan span(run.tracer(), "circuit.generate", 0);
  const Clock::time_point t0 = Clock::now();
  Circuit circuit = ptwgr::generate_circuit(entry.config);
  run.obs.serial[cls].generate_ms.push_back(ms_between(t0, Clock::now()));
  return circuit;
}

std::string serialize(const Circuit& circuit) {
  std::ostringstream out;
  ptwgr::write_circuit(out, circuit);
  return std::move(out).str();
}

/// Parses `text` inside a "circuit.parse" span (traced runs only).
Circuit parse_traced(Run& run, std::size_t cls, const std::string& text,
                     std::uint64_t job) {
  ScopedSpan span(run.tracer(), "circuit.parse", job);
  std::istringstream in(text);
  Circuit circuit = ptwgr::read_circuit(in);
  run.obs.serial[cls].parse_ms.push_back(span.close());
  run.obs.serial[cls].text_bytes = text.size();
  return circuit;
}

// --- serial routing through the five step functions -------------------------------

/// route_serial, step by step, with a span per step.  Calls the five step
/// functions in route_serial's order with the same RNG splits, so its metrics
/// must be byte-identical to route_serial's; the caller checks that.
ptwgr::RoutingResult route_by_steps(Circuit circuit,
                                    const ptwgr::RouterOptions& options,
                                    Spans& spans, std::uint64_t job,
                                    SerialLayer& layer) {
  using namespace ptwgr;
  Rng rng(options.seed);
  RoutingResult result;
  std::array<double, kSteps.size()> ms{};
  const ThreadCpuTimer cpu;

  std::vector<SteinerTree> trees;
  {
    ScopedSpan span(&spans, "route.steiner", job);
    SteinerOptions steiner_options;
    steiner_options.row_cost = options.steiner_row_cost;
    trees = build_all_steiner_trees(circuit, steiner_options);
    ms[0] = span.close();
  }
  std::optional<CoarseGrid> grid;
  std::vector<CoarseSegment> segments;
  {
    ScopedSpan span(&spans, "route.coarse", job);
    grid.emplace(circuit, options.column_width);
    segments = extract_coarse_segments(trees);
    CoarseOptions coarse_options;
    coarse_options.passes = options.coarse_passes;
    coarse_options.cross_check = options.cross_check;
    CoarseRouter coarse(*grid, coarse_options);
    coarse.place_initial(segments);
    Rng coarse_rng = rng.split();
    const std::size_t flips = coarse.improve(segments, coarse_rng);
    result.metrics.coarse_decisions = static_cast<std::int64_t>(
        segments.size() * static_cast<std::size_t>(options.coarse_passes));
    result.metrics.coarse_flips = static_cast<std::int64_t>(flips);
    ms[1] = span.close();
  }
  {
    ScopedSpan span(&spans, "route.feedthrough", job);
    FeedthroughPools pools =
        insert_feedthroughs(circuit, *grid, options.feedthrough_width);
    assign_feedthroughs(circuit, pools, *grid, segments,
                        options.feedthrough_width);
    ms[2] = span.close();
  }
  {
    ScopedSpan span(&spans, "route.connect", job);
    result.wires = connect_all_nets(circuit);
    ms[3] = span.close();
  }
  std::size_t switch_flips = 0;
  {
    ScopedSpan span(&spans, "route.switchable", job);
    SwitchableOptimizer optimizer(circuit.num_channels(),
                                  circuit.core_width(),
                                  options.switch_bucket_width);
    optimizer.register_wires(result.wires);
    SwitchableOptions switch_options;
    switch_options.passes = options.switchable_passes;
    switch_options.bucket_width = options.switch_bucket_width;
    switch_options.cross_check = options.cross_check;
    Rng switch_rng = rng.split();
    switch_flips = optimizer.optimize(result.wires, switch_rng, switch_options);
    ms[4] = span.close();
  }
  const double cpu_ms = cpu.seconds() * 1e3;

  const std::int64_t coarse_decisions = result.metrics.coarse_decisions;
  const std::int64_t coarse_flips = result.metrics.coarse_flips;
  result.metrics = compute_metrics(circuit, result.wires);
  result.metrics.coarse_decisions = coarse_decisions;
  result.metrics.coarse_flips = coarse_flips;
  result.metrics.switch_decisions =
      obs::count_switchable(result.wires) * options.switchable_passes;
  result.metrics.switch_flips = static_cast<std::int64_t>(switch_flips);
  result.circuit = std::move(circuit);

  result.timings = StepTimings{ms[0] / 1e3, ms[1] / 1e3, ms[2] / 1e3,
                               ms[3] / 1e3, ms[4] / 1e3};
  double total_ms = 0.0;
  for (std::size_t k = 0; k < kSteps.size(); ++k) {
    layer.step_ms[k].push_back(ms[k]);
    total_ms += ms[k];
  }
  layer.route_ms.push_back(total_ms);
  layer.route_cpu_ms.push_back(cpu_ms);
  return result;
}

// --- serial-file -------------------------------------------------------------------

/// parse → route → verify on one class.  `spans` selects the traced form,
/// which routes through the five step functions.
std::string serial_file_job(Run& run, std::size_t cls, std::uint64_t job,
                            bool traced) {
  Spans* spans = traced ? run.tracer() : nullptr;
  ScopedSpan job_span(spans, "job", job);
  const ClassCircuit& cc = run.circuits[cls];
  Circuit circuit = traced ? parse_traced(run, cls, cc.text, job) : [&] {
    std::istringstream in(cc.text);
    return ptwgr::read_circuit(in);
  }();
  SerialLayer& layer = run.obs.serial[cls];
  const ptwgr::RoutingResult result =
      traced ? route_by_steps(std::move(circuit), run.router, *spans, job,
                              layer)
             : ptwgr::route_serial(std::move(circuit), run.router);
  std::string error;
  {
    ScopedSpan verify(spans, "route.verify", job);
    error = check_serial(result, run.reference[cls][0]);
    if (traced) layer.verify_ms.push_back(verify.close());
  }
  if (traced && !layer.metrics) layer.metrics = result.metrics;
  if (error.empty()) {
    record_quality(run, cls, result.metrics.track_count, result.metrics.area);
  }
  return error;
}

void setup_serial_file(Run& run) {
  run.circuits.clear();
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    Circuit circuit = generate_class_circuit(run, cls);
    std::string text = serialize(circuit);
    run.circuits.push_back(
        ClassCircuit{kCircuits[cls], std::move(circuit), std::move(text)});
  }
  // Warm-up job per class; the first set-up records the reference.
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    std::istringstream in(run.circuits[cls].text);
    const ptwgr::RoutingResult result =
        ptwgr::route_serial(ptwgr::read_circuit(in), run.router);
    const auto violations =
        ptwgr::verify_routing(result.circuit, result.wires);
    if (!violations.empty()) {
      run.fail("set-up route of " + run.circuits[cls].name +
               " fails verification: " + violations.front());
    }
    if (run.reference.size() < kClasses) {
      run.reference.push_back({result.metrics});
    } else if (const std::string e =
                   diff_metrics(result.metrics, run.reference[cls][0]);
               !e.empty()) {
      run.fail("set-up routes of " + run.circuits[cls].name + " differ: " + e);
    }
  }
}

// --- parallel-p4 / taskgraph-p4 ----------------------------------------------------

ptwgr::ParallelRoutingResult route_parallel_observed(
    Run& run, std::size_t cls, ParallelAlgorithm algorithm,
    std::uint64_t job, bool traced) {
  Spans* spans = traced ? run.tracer() : nullptr;
  ScopedSpan span(spans, "parallel." + ptwgr::to_string(algorithm), job);
  ptwgr::ParallelRoutingResult result = ptwgr::route_parallel(
      run.circuits[cls].circuit, algorithm, kRanks, run.parallel, platform());
  const double wall_ms = span.close();
  if (traced) {
    ParallelLayer& layer =
        run.obs.parallel[algorithm_index(algorithm)][cls];
    layer.wall_ms.push_back(wall_ms);
    layer.modeled_ms.push_back(result.modeled_seconds() * 1e3);
    layer.cpu_ms.push_back(result.report.total_cpu_seconds() * 1e3);
    const auto& vt = result.report.rank_vtime;
    double mean = 0.0;
    for (const double v : vt) mean += v / static_cast<double>(vt.size());
    layer.imbalance.push_back(mean > 0.0 ? result.modeled_seconds() / mean
                                         : 0.0);
    layer.comm = result.comm_totals();
    if (!layer.metrics) layer.metrics = result.metrics;
  }
  return result;
}

std::string parallel_job(Run& run, std::size_t cls, std::uint64_t job,
                         bool traced,
                         const std::vector<ParallelAlgorithm>& algorithms) {
  ScopedSpan job_span(traced ? run.tracer() : nullptr, "job", job);
  std::string error;
  std::int64_t tracks = 0;
  std::int64_t area = 0;
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    const ptwgr::ParallelRoutingResult result =
        route_parallel_observed(run, cls, algorithms[a], job, traced);
    tracks += result.metrics.track_count;
    area += result.metrics.area;
    if (error.empty()) {
      error = check_parallel(result, run.reference[cls][a]);
      if (!error.empty()) {
        error = ptwgr::to_string(algorithms[a]) + " on " +
                run.circuits[cls].name + ": " + error;
      }
    }
  }
  if (error.empty()) record_quality(run, cls, tracks, area);
  return error;
}

void setup_parallel(Run& run, const std::vector<ParallelAlgorithm>& algorithms) {
  run.circuits.clear();
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    run.circuits.push_back(
        ClassCircuit{kCircuits[cls], generate_class_circuit(run, cls), {}});
  }
  const bool first = run.reference.empty();
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    std::vector<RoutingMetrics> refs;
    for (const ParallelAlgorithm algorithm : algorithms) {
      const ptwgr::ParallelRoutingResult result =
          ptwgr::route_parallel(run.circuits[cls].circuit, algorithm, kRanks,
                                run.parallel, platform());
      if (const std::string e = check_density_sum(result.metrics);
          !e.empty()) {
        run.fail("set-up " + ptwgr::to_string(algorithm) + ": " + e);
      }
      refs.push_back(result.metrics);
    }
    if (first) {
      run.reference.push_back(std::move(refs));
      continue;
    }
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      if (const std::string e = diff_metrics(refs[a], run.reference[cls][a]);
          !e.empty()) {
        run.fail("set-up routes differ: " + e);
      }
    }
  }
}

// --- the closed loop for the in-process workloads ----------------------------------

/// The window's instruction counter: untraced runs only, opened after
/// set-up.  On a virtual machine every context switch of a counted thread
/// traps to the hypervisor, which slows thread-heavy jobs (taskgraph about
/// threefold), so the counter must not run while setup_s or the traced
/// run's times are taken.  Only threads started after it are counted.
std::unique_ptr<InstructionCounter> window_counter(const Run& run) {
  if (run.opt.trace) return nullptr;
  return std::make_unique<InstructionCounter>();
}

/// The counter's total in millions.  Waits a moment first: a joined thread
/// adds its count as the last step of its exit, which can trail the join.
double settled_minstr(const InstructionCounter& counter) {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  return static_cast<double>(counter.read()) / 1e6;
}

/// One generator thread, one job at a time, classes in round-robin order.
/// The window ends on a whole class cycle so every class has the same share.
/// In a traced run every other cycle is traced, so trace_overhead compares
/// traced and untraced jobs of the same run.
template <typename JobFn>
void run_window(Run& run, JobFn&& job_fn) {
  const std::unique_ptr<InstructionCounter> counter = window_counter(run);
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    const std::size_t cls = i % kClasses;
    if (cls == 0 && ms_between(start, Clock::now()) >=
                        1e3 * static_cast<double>(run.opt.seconds)) {
      break;
    }
    const bool traced = run.opt.trace && (i / kClasses) % 2 == 1;
    JobSample sample{cls, 0.0, traced};
    const Clock::time_point t0 = Clock::now();
    try {
      run.ledger.record(job_fn(cls, i + 1, traced));
    } catch (const std::exception& e) {
      run.ledger.record_exception(e.what());
    }
    sample.ms = ms_between(t0, Clock::now());
    run.jobs.push_back(sample);
  }
  run.window_s = ms_between(start, Clock::now()) / 1e3;
  if (counter) run.window_minstr = settled_minstr(*counter);
}

// --- serve-mixed -------------------------------------------------------------------

/// Terminal results handed over by the engine's completion callback, stamped
/// on arrival: the end of a job's submit → terminal latency.
class CompletionQueue {
 public:
  struct Completion {
    ptwgr::serve::JobResult result;
    Clock::time_point at;
  };

  void push(const ptwgr::serve::JobResult& result) {
    const Clock::time_point at = Clock::now();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      items_.push_back(Completion{result, at});
    }
    cv_.notify_one();
  }

  /// Blocks for the next completion; throws if none arrives within a minute
  /// (the engine guarantees every accepted job a terminal result).
  Completion pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, std::chrono::seconds(60),
                      [this] { return !items_.empty(); })) {
      throw std::runtime_error("serve engine produced no result for 60 s");
    }
    Completion next = std::move(items_.front());
    items_.pop_front();
    return next;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Completion> items_;
};

struct ServeRig {
  // Declared before the engine: the engine's callback pushes into it until
  // the engine is destroyed.
  CompletionQueue done;
  std::unique_ptr<ptwgr::serve::ServeEngine> engine;
};

ptwgr::serve::RouteJobConfig serve_reference_config(const Run& run,
                                                    bool observed) {
  ptwgr::serve::RouteJobConfig config;
  config.circuit_source = kServeSource;
  config.algorithm = kServeAlgorithm;
  config.ranks = kServeRanks;
  config.platform = "smp";
  config.seed = run.router.seed;
  config.watchdog = true;  // as the engine runs it
  config.want_run_report = observed;
  return config;
}

ptwgr::serve::JobSpec serve_spec(const Run& run, bool observed) {
  ptwgr::serve::JobSpec spec;
  spec.circuit_source = kServeSource;
  spec.algorithm = kServeAlgorithm;
  spec.ranks = kServeRanks;
  spec.platform = "smp";
  spec.seed = run.router.seed;
  spec.run_report = observed;
  return spec;
}

std::unique_ptr<ServeRig> start_serve_rig() {
  auto rig = std::make_unique<ServeRig>();
  ptwgr::serve::ServeConfig config;
  config.thread_budget = kServeBudget;
  config.telemetry_sample_interval_seconds = 0.0;  // gauge sampler off
  rig->engine = std::make_unique<ptwgr::serve::ServeEngine>(config);
  CompletionQueue* done = &rig->done;
  rig->engine->set_completion_callback(
      [done](const ptwgr::serve::JobResult& r) { done->push(r); });
  return rig;
}

/// Closed loop over the engine: kServeInFlight jobs stay in flight until the
/// window (or `max_jobs`) ends, then the loop drains.  Every job is checked.
/// With `measure`, jobs feed the end-to-end window; the serve layer's
/// samples are always kept.
void serve_loop(Run& run, ServeRig& rig, double seconds, std::size_t max_jobs,
                bool measure) {
  struct InFlight {
    Clock::time_point submitted;
    bool observed = false;
    bool traced = false;
    std::uint64_t job = 0;
  };
  ServeLayer& layer = run.obs.serve;
  std::map<std::string, InFlight> in_flight;
  const Clock::time_point start = Clock::now();
  const std::uint64_t retries0 = rig.engine->stats().retries;
  std::size_t submitted = 0;
  const auto open = [&] {
    return submitted < max_jobs &&
           ms_between(start, Clock::now()) < 1e3 * seconds;
  };
  while (true) {
    while (in_flight.size() < kServeInFlight && open()) {
      const bool observed = submitted % kObservedEvery == kObservedEvery - 1;
      const bool traced =
          run.opt.trace && (submitted / kObservedEvery) % 2 == 1;
      const std::uint64_t job = ++submitted;
      ScopedSpan span(traced ? run.tracer() : nullptr, "serve.submit", job);
      const Clock::time_point t0 = Clock::now();
      const auto submission = rig.engine->submit(serve_spec(run, observed));
      layer.submit_us.push_back(ms_between(t0, Clock::now()) * 1e3);
      in_flight[submission.id] = InFlight{t0, observed, traced, job};
    }
    if (in_flight.empty()) break;
    CompletionQueue::Completion done = rig.done.pop();
    const auto it = in_flight.find(done.result.id);
    if (it == in_flight.end()) {
      throw std::logic_error("completion for unknown job " + done.result.id);
    }
    const InFlight job = it->second;
    in_flight.erase(it);
    const ptwgr::serve::JobResult& r = done.result;
    const double latency_ms = ms_between(job.submitted, done.at);
    if (job.traced) {
      run.tracer()->add("serve.job", job.submitted, done.at, job.job);
    }
    const std::string error = check_serve(
        r, run.reference[0][0], job.observed ? run.reference_report : "");
    run.ledger.record(error);
    const std::size_t kind = job.observed ? 1 : 0;
    layer.queue_wait_ms[kind].push_back(r.queue_seconds * 1e3);
    layer.route_ms[kind].push_back(r.route_seconds * 1e3);
    layer.load_ms.push_back(r.load_seconds * 1e3);
    layer.busy_thread_s += r.run_seconds * kServeRanks;
    if (measure) {
      if (error.empty()) {
        record_quality(run, 0, r.metrics.track_count, r.metrics.area);
      }
      run.jobs.push_back(JobSample{kind, latency_ms, job.traced});
    }
  }
  const double elapsed_s = ms_between(start, Clock::now()) / 1e3;
  layer.window_s += elapsed_s;
  layer.retries += rig.engine->stats().retries - retries0;
  layer.measured = true;
  if (measure) run.window_s = elapsed_s;
}

void setup_serve(Run& run, std::unique_ptr<ServeRig>& rig) {
  // Reference first, so the warm-up jobs below are checked against it.
  const Circuit circuit =
      ptwgr::serve::load_circuit_source(kServeSource, run.router.seed);
  const auto plain = ptwgr::serve::execute_route_job(
      serve_reference_config(run, false), circuit);
  const auto observed = ptwgr::serve::execute_route_job(
      serve_reference_config(run, true), circuit);
  if (run.reference.empty()) {
    run.reference.push_back({plain.metrics});
    run.reference_report = observed.run_report_json;
  } else if (diff_metrics(plain.metrics, run.reference[0][0]) != "" ||
             observed.run_report_json != run.reference_report) {
    run.fail("set-up reference jobs differ between set-ups");
  }
  if (const std::string e = check_density_sum(plain.metrics); !e.empty()) {
    run.fail("set-up reference job: " + e);
  }
  rig = start_serve_rig();
  // Warm-up: one cycle of plain and observed jobs through the engine.
  const FailureLedger saved = run.ledger;
  serve_loop(run, *rig, 1e9, kObservedEvery, false);
  if (run.ledger.failed() != saved.failed()) {
    run.fail("set-up serve job failed: " + run.ledger.first_error());
  }
  run.ledger = saved;
  run.obs.serve = ServeLayer{};
}

// --- the traced run's layer probe ---------------------------------------------------

/// Fills every per-layer observation the workload itself did not produce, so
/// each traced run reports the full per-layer set.  Values measured here
/// come from a standalone call of the layer, not from the workload's jobs.
void probe_missing_layers(Run& run) {
  Spans& spans = *run.tracer();
  const ScopedSpan probe(&spans, "probe", 0);
  if (run.circuits.size() != kClasses) {
    run.circuits.clear();
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      run.circuits.push_back(
          ClassCircuit{kCircuits[cls], generate_class_circuit(run, cls), {}});
    }
  }
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    SerialLayer& layer = run.obs.serial[cls];
    ClassCircuit& cc = run.circuits[cls];
    if (layer.parse_ms.empty()) {
      if (cc.text.empty()) cc.text = serialize(cc.circuit);
      for (int rep = 0; rep < kProbeReps; ++rep) {
        parse_traced(run, cls, cc.text, 0);
      }
    }
    // The serial baseline for speedup_*, work_inflation and tracks_scaled,
    // checked against route_serial like serial-file's traced jobs.
    if (layer.step_ms[0].empty()) {
      const RoutingMetrics reference =
          ptwgr::route_serial(cc.circuit, run.router).metrics;
      for (int rep = 0; rep < kProbeReps; ++rep) {
        const ptwgr::RoutingResult result =
            route_by_steps(cc.circuit, run.router, spans, 0, layer);
        ScopedSpan verify(&spans, "route.verify", 0);
        const std::string error = check_serial(result, reference);
        layer.verify_ms.push_back(verify.close());
        run.ledger.record(error);
        if (!layer.metrics) layer.metrics = result.metrics;
      }
    }
    for (int rep = 0; rep < kProbeReps; ++rep) {
      std::optional<ptwgr::RowPartition> rows;
      {
        ScopedSpan span(&spans, "partition.rows", 0);
        rows = ptwgr::partition_rows(cc.circuit, kRanks);
        layer.partition_rows_ms.push_back(span.close());
      }
      ScopedSpan span(&spans, "partition.nets", 0);
      ptwgr::partition_nets(cc.circuit, kRanks,
                            run.parallel.net_partition, &*rows);
      layer.partition_nets_ms.push_back(span.close());
    }
    for (const ParallelAlgorithm algorithm : kAlgorithms) {
      ParallelLayer& par = run.obs.parallel[algorithm_index(algorithm)][cls];
      if (!par.wall_ms.empty()) continue;
      // An untimed route is the reference every timed repetition must
      // reproduce.  (verify_routing does not apply: a parallel result does
      // not carry the circuit with its inserted feedthroughs.)
      const RoutingMetrics reference =
          ptwgr::route_parallel(cc.circuit, algorithm, kRanks, run.parallel,
                                platform())
              .metrics;
      if (const std::string e = check_density_sum(reference); !e.empty()) {
        run.fail("probe " + ptwgr::to_string(algorithm) + ": " + e);
      }
      for (int rep = 0; rep < kProbeReps; ++rep) {
        run.ledger.record(check_parallel(
            route_parallel_observed(run, cls, algorithm, 0, true), reference));
      }
    }
  }

  // mp primitives at 4 ranks on the smp cost model.
  constexpr int kRounds = 2000;
  for (int rep = 0; rep < 10 * kProbeReps; ++rep) {
    ScopedSpan span(&spans, "mp.launch", 0);
    ptwgr::mp::run(kRanks, platform(), [](ptwgr::mp::Communicator&) {});
    run.obs.launch_ms.push_back(span.close());
  }
  for (int rep = 0; rep < kProbeReps; ++rep) {
    double sendrecv_us = 0.0;
    double allreduce_us = 0.0;
    ScopedSpan span(&spans, "mp.micro", 0);
    ptwgr::mp::run(kRanks, platform(), [&](ptwgr::mp::Communicator& comm) {
      const int peer = comm.rank() ^ 1;
      comm.barrier();
      Clock::time_point t0 = Clock::now();
      for (int k = 0; k < kRounds; ++k) {
        if (comm.rank() % 2 == 0) {
          comm.send_value(peer, 1, k);
          comm.recv_value<int>(peer, 1);
        } else {
          const int v = comm.recv_value<int>(peer, 1);
          comm.send_value(peer, 1, v);
        }
      }
      // Rank 0 runs on this thread; only it writes the results.
      if (comm.rank() == 0) {
        sendrecv_us = ms_between(t0, Clock::now()) * 1e3 / (2.0 * kRounds);
      }
      comm.barrier();
      t0 = Clock::now();
      std::int64_t sum = 0;
      for (int k = 0; k < kRounds; ++k) {
        sum += comm.allreduce_value(std::int64_t{1}, ptwgr::mp::SumOp{});
      }
      if (sum != std::int64_t{kRanks} * kRounds) {
        throw std::runtime_error("allreduce probe summed wrong");
      }
      if (comm.rank() == 0) {
        allreduce_us = ms_between(t0, Clock::now()) * 1e3 / kRounds;
      }
    });
    run.obs.sendrecv_us.push_back(sendrecv_us);
    run.obs.allreduce_us.push_back(allreduce_us);
  }

  if (!run.obs.serve.measured) {
    const std::vector<std::vector<RoutingMetrics>> saved = run.reference;
    const std::string saved_report = run.reference_report;
    run.reference.clear();
    std::unique_ptr<ServeRig> rig;
    setup_serve(run, rig);
    serve_loop(run, *rig, 1e9, kServeProbeJobs, false);
    run.reference = saved;
    run.reference_report = saved_report;
  }
}

// --- metric assembly -----------------------------------------------------------------

/// Per-class medians combined by geometric mean (modeled_ms, parallel.*).
template <typename Fn>
double geomean_over_classes(Fn&& per_class) {
  std::vector<double> values;
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    values.push_back(per_class(cls));
  }
  return geomean(values);
}

/// Median and tail of the window's untraced job times, with the
/// class-boundary rule: order the classes by median latency and check that
/// p50 and the tail percentile fall clear of the block edges.
std::pair<double, double> p50_and_tail(const Run& run, std::ostream& notes) {
  std::vector<double> all;
  std::vector<std::vector<double>> by_class(run.class_names.size());
  for (const JobSample& s : run.jobs) {
    if (s.traced) continue;
    all.push_back(s.ms);
    by_class[s.cls].push_back(s.ms);
  }
  if (all.empty()) throw std::runtime_error("no untraced job in the window");

  std::vector<std::size_t> order(by_class.size());
  for (std::size_t c = 0; c < order.size(); ++c) order[c] = c;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return median(by_class[a]) < median(by_class[b]);
  });
  std::vector<std::size_t> counts;
  for (const std::size_t c : order) counts.push_back(by_class[c].size());

  std::optional<Tail> tail = tail_percentile(all);
  if (!tail) {
    notes << "warning: fewer than " << kMinBeyond
          << " samples beyond p50; job.ms_tail reports the maximum\n";
    tail = Tail{100.0, percentile(all, 100.0), 0, all.size()};
  }
  notes << "job.ms_tail is p" << tail->percentile << " of " << tail->count
        << " untraced jobs (" << tail->beyond << " beyond)\n";
  for (const double p : {50.0, tail->percentile}) {
    if (!clear_of_class_boundaries(p, counts)) {
      notes << "warning: p" << p << " lies within "
            << class_boundary_margin(p, counts)
            << " samples of a class boundary\n";
    }
  }
  return {median(all), tail->value};
}

/// The gated metrics.  Job times are not among them: on a shared host they
/// follow the neighbours' load by up to a third from one run to the next,
/// while the instructions a job retires repeat within half a percent.  The
/// traced run reports the job times (job.*) without a bound.
std::vector<Metric> end_to_end_metrics(const Run& run) {
  if (run.jobs.empty()) throw std::runtime_error("no job completed in the window");
  std::int64_t tracks = 0;
  std::int64_t area = 0;
  for (const auto& q : run.quality) {
    if (!q) continue;  // every job of the class failed: counted in `failed`
    tracks += q->first;
    area += q->second;
  }
  return {
      {"setup_s", median(run.setup_s), "s"},
      {"minstr_per_job",
       run.window_minstr / static_cast<double>(run.jobs.size()), "Minstr"},
      {"tracks_total", static_cast<double>(tracks), "tracks"},
      {"area_total", static_cast<double>(area), "units2"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer_metrics(const Run& run, std::ostream& notes) {
  const Observations& obs = run.obs;
  const double scale = platform().compute_scale;
  std::vector<Metric> out;
  const auto add = [&out](std::string name, double value, const char* unit) {
    out.push_back(Metric{std::move(name), value, unit});
  };

  // circuit
  double bytes = 0.0;
  double parse_ms = 0.0;
  for (std::size_t c = 0; c < kClasses; ++c) {
    const double m = median(obs.serial[c].parse_ms);
    add(std::string("circuit.parse_ms.") + kCircuits[c], m, "ms");
    bytes += static_cast<double>(obs.serial[c].text_bytes);
    parse_ms += m;
  }
  add("circuit.parse_mb_per_s", parse_ms > 0.0 ? bytes / 1e6 / (parse_ms / 1e3) : 0.0,
      "MB/s");
  for (std::size_t c = 0; c < kClasses; ++c) {
    add(std::string("circuit.generate_ms.") + kCircuits[c],
        median(obs.serial[c].generate_ms), "ms");
  }

  // route (the serial baseline)
  std::int64_t coarse_flips = 0, coarse_decisions = 0;
  std::int64_t switch_flips = 0, switch_decisions = 0;
  for (std::size_t c = 0; c < kClasses; ++c) {
    const SerialLayer& s = obs.serial[c];
    for (std::size_t k = 0; k < kSteps.size(); ++k) {
      add(std::string("route.") + kSteps[k] + "_ms." + kCircuits[c],
          median(s.step_ms[k]), "ms");
    }
    add(std::string("route.verify_ms.") + kCircuits[c], median(s.verify_ms),
        "ms");
    coarse_flips += s.metrics->coarse_flips;
    coarse_decisions += s.metrics->coarse_decisions;
    switch_flips += s.metrics->switch_flips;
    switch_decisions += s.metrics->switch_decisions;
  }
  const auto ratio = [](std::int64_t a, std::int64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  add("route.coarse_flip_ratio", ratio(coarse_flips, coarse_decisions),
      "ratio");
  add("route.switch_flip_ratio", ratio(switch_flips, switch_decisions),
      "ratio");

  // partition (Σ over classes of the per-class median)
  double rows_ms = 0.0, nets_ms = 0.0;
  for (std::size_t c = 0; c < kClasses; ++c) {
    rows_ms += median(obs.serial[c].partition_rows_ms);
    nets_ms += median(obs.serial[c].partition_nets_ms);
  }
  add("partition.rows_ms", rows_ms, "ms");
  add("partition.nets_ms", nets_ms, "ms");

  // parallel and mp, per algorithm
  for (std::size_t a = 0; a < kAlgorithms.size(); ++a) {
    const std::string alg = ptwgr::to_string(kAlgorithms[a]);
    const auto& layers = obs.parallel[a];
    const auto per = [&](auto&& fn) { return geomean_over_classes(fn); };
    const std::string p = "parallel." + alg + ".";
    add(p + "wall_ms", per([&](std::size_t c) { return median(layers[c].wall_ms); }), "ms");
    add(p + "modeled_ms", per([&](std::size_t c) { return median(layers[c].modeled_ms); }), "ms");
    add(p + "cpu_ms", per([&](std::size_t c) { return median(layers[c].cpu_ms); }), "ms");
    add(p + "work_inflation", per([&](std::size_t c) {
          return median(layers[c].cpu_ms) / median(obs.serial[c].route_cpu_ms);
        }), "ratio");
    add(p + "imbalance", per([&](std::size_t c) { return median(layers[c].imbalance); }), "ratio");
    add(p + "speedup_real", per([&](std::size_t c) {
          return median(obs.serial[c].route_ms) / median(layers[c].wall_ms);
        }), "ratio");
    add(p + "speedup_modeled", per([&](std::size_t c) {
          return median(obs.serial[c].route_cpu_ms) * scale /
                 median(layers[c].modeled_ms);
        }), "ratio");
    add(p + "tracks_scaled", per([&](std::size_t c) {
          return static_cast<double>(layers[c].metrics->track_count) /
                 static_cast<double>(obs.serial[c].metrics->track_count);
        }), "ratio");

    ptwgr::mp::CommStats comm;
    for (std::size_t c = 0; c < kClasses; ++c) comm.accumulate(layers[c].comm);
    const double vtime = comm.compute_seconds + comm.p2p_wait_seconds +
                         comm.collective_sync_seconds;
    const std::string m = "mp." + alg + ".";
    add(m + "messages", static_cast<double>(comm.messages_sent), "count");
    add(m + "bytes",
        static_cast<double>(comm.bytes_sent + comm.total_collective_bytes()),
        "bytes");
    add(m + "collectives", static_cast<double>(comm.total_collective_calls()),
        "count");
    add(m + "p2p_wait_share", vtime > 0.0 ? comm.p2p_wait_seconds / vtime : 0.0,
        "ratio");
    add(m + "coll_sync_share",
        vtime > 0.0 ? comm.collective_sync_seconds / vtime : 0.0, "ratio");
  }
  add("mp.launch_ms", median(obs.launch_ms), "ms");
  add("mp.sendrecv_us", median(obs.sendrecv_us), "us");
  add("mp.allreduce_us", median(obs.allreduce_us), "us");

  // serve
  const ServeLayer& sv = obs.serve;
  add("serve.submit_us", median(sv.submit_us), "us");
  add("serve.queue_wait_ms.plain", median(sv.queue_wait_ms[0]), "ms");
  add("serve.queue_wait_ms.observed", median(sv.queue_wait_ms[1]), "ms");
  add("serve.load_ms", median(sv.load_ms), "ms");
  const double route_plain = median(sv.route_ms[0]);
  const double route_observed = median(sv.route_ms[1]);
  add("serve.route_ms.plain", route_plain, "ms");
  add("serve.route_ms.observed", route_observed, "ms");
  add("serve.budget_util",
      sv.window_s > 0.0 ? sv.busy_thread_s / (kServeBudget * sv.window_s) : 0.0,
      "ratio");
  add("serve.retries", static_cast<double>(sv.retries), "count");

  // obs
  add("obs.report_overhead",
      route_plain > 0.0 ? route_observed / route_plain - 1.0 : 0.0, "ratio");
  std::vector<double> traced, untraced;
  for (const JobSample& s : run.jobs) (s.traced ? traced : untraced).push_back(s.ms);
  const double base = median(untraced);
  add("obs.trace_overhead", base > 0.0 ? median(traced) / base - 1.0 : 0.0,
      "ratio");

  // The window's untraced jobs as a user sees them.  Unbounded: on a shared
  // host the median and tail follow the neighbours' load.
  const auto [p50, tail] = p50_and_tail(run, notes);
  add("job.ms_p50", p50, "ms");
  add("job.ms_tail", tail, "ms");
  add("job.per_s", static_cast<double>(run.jobs.size()) / run.window_s, "1/s");
  return out;
}

void write_summary(const Run& run, const RunResult& result,
                   const std::string& notes) {
  const std::string stem = run.opt.out_dir + "/" + run.opt.workload + "-s" +
                           std::to_string(run.opt.seed) + "-t" +
                           (run.opt.trace ? "1" : "0");
  std::ofstream out(stem + ".summary.json");
  if (!out) throw std::runtime_error("cannot write " + stem + ".summary.json");
  using ptwgr::json::number;
  using ptwgr::json::quoted;
  out << "{\"workload\": " << quoted(run.opt.workload)
      << ", \"seed\": " << run.opt.seed << ", \"trace\": " << run.opt.trace
      << ", \"jobs\": " << run.jobs.size()
      << ", \"window_s\": " << number(run.window_s)
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed
      << ", \"first_error\": " << quoted(run.ledger.first_error())
      << ", \"setup_error\": " << quoted(run.setup_error)
      << ", \"notes\": " << quoted(notes) << ", \"class_p50_ms\": {";
  for (std::size_t c = 0; c < run.class_names.size(); ++c) {
    std::vector<double> ms;
    for (const JobSample& s : run.jobs) {
      if (s.cls == c) ms.push_back(s.ms);
    }
    out << (c ? ", " : "") << quoted(run.class_names[c]) << ": "
        << number(median(ms));
  }
  out << "}, \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    out << (i ? ", " : "") << quoted(result.metrics[i].name) << ": "
        << number(result.metrics[i].value);
  }
  out << "}}\n";
  if (run.spans) run.spans->write_json(stem + ".spans.json");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "serial-file", "parallel-p4", "taskgraph-p4", "serve-mixed"};
  return names;
}

RunResult run_workload(const Options& options) {
  Run run(options);
  const std::string& w = options.workload;
  const bool serve = w == "serve-mixed";
  run.class_names = serve ? std::vector<std::string>{"plain", "observed"}
                          : std::vector<std::string>(kCircuits.begin(),
                                                     kCircuits.end());
  run.quality.assign(serve ? 1 : kClasses, std::nullopt);

  std::vector<ParallelAlgorithm> algorithms;
  if (w == "parallel-p4") {
    algorithms = {ParallelAlgorithm::RowWise, ParallelAlgorithm::NetWise,
                  ParallelAlgorithm::Hybrid};
  } else if (w == "taskgraph-p4") {
    algorithms = {ParallelAlgorithm::TaskGraph};
  }

  std::unique_ptr<ServeRig> rig;
  const Clock::time_point setup_start = Clock::now();
  for (int rep = 0; rep < kSetupReps ||
                    ms_between(setup_start, Clock::now()) < 1e3 * kSetupSeconds;
       ++rep) {
    if (serve) rig.reset();  // teardown stays outside the timed set-up
    const Clock::time_point t0 = Clock::now();
    if (serve) {
      setup_serve(run, rig);
    } else if (w == "serial-file") {
      setup_serial_file(run);
    } else {
      setup_parallel(run, algorithms);
    }
    run.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  if (serve) {
    const std::unique_ptr<InstructionCounter> counter = window_counter(run);
    // The engine's threads are counted only if they start after the counter.
    if (counter) rig = start_serve_rig();
    serve_loop(run, *rig, options.seconds, SIZE_MAX, true);
    rig.reset();  // joins the engine's threads, adding their counts
    if (counter) run.window_minstr = settled_minstr(*counter);
  } else if (w == "serial-file") {
    run_window(run, [&run](std::size_t cls, std::uint64_t job, bool traced) {
      return serial_file_job(run, cls, job, traced);
    });
  } else {
    run_window(run, [&](std::size_t cls, std::uint64_t job, bool traced) {
      return parallel_job(run, cls, job, traced, algorithms);
    });
  }

  std::ostringstream notes;
  RunResult result;
  if (options.trace) {
    probe_missing_layers(run);
    result.metrics = per_layer_metrics(run, notes);
  } else {
    result.metrics = end_to_end_metrics(run);
  }
  result.attempted = run.ledger.attempted();
  result.failed = run.ledger.failed();
  result.correct = result.failed == 0 && run.setup_error.empty();
  if (!run.ledger.first_error().empty()) {
    notes << "first failure: " << run.ledger.first_error() << "\n";
  }
  if (!run.setup_error.empty()) notes << "set-up: " << run.setup_error << "\n";
  std::cerr << notes.str();
  if (!options.out_dir.empty()) write_summary(run, result, notes.str());
  return result;
}

}  // namespace perfbench
