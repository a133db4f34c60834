// Shared machinery for the perfbench workloads: the span tracer that
// gives per-layer self times, sample statistics with the tail-percentile
// rule, host resource usage, and the run report every workload fills.
//
// Spans are recorded from the benchmark's own code around calls into the
// simulator's public functions; nothing inside the program is
// instrumented. A traced run is single-threaded at the benchmark level
// (engine worker threads live inside one call), so spans nest strictly
// and a layer's self time is its span time minus the time its child
// spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Tracing --------------------------------------------------------------

/// In-memory span recorder. Spans carry a layer (one of the simulator's
/// modules: sweep, runner, sim, pgas, msg, dd, halo, md, util), a call
/// name, the enclosing span (the caller that caused it) and a request id
/// shared by every span of one case or query.
class Tracer {
 public:
  struct Span {
    std::string layer;
    std::string name;
    double begin_s = 0.0;  // since tracer construction
    double end_s = 0.0;
    int parent = -1;  // index of the enclosing span, -1 = top level
    long request = -1;
  };

  Tracer() : t0_(Clock::now()) {}

  /// RAII span; a null tracer makes it a no-op so untraced and traced
  /// runs share one code path.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view layer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  void set_request(long id) { request_ = id; }

  /// Seconds each layer spent in its own spans, children excluded.
  std::map<std::string, double> self_seconds_by_layer() const;
  /// Inclusive seconds of one "layer.name" (0 if never called).
  double total_s(const std::string& call) const;

  /// Sum of self times over all layers.
  double covered_s() const;

  /// Write every span as JSON lines (layer, name, begin, end, parent,
  /// request). Returns false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  long request_ = -1;
};

/// Run `fn` inside a span (or bare when `tracer` is null) and return its
/// result.
template <typename Fn>
decltype(auto) traced(Tracer* tracer, std::string_view layer,
                      std::string_view name, Fn&& fn) {
  Tracer::Scope scope(tracer, layer, name);
  return fn();
}

// ---- Statistics -----------------------------------------------------------

double median(std::vector<double> v);
double sum(const std::vector<double>& v);

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

/// A tail percentile with its sample accounting. Throws std::runtime_error
/// when fewer than ten samples lie strictly beyond it — such a percentile
/// is not reported (the workload must be sized for it).
struct TailPercentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
TailPercentile tail_percentile(const std::vector<double>& v, double p);

// ---- Host resources -------------------------------------------------------

struct HostUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minor_faults = 0.0;
  double max_rss_mb = 0.0;  // process peak so far
};
HostUsage host_usage();

/// Return freed heap to the system and reset the process peak RSS to the
/// current RSS (Linux clear_refs), so the peak of each unit of work can
/// be read on its own. Returns false where the kernel does not allow it.
bool reset_peak_rss();

// ---- Report ---------------------------------------------------------------

/// What one workload run hands back to main: the metrics (end-to-end in
/// an untraced run, per-layer in a traced run), the correctness tally and
/// free-form details that go to the detail line.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  // first few failure messages
  std::vector<std::pair<std::string, std::string>> details;  // key -> JSON

  void metric(const std::string& name, double value, const std::string& unit);
  /// Count one attempted operation; `ok` false (or `why` non-empty) marks
  /// it failed.
  void outcome(bool ok, const std::string& why = {});
  void detail(const std::string& key, const std::string& json_value);
};

/// Per-layer metrics a traced run always reports: self seconds of every
/// layer, coverage of traced wall, and the tracing overhead against the
/// untraced wall of the same work.
void report_trace(Report& report, const Tracer& tracer, double traced_wall_s,
                  double untraced_wall_s);

/// Metric names must match [A-Za-z0-9_.-]+ (checked for every metric
/// before the report is printed).
bool valid_metric_name(std::string_view name);

/// Directory inside the checkout for files a run writes (created on
/// demand): $PERFBENCH_WORK_DIR, else .bench_build/perfbench-work.
std::string work_dir();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = "perfbench/data";
};

Report run_fig5_sweep(const Options& opt);
Report run_md_functional(const Options& opt);
Report run_serve_mixed(const Options& opt);
Report run_nvl72_pdes(const Options& opt);

/// Whether a run that started at `t0` and has so far taken `units` units
/// of work has room for one more within `seconds`, at the mean unit time
/// so far. Always true before the first unit.
inline bool room_for_another(Clock::time_point t0, std::size_t units,
                             double seconds) {
  if (units == 0) return true;
  const double elapsed = seconds_since(t0);
  return elapsed + elapsed / static_cast<double>(units) <= seconds;
}

/// Set-up time of a workload: `fn` performs one complete set-up. It is
/// timed in `repeats` batches, each running `fn` back to back until the
/// batch has lasted at least 50 ms (one call when a set-up is slower than
/// that); the result is the median over batches of the mean per-call
/// time, so microsecond set-ups are not at the mercy of timer noise.
template <typename Fn>
double median_setup_s(int repeats, Fn&& fn) {
  std::vector<double> per_call;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    int calls = 0;
    do {
      fn();
      ++calls;
    } while (seconds_since(t0) < 0.05);
    per_call.push_back(seconds_since(t0) / calls);
  }
  return median(per_call);
}

std::string read_file(const std::string& path);

/// JSON array of numbers (for the detail line).
std::string json_array(const std::vector<double>& values);

}  // namespace perfbench
