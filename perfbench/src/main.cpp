// perfbench: the repository benchmark driver binary. Runs one workload
// for about --seconds and prints one JSON line (the report run.py turns
// into the benchmark result):
//
//   perfbench --workload <fig5_sweep|md_functional|serve_mixed|nvl72_pdes>
//             --seed N --seconds S --trace 0|1 [--data-dir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the traced composition and reports the per-layer metrics.
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "md/simd/isa.hpp"
#include "util/json_writer.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--data-dir DIR]\n";
  return 2;
}

/// The benchmark's own checks: the tail-percentile rule refuses an
/// under-sampled percentile and accepts a well-sampled one.
std::string self_check_percentile() {
  std::vector<double> few(50), many(2000);
  for (std::size_t i = 0; i < few.size(); ++i) few[i] = static_cast<double>(i);
  for (std::size_t i = 0; i < many.size(); ++i) many[i] = static_cast<double>(i);
  try {
    perfbench::tail_percentile(few, 99.0);
    return "self-check: p99 of 50 samples was reported";
  } catch (const std::runtime_error&) {
  }
  const auto p = perfbench::tail_percentile(many, 99.0);
  if (p.beyond < 10 || p.samples != many.size()) {
    return "self-check: p99 of 2000 samples has wrong accounting";
  }
  return "";
}

void print_report(const Report& r) {
  namespace j = hs::util::json;
  std::string out = "{\"correct\":";
  out += r.failures.empty() && r.failed == 0 && r.attempted > 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, vu] = r.metrics[i];
    out += (i ? ",\"" : "\"") + name + "\":{\"value\":" +
           j::format_number(vu.first) + ",\"unit\":\"" + j::escape(vu.second) +
           "\"}";
  }
  out += "},\"provenance\":{\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) + ",\"isa\":\"" +
         hs::md::simd::isa_name(hs::md::simd::active_isa()) +
         "\",\"compiler\":\"" + j::escape(PERFBENCH_COMPILER) +
         "\",\"build_type\":\"" + j::escape(PERFBENCH_BUILD_TYPE) + "\"}";
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    out += (i ? ",\"" : "\"") + j::escape(r.failures[i]) + "\"";
  }
  out += "],\"details\":{";
  for (std::size_t i = 0; i < r.details.size(); ++i) {
    out += (i ? ",\"" : "\"") + r.details[i].first + "\":" + r.details[i].second;
  }
  out += "}}";
  std::cout << out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--data-dir") {
      opt.data_dir = argv[++i];
    } else {
      return usage();
    }
  }
  try {
    if (const std::string bad = self_check_percentile(); !bad.empty()) {
      std::cerr << "perfbench: " << bad << "\n";
      return 3;
    }
    Report report;
    if (opt.workload == "fig5_sweep") {
      report = perfbench::run_fig5_sweep(opt);
    } else if (opt.workload == "md_functional") {
      report = perfbench::run_md_functional(opt);
    } else if (opt.workload == "serve_mixed") {
      report = perfbench::run_serve_mixed(opt);
    } else if (opt.workload == "nvl72_pdes") {
      report = perfbench::run_nvl72_pdes(opt);
    } else {
      return usage();
    }
    if (opt.trace) {
      report.metric("failed_frac",
                    report.attempted > 0 ? static_cast<double>(report.failed) /
                                               static_cast<double>(report.attempted)
                                         : 1.0,
                    "ratio");
    }
    for (const auto& [name, vu] : report.metrics) {
      if (!perfbench::valid_metric_name(name)) {
        std::cerr << "perfbench: self-check: bad metric name '" << name << "'\n";
        return 3;
      }
    }
    print_report(report);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << ": " << e.what() << "\n";
    return 2;
  }
}
