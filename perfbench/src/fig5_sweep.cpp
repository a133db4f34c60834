// fig5_sweep: the paper's Fig. 5 grid (a pinned copy of
// campaigns/fig5_internode.json, no engine axis) run cold — no result
// cache — through sweep::run_campaign on the in-process pool with two
// workers. The ROADMAP's headline end-to-end run: engine dispatch,
// 64 MiB-per-PE symmetric heaps, trace recording and critical-path
// analysis, no MD math, no cache. Its inputs are analytic, so the seed
// does not change them.
#include <iostream>
#include <sstream>

#include "common.hpp"
#include "compose.hpp"
#include "sweep/runner.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"

namespace perfbench {

namespace {

constexpr int kPoolWorkers = 2;

struct Anchor {
  std::string name;
  std::string label;
  double paper_ns_per_day = 0.0;
};

std::vector<Anchor> load_anchors(const std::string& path) {
  const auto doc = hs::util::json::parse(read_file(path));
  std::vector<Anchor> out;
  for (const auto& a : doc.at("anchors").as_array()) {
    out.push_back({a.at("name").as_string(), a.at("label").as_string(),
                   a.at("paper_ns_per_day").as_number()});
  }
  return out;
}

/// Per-anchor absolute error of simulated ns/day against the paper, in
/// percent, plus their mean. Missing anchors are a correctness failure.
struct ModelError {
  double mean_pct = 0.0;
  std::vector<std::pair<std::string, double>> per_anchor;
  std::string missing;
};

ModelError model_error(const hs::sweep::CampaignResult& result,
                       const std::vector<Anchor>& anchors) {
  ModelError err;
  for (const Anchor& a : anchors) {
    double sim = -1.0;
    for (const auto& c : result.cases) {
      if (c.label != a.label) continue;
      for (const auto& [key, value] : c.metrics) {
        if (key == "ns_per_day") sim = value;
      }
    }
    if (sim < 0.0) {
      err.missing = a.label;
      continue;
    }
    const double pct = 100.0 * std::abs(sim - a.paper_ns_per_day) /
                       a.paper_ns_per_day;
    err.per_anchor.emplace_back(a.name, pct);
    err.mean_pct += pct / static_cast<double>(anchors.size());
  }
  return err;
}

/// Simulated atom-steps and rank-steps of one pass over the campaign.
std::pair<double, double> simulated_work(const hs::sweep::Campaign& campaign) {
  double atom_steps = 0.0, rank_steps = 0.0;
  for (const auto& c : campaign.cases) {
    const double ranks = static_cast<double>(c.nodes) * c.gpus_per_node;
    atom_steps += static_cast<double>(c.atoms) * c.steps;
    rank_steps += ranks * c.steps;
  }
  return {atom_steps, rank_steps};
}

hs::sweep::SweepOptions cold_pool(int workers) {
  hs::sweep::SweepOptions options;
  options.cache_dir = "";  // no result cache: every case simulates
  options.shards = workers;
  options.quiet = true;
  return options;
}

/// Redirects std::cerr into a buffer for its lifetime.
class CaptureStderr {
 public:
  CaptureStderr() : old_(std::cerr.rdbuf(buffer_.rdbuf())) {}
  ~CaptureStderr() { std::cerr.rdbuf(old_); }
  CaptureStderr(const CaptureStderr&) = delete;
  CaptureStderr& operator=(const CaptureStderr&) = delete;
  std::string text() const { return buffer_.str(); }

 private:
  std::stringstream buffer_;
  std::streambuf* old_;
};

/// Sum of the per-case wall times run_campaign prints on its progress
/// lines ("halo_sweep: [i/N] <hash> miss <ms>ms <label>").
double progress_case_seconds(const std::string& text) {
  double total_ms = 0.0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t miss = line.find(" miss ");
    if (miss == std::string::npos) continue;
    total_ms += std::stod(line.substr(miss + 6));
  }
  return total_ms / 1e3;
}

}  // namespace

Report run_fig5_sweep(const Options& opt) {
  Report report;
  const std::string spec_path = opt.data_dir + "/fig5_internode.json";
  const std::string expected =
      read_file(opt.data_dir + "/fig5_internode.expected.json");
  const std::vector<Anchor> anchors =
      load_anchors(opt.data_dir + "/fig5_anchors.json");

  hs::sweep::Campaign campaign;
  const double setup_s = median_setup_s(11, [&] {
    campaign = hs::sweep::parse_campaign_text(read_file(spec_path));
  });
  const auto [atom_steps, rank_steps] = simulated_work(campaign);
  const std::size_t n_cases = campaign.cases.size();

  if (!opt.trace) {
    std::vector<double> walls, peaks;
    const auto t0 = Clock::now();
    ModelError err;
    while (room_for_another(t0, walls.size(), opt.seconds)) {
      reset_peak_rss();
      const auto start = Clock::now();
      hs::sweep::CampaignResult result;
      std::string doc;
      try {
        result = hs::sweep::run_campaign(campaign, cold_pool(kPoolWorkers));
        doc = render_campaign(result);
      } catch (const std::exception& e) {
        walls.push_back(seconds_since(start));
        peaks.push_back(host_usage().max_rss_mb);
        for (std::size_t i = 0; i < n_cases; ++i) report.outcome(false, e.what());
        continue;
      }
      walls.push_back(seconds_since(start));
      peaks.push_back(host_usage().max_rss_mb);
      check_document(report, doc, expected, n_cases, "pooled");
      err = model_error(result, anchors);
    }
    const double total = sum(walls);
    const double sweeps = static_cast<double>(walls.size());
    report.metric("wall_s", median(walls), "s");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", median(peaks), "MB");
    report.metric("cases_per_s", sweeps * static_cast<double>(n_cases) / total,
                  "1/s");
    report.metric("atom_steps_per_s", sweeps * atom_steps / total, "1/s");
    report.metric("rank_steps_per_s", sweeps * rank_steps / total, "1/s");
    report.detail("model_err_pct", hs::util::json::format_number(err.mean_pct));
    report.detail("sweep_walls_s", json_array(walls));
    report.detail("sweep_peaks_mb", json_array(peaks));
    if (!err.missing.empty()) report.outcome(false, "anchor missing: " + err.missing);
    return report;
  }

  // Traced run. First the end-to-end configuration, cold: the two-worker
  // pool, for its efficiency and the host cost of a cold sweep (arena
  // page faults land here). Its progress lines carry per-case times.
  const HostUsage host0 = host_usage();
  double case_seconds = 0.0, pool_wall = 0.0;
  {
    CaptureStderr capture;
    hs::sweep::SweepOptions options = cold_pool(kPoolWorkers);
    options.quiet = false;
    const auto p0 = Clock::now();
    hs::sweep::run_campaign(campaign, options);
    pool_wall = seconds_since(p0);
    case_seconds = progress_case_seconds(capture.text());
  }
  const HostUsage host1 = host_usage();

  // Then the cases composed with spans on one thread, and the same
  // single-threaded work untraced as the overhead reference. Both run
  // with the allocator as warm as the pool left it.
  Tracer tracer;
  CaseCounters counters;
  PreparedSetups setups;
  hs::runner::CaseScratch scratch;
  const auto t0 = Clock::now();
  const std::string text =
      traced(&tracer, "util", "read_file", [&] { return read_file(spec_path); });
  const auto spec = traced(&tracer, "util", "json_parse",
                           [&] { return hs::util::json::parse(text); });
  const hs::sweep::Campaign traced_campaign = traced(
      &tracer, "sweep", "parse_campaign",
      [&] { return hs::sweep::parse_campaign(spec); });
  hs::sweep::CampaignResult composed;
  composed.name = traced_campaign.name;
  const auto labels = traced(&tracer, "sweep", "case_labels", [&] {
    return hs::sweep::case_labels(traced_campaign.cases);
  });
  for (std::size_t i = 0; i < traced_campaign.cases.size(); ++i) {
    tracer.set_request(static_cast<long>(i));
    hs::sweep::CaseOutcome outcome;
    outcome.config = traced_campaign.cases[i];
    outcome.label = labels[i];
    outcome.hash = traced(&tracer, "sweep", "case_hash", [&] {
      return hs::sweep::case_hash_hex(outcome.config);
    });
    const auto metrics =
        compose_case(outcome.config, &tracer, setups, scratch, counters);
    outcome.metrics.assign(metrics.begin(), metrics.end());
    composed.cases.push_back(std::move(outcome));
  }
  tracer.set_request(-1);
  const std::string doc =
      traced(&tracer, "sweep", "render", [&] { return render_campaign(composed); });
  const double traced_wall = seconds_since(t0);
  check_document(report, doc, expected, n_cases, "traced");

  const auto u0 = Clock::now();
  const std::string untraced_doc =
      render_campaign(hs::sweep::run_campaign(campaign, cold_pool(1)));
  const double untraced_wall = seconds_since(u0);
  check_document(report, untraced_doc, expected, n_cases, "single-worker");

  report_case_layers(report, counters, tracer);
  report.metric("pgas.pooled_arenas", static_cast<double>(scratch.arenas.size()),
                "count");
  report.metric("host.minor_faults", host1.minor_faults - host0.minor_faults,
                "count");
  report.metric("host.user_s", host1.user_s - host0.user_s, "s");
  report.metric("host.sys_s", host1.sys_s - host0.sys_s, "s");
  report.metric("sweep.pool_efficiency",
                case_seconds / (kPoolWorkers * pool_wall), "ratio");
  report.metric("sweep.parse_ms", 1e3 * tracer.total_s("sweep.parse_campaign"),
                "ms");
  report.metric("util.json_parse_ms", 1e3 * tracer.total_s("util.json_parse"),
                "ms");
  report.metric("sweep.render_ms", 1e3 * tracer.total_s("sweep.render"), "ms");
  const ModelError err = model_error(composed, anchors);
  if (!err.missing.empty()) report.outcome(false, "anchor missing: " + err.missing);
  report.metric("model_err_pct", err.mean_pct, "%");
  for (const auto& [name, pct] : err.per_anchor) {
    report.metric("model_err." + name + "_pct", pct, "%");
  }
  report_trace(report, tracer, traced_wall, untraced_wall);
  return report;
}

}  // namespace perfbench
