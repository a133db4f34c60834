// nvl72_pdes: one 72-rank GB200 NVL72 case (18 nodes x 4 GPUs, 2.88M
// atoms, shmem) for 300 steps on the partitioned engine. The only
// workload that runs the sim/parallel window layer; it has a single
// setup and little heap work. It runs on one worker thread: at two, each
// of its ~13.6k windows hands off between threads, which multiplies host
// scheduling noise (case walls swung 3.3-5.7 s between runs). The
// traced run adds one two-worker case for the window-barrier share, and
// every case must render the campaign document halo_sweep wrote for the
// spec (data/nvl72_pdes.expected.json).
#include "common.hpp"
#include "compose.hpp"
#include "sweep/runner.hpp"

namespace perfbench {

namespace {

hs::sweep::Campaign load_campaign(const std::string& data_dir) {
  hs::sweep::Campaign campaign = hs::sweep::parse_campaign_text(
      read_file(data_dir + "/nvl72_pdes.json"));
  if (campaign.cases.size() != 1) {
    throw std::runtime_error("nvl72_pdes.json must expand to one case");
  }
  return campaign;
}

/// The campaign document halo_sweep writes for the pinned case, with
/// `metrics` as the case's metrics. The case keeps the spec's workers=1
/// identity whatever worker count produced them: the worker count only
/// picks OS threads, so every run must reproduce the same bytes.
std::string render_case(const hs::sweep::Campaign& campaign,
                        const std::string& label,
                        std::vector<std::pair<std::string, double>> metrics) {
  hs::sweep::CampaignResult result;
  result.name = campaign.name;
  hs::sweep::CaseOutcome outcome;
  outcome.config = campaign.cases.front();
  outcome.label = label;
  outcome.hash = hs::sweep::case_hash_hex(outcome.config);
  outcome.metrics = std::move(metrics);
  result.cases.push_back(std::move(outcome));
  return render_campaign(result);
}

}  // namespace

Report run_nvl72_pdes(const Options& opt) {
  Report report;
  const std::string expected =
      read_file(opt.data_dir + "/nvl72_pdes.expected.json");
  hs::sweep::Campaign campaign;
  std::string label;
  auto prepared = std::make_unique<hs::sweep::PreparedStateCache>();
  const double setup_s = median_setup_s(11, [&] {
    campaign = load_campaign(opt.data_dir);
    label = hs::sweep::case_labels(campaign.cases).front();
    prepared = std::make_unique<hs::sweep::PreparedStateCache>();
    prepared->get(campaign.cases.front());
  });
  const hs::sweep::CaseConfig& config = campaign.cases.front();
  const double ranks = static_cast<double>(config.nodes) * config.gpus_per_node;
  hs::runner::CaseScratch scratch;
  const hs::sweep::ExecutionContext ctx{prepared.get(), &scratch};

  auto run_case = [&] {
    const auto metrics =
        document_metrics(hs::sweep::simulate_case_document(config, ctx));
    check_document(report, render_case(campaign, label, metrics), expected, 1,
                   "untraced");
  };

  if (!opt.trace) {
    std::vector<double> walls, peaks;
    const auto t0 = Clock::now();
    while (room_for_another(t0, walls.size(), opt.seconds)) {
      reset_peak_rss();
      const auto c0 = Clock::now();
      try {
        run_case();
      } catch (const std::exception& e) {
        report.outcome(false, e.what());
      }
      walls.push_back(seconds_since(c0));
      peaks.push_back(host_usage().max_rss_mb);
    }
    const double total = sum(walls);
    const double n = static_cast<double>(walls.size());
    report.metric("wall_s", median(walls), "s");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", median(peaks), "MB");
    report.metric("cases_per_s", n / total, "1/s");
    report.metric("atom_steps_per_s",
                  n * static_cast<double>(config.atoms) * config.steps / total,
                  "1/s");
    report.metric("rank_steps_per_s", n * ranks * config.steps / total, "1/s");
    report.detail("case_walls_s", json_array(walls));
    return report;
  }

  // Traced run: a warm-up case, one untraced case, then the case
  // composed with spans. Without the warm-up the untraced reference alone
  // would pay for the cold heap.
  run_case();
  const auto u0 = Clock::now();
  run_case();
  const double untraced_wall = seconds_since(u0);

  Tracer tracer;
  CaseCounters counters;
  PreparedSetups setups;
  hs::runner::CaseScratch traced_scratch;
  const auto t0 = Clock::now();
  const auto metrics =
      compose_case(config, &tracer, setups, traced_scratch, counters);
  const double traced_wall = seconds_since(t0);
  check_document(report,
                 render_case(campaign, label, {metrics.begin(), metrics.end()}),
                 expected, 1, "traced");

  // The window-barrier share needs two worker threads and the machine's
  // Host telemetry; this case runs outside the traced wall.
  hs::sweep::CaseConfig two_workers = config;
  two_workers.workers = 2;
  CaseCounters barrier;
  const auto two_metrics =
      compose_case(two_workers, nullptr, setups, traced_scratch, barrier,
                   /*telemetry=*/true);
  check_document(
      report,
      render_case(campaign, label, {two_metrics.begin(), two_metrics.end()}),
      expected, 1, "two-worker");
  counters.pdes_lane_busy_ns = barrier.pdes_lane_busy_ns;
  counters.pdes_lane_barrier_ns = barrier.pdes_lane_barrier_ns;

  report_case_layers(report, counters, tracer);
  report_trace(report, tracer, traced_wall, untraced_wall);
  return report;
}

}  // namespace perfbench
