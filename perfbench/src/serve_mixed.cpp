// serve_mixed: one client in a closed loop replays a seeded stream of
// one-case campaign specs through the calls `halo_sweep --serve` makes
// per line: parse, case hash, memoized ResultCache load/store over a
// fresh disk cache, simulate_case_document with a session
// ExecutionContext, write_campaign_json. New lines are the cases of the
// canned Fig. 3 and Fig. 4 campaigns, each under every switch variant of
// the ablation benches and under the other machine's NVLink; they
// simulate and store, most of them on an already-prepared setup. Repeated
// lines are cache reads; a few lines are malformed and must answer
// {"error":...}. The sweep layer as a latency service, where fig5_sweep
// uses it as a batch.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <sstream>

#include "common.hpp"
#include "compose.hpp"
#include "sim/costmodel.hpp"
#include "sweep/output.hpp"
#include "sweep/runner.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

/// Stream length: with 1200 lines, 12 latency samples of one pass lie
/// beyond its p99 (the traced run's reference is a single pass).
constexpr int kStreamLines = 1200;
/// Malformed lines: an assumed share, not a measured one (no recorded
/// --serve session exists). 48 lines a pass send each of the five
/// malformations about ten times down the error path.
constexpr double kMalformedShare = 0.04;

enum class Kind { New, Repeat, Malformed };

struct Query {
  std::string line;
  Kind kind = Kind::New;
  int first = -1;  // Repeat: index of the line it repeats
};

/// A what-if a new line asks of a setup point: one variant of the
/// design, schedule and runtime switches the repository's ablation
/// benches toggle (bench/abl_halo_design, abl_cuda_graph,
/// abl_schedule_opt, abl_proxy_pinning), or the fabric what-if of the
/// other machine preset's NVLink (fabric_variant). Empty = the full
/// design the campaigns run.
constexpr const char* kSwitchVariants[] = {
    "",
    R"("fuse_pulses":false)",
    R"("dependency_partitioning":false)",
    R"("use_tma":false)",
    R"("fused_signaling":false)",
    R"("fuse_pulses":false,"dependency_partitioning":false,"use_tma":false,"fused_signaling":false)",
    R"("use_cuda_graph":true)",
    R"("prune_interval":1)",
    R"("prune_interval":1,"prune_low_priority_stream":false,"third_stream_for_update":false)",
    R"("proxy_placement":"reserved_core")",
    R"("proxy_placement":"contended_core")",
};

/// NVLink overrides that give a setup the NVLink of the other machine's
/// cost-model preset (DGX H100 setups get NVL72's and vice versa).
std::string fabric_variant(const hs::sweep::CaseConfig& c) {
  const hs::sim::LinkParams link =
      c.machine == "gb200_nvl72"
          ? hs::sim::CostModel::h100_eos().fabric.nvlink
          : hs::sim::CostModel::gb200_nvl72().fabric.nvlink;
  return "\"nvlink_latency_ns\":" + std::to_string(link.latency_ns) +
         ",\"nvlink_per_message_ns\":" + std::to_string(link.per_message_ns) +
         ",\"nvlink_bytes_per_ns\":" +
         hs::util::json::format_number(link.bytes_per_ns);
}

/// Every new line of a stream, unnumbered: each case of the canned Fig. 3
/// and Fig. 4 campaigns (copies in data/, the Fig. 4 one cut to its 1-2
/// node points below 2.88M atoms) under each what-if, so
/// the mix of case costs is the campaigns' own and many new lines share
/// an already-prepared setup.
std::vector<std::string> new_case_grids(const std::string& data_dir) {
  std::vector<std::string> grids;
  for (const char* name : {"fig3_intranode", "fig4_mnnvl"}) {
    const hs::sweep::Campaign campaign = hs::sweep::parse_campaign_text(
        read_file(data_dir + "/" + name + ".json"));
    for (const hs::sweep::CaseConfig& c : campaign.cases) {
      const std::string setup =
          "\"machine\":\"" + c.machine + "\",\"nodes\":" +
          std::to_string(c.nodes) + ",\"gpus_per_node\":" +
          std::to_string(c.gpus_per_node) + ",\"atoms\":" +
          std::to_string(c.atoms) + ",\"transport\":\"" + c.transport + "\"";
      for (const char* variant : kSwitchVariants) {
        grids.push_back(*variant ? setup + "," + variant : setup);
      }
      grids.push_back(setup + "," + fabric_variant(c));
    }
  }
  return grids;
}

template <typename T>
void shuffle(std::vector<T>& v, hs::util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

std::string malformed_spec(hs::util::Rng& rng, int index) {
  const std::string name = "\"name\":\"q" + std::to_string(index) + "\"";
  switch (rng.next_below(5)) {
    case 0:  // truncated mid-document
      return "{\"schema\":\"halosim-campaign-spec-v1\"," + name +
             ",\"grid\":{\"machine\":\"dgx_h";
    case 1:
      return "{\"schema\":\"halosim-campaign-spec-v1\"," + name +
             ",\"grid\":{\"atoms\":45000,\"bogus_axis\":1}}";
    case 2:
      return "{\"schema\":\"halosim-campaign-spec-v1\"," + name +
             ",\"grid\":{\"atoms\":45000,\"transport\":\"carrier_pigeon\"}}";
    case 3:
      return "{\"schema\":\"halosim-campaign-spec-v0\"," + name +
             ",\"grid\":{\"atoms\":45000}}";
    default:
      return "not a spec " + std::to_string(index);
  }
}

/// The query stream: every new-case grid once, kMalformedShare malformed
/// lines, and the rest repeats of an earlier new line (cache reads), in a
/// seeded order (the first line is new, so repeats have a target). Which
/// earlier line a repeat asks again is uniform: an assumption, like
/// kMalformedShare.
std::vector<Query> make_stream(std::uint64_t seed,
                               const std::vector<std::string>& grids) {
  hs::util::Rng rng(seed);
  const auto n_malformed =
      static_cast<std::size_t>(kMalformedShare * kStreamLines);
  if (grids.size() + n_malformed >= kStreamLines) {
    throw std::runtime_error("serve stream too short for its new cases");
  }
  std::vector<Kind> kinds(kStreamLines, Kind::Repeat);
  std::fill_n(kinds.begin(), grids.size(), Kind::New);
  std::fill_n(kinds.begin() + static_cast<std::ptrdiff_t>(grids.size()),
              n_malformed, Kind::Malformed);
  shuffle(kinds, rng);
  std::swap(*std::find(kinds.begin(), kinds.end(), Kind::New), kinds.front());

  std::vector<std::string> deck = grids;
  shuffle(deck, rng);
  std::vector<Query> stream;
  std::vector<int> new_lines;
  for (const Kind kind : kinds) {
    const int index = static_cast<int>(stream.size());
    Query q;
    q.kind = kind;
    if (kind == Kind::Repeat) {
      q.first = new_lines[rng.next_below(new_lines.size())];
      q.line = stream[static_cast<std::size_t>(q.first)].line;
    } else if (kind == Kind::Malformed) {
      q.line = malformed_spec(rng, index);
    } else {
      q.line = "{\"schema\":\"halosim-campaign-spec-v1\",\"name\":\"q" +
               std::to_string(index) + "\",\"grid\":{" + deck.back() + "}}";
      deck.pop_back();
      new_lines.push_back(index);
    }
    stream.push_back(std::move(q));
  }
  return stream;
}

/// Per-pass tallies.
struct PassStats {
  double wall_s = 0.0;
  std::vector<double> latency_ms;  // every line
  std::vector<double> hit_ms;      // repeat lines
  std::vector<double> miss_ms;     // new lines
  double cases = 0;                // valid cases answered
  double atom_steps = 0;           // simulated (misses only)
  double rank_steps = 0;
  double hits = 0;
  double misses = 0;
  double prepared_hits = 0;
  double prepared_misses = 0;
  double peak_rss_mb = 0;
  std::vector<std::string> answers;
};

/// A fresh per-pass disk cache directory inside the checkout; removed
/// when the pass ends.
class CacheDir {
 public:
  explicit CacheDir(int pass)
      : path_(work_dir() + "/serve-cache-" + std::to_string(::getpid()) + "-" +
              std::to_string(pass)) {
    std::filesystem::remove_all(path_);
  }
  ~CacheDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  CacheDir(const CacheDir&) = delete;
  CacheDir& operator=(const CacheDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Answer one line the way `halo_sweep --serve` does. With a tracer the
/// simulation is composed from its public calls (compose_case) instead
/// of one simulate_case_document call.
std::string answer(const std::string& line, hs::sweep::ResultCache& cache,
                   const hs::sweep::ExecutionContext& ctx, Tracer* tracer,
                   PreparedSetups& setups, hs::runner::CaseScratch& scratch,
                   CaseCounters& counters, PassStats& stats) {
  try {
    const auto spec =
        traced(tracer, "util", "json_parse", [&] { return hs::util::json::parse(line); });
    const hs::sweep::Campaign campaign = traced(
        tracer, "sweep", "parse_campaign", [&] { return hs::sweep::parse_campaign(spec); });
    hs::sweep::CampaignResult result;
    result.name = campaign.name;
    const auto labels = traced(tracer, "sweep", "case_labels",
                               [&] { return hs::sweep::case_labels(campaign.cases); });
    result.cases.resize(campaign.cases.size());
    for (std::size_t i = 0; i < campaign.cases.size(); ++i) {
      auto& outcome = result.cases[i];
      outcome.config = campaign.cases[i];
      outcome.label = labels[i];
      outcome.hash = traced(tracer, "sweep", "case_hash",
                            [&] { return hs::sweep::case_hash_hex(outcome.config); });
      auto document = traced(tracer, "sweep", "cache_load",
                             [&] { return cache.load(outcome.hash); });
      if (document) {
        outcome.hit = true;
        outcome.document = std::move(*document);
        ++result.hits;
      } else {
        if (tracer != nullptr) {
          const auto metrics =
              compose_case(outcome.config, tracer, setups, scratch, counters);
          outcome.document = traced(tracer, "sweep", "render_case_document", [&] {
            return render_case_document(outcome.config, metrics);
          });
        } else {
          outcome.document = hs::sweep::simulate_case_document(outcome.config, ctx);
        }
        traced(tracer, "sweep", "cache_store",
               [&] { cache.store(outcome.hash, outcome.document); });
        ++result.misses;
        stats.atom_steps += static_cast<double>(outcome.config.atoms) *
                            outcome.config.steps;
        stats.rank_steps += static_cast<double>(outcome.config.nodes) *
                            outcome.config.gpus_per_node * outcome.config.steps;
      }
    }
    traced(tracer, "util", "json_parse", [&] {
      for (auto& outcome : result.cases) {
        outcome.metrics = document_metrics(outcome.document);
      }
    });
    stats.cases += static_cast<double>(result.cases.size());
    stats.hits += result.hits;
    stats.misses += result.misses;
    return traced(tracer, "sweep", "render", [&] {
      std::ostringstream out;
      hs::sweep::write_campaign_json(out, result, /*pretty=*/false);
      return out.str();
    });
  } catch (const std::exception& e) {
    return "{\"error\":\"" + hs::util::json::escape(e.what()) + "\"}\n";
  }
}

/// One session over the whole stream: fresh disk cache (memoized),
/// session-lifetime prepared state and arenas. Checks every answer.
PassStats run_pass(const std::vector<Query>& stream, int pass, Tracer* tracer,
                   CaseCounters& counters, Report& report) {
  PassStats stats;
  const auto t0 = Clock::now();
  const CacheDir dir(pass);
  hs::sweep::ResultCache cache(dir.path());
  cache.set_memoize(true);
  hs::sweep::PreparedStateCache prepared;
  hs::runner::CaseScratch scratch;
  PreparedSetups setups;
  const hs::sweep::ExecutionContext ctx{&prepared, &scratch};
  stats.answers.reserve(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Query& q = stream[i];
    if (tracer != nullptr) tracer->set_request(static_cast<long>(i));
    const auto q0 = Clock::now();
    std::string reply =
        answer(q.line, cache, ctx, tracer, setups, scratch, counters, stats);
    const double ms = 1e3 * seconds_since(q0);
    stats.latency_ms.push_back(ms);
    std::string why;
    switch (q.kind) {
      case Kind::New:
        stats.miss_ms.push_back(ms);
        if (reply.rfind("{\"error\"", 0) == 0) why = "line " + std::to_string(i) + ": " + reply;
        break;
      case Kind::Repeat:
        stats.hit_ms.push_back(ms);
        if (reply != stats.answers[static_cast<std::size_t>(q.first)]) {
          why = "line " + std::to_string(i) +
                ": cache hit differs from the answer that stored it";
        }
        break;
      case Kind::Malformed:
        if (reply.rfind("{\"error\":", 0) != 0) {
          why = "line " + std::to_string(i) + ": malformed spec not refused";
        }
        break;
    }
    report.outcome(why.empty(), why);
    stats.answers.push_back(std::move(reply));
  }
  if (tracer != nullptr) tracer->set_request(-1);
  stats.prepared_hits = static_cast<double>(prepared.hits()) + counters.prepared_hits;
  stats.prepared_misses =
      static_cast<double>(prepared.misses()) + counters.prepared_misses;
  stats.wall_s = seconds_since(t0);
  return stats;
}

/// Seed of the stream of session `k` of a run: session 0 replays the
/// run's own seed, later sessions fresh orders derived from it.
std::uint64_t session_seed(std::uint64_t seed, std::size_t k) {
  return seed + 0x9E3779B97F4A7C15ULL * k;
}

/// Run one pass as a fresh server session: in a forked child, whose peak
/// RSS is the session's own, with the tallies and the outcome of every
/// answer check sent back over a pipe. The parent holds no session state,
/// so every session starts from the same heap.
PassStats run_session(const std::vector<Query>& stream, int pass,
                      Report& report) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("serve session: pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("serve session: fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    std::ostringstream out;
    out.precision(17);
    try {
      reset_peak_rss();
      CaseCounters counters;
      Report child;
      const PassStats s = run_pass(stream, pass, nullptr, counters, child);
      out << s.wall_s << ' ' << host_usage().max_rss_mb << ' ' << s.cases << ' '
          << s.atom_steps << ' ' << s.rank_steps << ' ' << child.attempted << ' '
          << child.failed << ' ' << s.latency_ms.size();
      for (const double ms : s.latency_ms) out << ' ' << ms;
      out << '\n';
      for (std::string why : child.failures) {
        std::replace(why.begin(), why.end(), '\n', ' ');
        out << why << '\n';
      }
    } catch (const std::exception& e) {
      out.str("");
      out << "error " << e.what() << '\n';
      code = 1;
    }
    const std::string text = out.str();
    for (std::size_t done = 0; done < text.size();) {
      const ssize_t n = ::write(fds[1], text.data() + done, text.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) ::_exit(1);
      done += static_cast<std::size_t>(n);
    }
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("serve session " + std::to_string(pass) +
                             " failed: " + text.substr(0, text.find('\n')));
  }

  std::istringstream in(text);
  PassStats stats;
  long attempted = 0, failed = 0;
  std::size_t samples = 0;
  in >> stats.wall_s >> stats.peak_rss_mb >> stats.cases >> stats.atom_steps >>
      stats.rank_steps >> attempted >> failed >> samples;
  stats.latency_ms.resize(samples);
  for (double& ms : stats.latency_ms) in >> ms;
  if (!in || attempted != static_cast<long>(stream.size())) {
    throw std::runtime_error("serve session " + std::to_string(pass) +
                             ": unreadable tallies");
  }
  report.attempted += attempted;
  report.failed += failed;
  in.ignore(1);
  for (std::string why; std::getline(in, why);) {
    if (report.failures.size() < 8) report.failures.push_back(why);
  }
  return stats;
}

/// Self-check: the seed alone decides the stream.
void check_seed_determinism(Report& report, std::uint64_t seed,
                            const std::vector<std::string>& grids,
                            const std::vector<Query>& stream) {
  auto lines = [](const std::vector<Query>& s) {
    std::string all;
    for (const auto& q : s) all += q.line + "\n";
    return all;
  };
  if (lines(make_stream(seed, grids)) != lines(stream)) {
    report.failures.push_back("self-check: same seed, different serve stream");
  }
  if (lines(make_stream(seed + 1, grids)) == lines(stream)) {
    report.failures.push_back("self-check: different seeds, same serve stream");
  }
}

}  // namespace

Report run_serve_mixed(const Options& opt) {
  Report report;
  std::vector<std::string> grids;
  std::vector<Query> stream;
  const double setup_s = median_setup_s(11, [&] {
    grids = new_case_grids(opt.data_dir);
    stream = make_stream(opt.seed, grids);
    const CacheDir dir(-1);
    hs::sweep::ResultCache cache(dir.path());
  });
  check_seed_determinism(report, opt.seed, grids, stream);
  CaseCounters counters;

  if (!opt.trace) {
    // Every pass is a new server session on a stream of its own order.
    // One session's peak RSS depends on its order, through the free heap
    // glibc keeps after large blocks come and go (its mmap threshold
    // adapts): over 30 seeds about half the sessions peaked at 96 MB and
    // the rest anywhere up to 133 MB. So a run spreads its sessions over
    // many orders and reports their mean peak; the median of such a
    // two-mode sample jumps between the modes.
    std::vector<PassStats> passes;
    const auto t0 = Clock::now();
    while (room_for_another(t0, passes.size(), opt.seconds)) {
      const std::size_t k = passes.size();
      const std::vector<Query> session =
          k == 0 ? stream : make_stream(session_seed(opt.seed, k), grids);
      passes.push_back(run_session(session, static_cast<int>(k), report));
    }
    std::vector<double> walls, peaks, latency;
    double cases = 0, atom_steps = 0, rank_steps = 0;
    for (const auto& p : passes) {
      walls.push_back(p.wall_s);
      peaks.push_back(p.peak_rss_mb);
      latency.insert(latency.end(), p.latency_ms.begin(), p.latency_ms.end());
      cases += p.cases;
      atom_steps += p.atom_steps;
      rank_steps += p.rank_steps;
    }
    const double total = sum(walls);
    report.metric("wall_s", median(walls), "s");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", sum(peaks) / static_cast<double>(peaks.size()),
                  "MB");
    report.metric("cases_per_s", cases / total, "1/s");
    report.metric("atom_steps_per_s", atom_steps / total, "1/s");
    report.metric("rank_steps_per_s", rank_steps / total, "1/s");
    const TailPercentile p99 = tail_percentile(latency, 99.0);
    report.detail("query_p50_ms", hs::util::json::format_number(median(latency)));
    report.detail("query_p99_ms", hs::util::json::format_number(p99.value));
    report.detail("query_samples", std::to_string(p99.samples));
    report.detail("pass_walls_s", json_array(walls));
    report.detail("pass_peaks_mb", json_array(peaks));
    return report;
  }

  // Traced run: a warm-up pass, one untraced pass (the reference answers
  // and the query latencies, tracing off), then the same stream traced.
  // Without the warm-up the reference alone would pay for the cold heap.
  run_pass(stream, 0, nullptr, counters, report);
  const PassStats ref = run_pass(stream, 1, nullptr, counters, report);
  Tracer tracer;
  CaseCounters traced_counters;
  const HostUsage host0 = host_usage();
  const PassStats tr = run_pass(stream, 2, &tracer, traced_counters, report);
  const HostUsage host1 = host_usage();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (tr.answers[i] != ref.answers[i]) {
      report.outcome(false, "line " + std::to_string(i) +
                                ": traced answer differs from the untraced one");
    }
  }

  const TailPercentile p99 = tail_percentile(ref.latency_ms, 99.0);
  report.metric("queries_per_s", static_cast<double>(stream.size()) / ref.wall_s,
                "1/s");
  report.metric("query_p50_ms", median(ref.latency_ms), "ms");
  report.metric("query_p99_ms", p99.value, "ms");
  report.metric("query_samples", static_cast<double>(p99.samples), "count");
  report.metric("sweep.hit_ms_p50", median(ref.hit_ms), "ms");
  report.metric("sweep.miss_ms_p50", median(ref.miss_ms), "ms");
  report.metric("sweep.cache_hit_ratio", ref.hits / (ref.hits + ref.misses), "ratio");
  report.metric("sweep.prepared_hit_ratio",
                ref.prepared_hits / (ref.prepared_hits + ref.prepared_misses),
                "ratio");
  report.metric("sweep.parse_ms", 1e3 * tracer.total_s("sweep.parse_campaign"), "ms");
  report.metric("util.json_parse_ms", 1e3 * tracer.total_s("util.json_parse"), "ms");
  report.metric("sweep.cache_load_ms", 1e3 * tracer.total_s("sweep.cache_load"), "ms");
  report.metric("sweep.cache_store_ms", 1e3 * tracer.total_s("sweep.cache_store"), "ms");
  report.metric("sweep.render_ms", 1e3 * tracer.total_s("sweep.render"), "ms");
  report.metric("host.minor_faults", host1.minor_faults - host0.minor_faults, "count");
  report.metric("host.user_s", host1.user_s - host0.user_s, "s");
  report.metric("host.sys_s", host1.sys_s - host0.sys_s, "s");
  report_case_layers(report, traced_counters, tracer);
  report_trace(report, tracer, tr.wall_s, ref.wall_s);
  return report;
}

}  // namespace perfbench
