// md_functional: seeded ~12k-atom grappa systems on a 2x2x1 DD over
// dgx_h100(1,4), shmem transport, default RunConfig (cluster kernels,
// drift rebuilds, 2 fs), run through MdRunner. The only workload where
// the md, dd and halo data paths do real work: pair search and the
// nonbonded kernels dominate its host time.
#include <cmath>
#include <optional>

#include "common.hpp"
#include "compose.hpp"
#include "dd/decomposition.hpp"
#include "halo/workload.hpp"
#include "md/cluster_nonbonded.hpp"
#include "md/nonbonded.hpp"
#include "md/pair_list.hpp"
#include "md/simd/isa.hpp"
#include "md/system.hpp"
#include "msg/comm.hpp"
#include "runner/case.hpp"
#include "runner/md_runner.hpp"
#include "util/hash.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr int kAtoms = 12000;
constexpr double kRlist = 1.0;   // pair-list radius = comm cutoff
constexpr double kCutoff = 0.9;  // force cutoff; the 0.1 nm buffer drives
                                 // drift rebuilds every few steps
constexpr int kSteps = 20;       // MD steps per run
/// Grappa systems per run, seeded from the workload seed. The pair-list
/// rebuild rate is set by the hottest atoms, an extreme value that varies
/// from seed to seed; running several systems in turn keeps the workload's
/// cost from hinging on one draw. Nine systems of 20 steps fit one round
/// in a 20 s run as six of 30 did, and cut the spread of wall_s over ten
/// seeds from 8-11% to 6% of its median.
constexpr int kSystems = 9;
/// Number density (atoms/nm^3). Below build_grappa's functional default
/// of 50: there the jittered lattice puts ethanol-like pairs at 0.64
/// sigma, and at 2 fs 3 of 36 measured systems blew up within 30 steps
/// (relative energy drift 1.1, 2.8 and 204).
constexpr double kDensity = 40.0;
/// Relative total-energy drift allowed for the median system of a round
/// (NVE, 2 fs): 5x the typical 1%. Single systems have a heavy tail (2 of
/// 60 measured in 30-step runs drifted 10% and 24%, from a close contact
/// in the jittered lattice), so this tight bound applies to the median; a broken force or
/// halo path moves every system.
constexpr double kMaxMedianDrift = 0.05;
/// Relative drift allowed for any single system: twice the worst measured
/// tail, below the blow-ups seen at density 50 (1.1 and up). A system over
/// it fails on its own, whatever the median does.
constexpr double kMaxSystemDrift = 0.5;

const hs::dd::GridDims kDims{2, 2, 1};

hs::sim::Topology topology() { return hs::sim::Topology::dgx_h100(1, 4); }

/// Seed of system `k` of the workload seeded with `seed`.
std::uint64_t system_seed(std::uint64_t seed, int k) {
  std::uint64_t state = seed * kSystems + static_cast<std::uint64_t>(k);
  return hs::util::splitmix64(state);
}

hs::md::GrappaSpec grappa_spec(std::uint64_t seed) {
  hs::md::GrappaSpec spec;
  spec.target_atoms = kAtoms;
  spec.density = kDensity;
  spec.seed = seed;
  return spec;
}

std::uint64_t bytes_digest(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
std::uint64_t vec_digest(std::uint64_t h, const std::vector<T>& v) {
  return bytes_digest(h, v.data(), v.size() * sizeof(T));
}

std::uint64_t system_digest(const hs::md::System& sys) {
  std::uint64_t h = hs::util::fnv1a64("");
  h = vec_digest(h, sys.x);
  h = vec_digest(h, sys.v);
  return vec_digest(h, sys.type);
}

std::uint64_t states_digest(const std::vector<hs::dd::DomainState>& states) {
  std::uint64_t h = hs::util::fnv1a64("");
  for (const auto& st : states) {
    h = vec_digest(h, st.x);
    h = vec_digest(h, st.v);
  }
  return h;
}

/// Total energy (potential over a fresh full-system pair list plus
/// kinetic), the NVE conservation check md_stability uses.
double total_energy(const hs::md::System& sys, const hs::md::ForceField& ff) {
  hs::md::PairList list;
  list.build_local(sys.box, sys.x, sys.natoms(), kRlist);
  std::vector<hs::md::Vec3> f(sys.x.size());
  return hs::md::compute_nonbonded(sys.box, ff, sys.x, sys.type, list, f)
             .total() +
         hs::md::kinetic_energy(sys, ff);
}

/// The workload's set-up: build, decompose, snapshot states and lists.
struct Setup {
  std::optional<hs::dd::Decomposition> dd;
  hs::runner::PreparedFunctional prepared;
};

void build_setup(Setup& s, std::uint64_t seed, Tracer* tracer) {
  hs::md::System sys = traced(tracer, "md", "build_grappa", [&] {
    return hs::md::build_grappa(grappa_spec(seed));
  });
  traced(tracer, "dd", "decompose",
         [&] { s.dd.emplace(std::move(sys), kDims, kRlist); });
  // prepare_functional, split into its calls.
  Tracer::Scope scope(tracer, "runner", "prepare_functional");
  s.prepared.states =
      traced(tracer, "dd", "snapshot_states", [&] { return s.dd->states(); });
  s.prepared.lists = traced(tracer, "md", "list_build", [&] {
    return hs::dd::build_pair_lists(*s.dd, kRlist);
  });
  traced(tracer, "md", "release_build_scratch", [&] {
    for (auto& lists : s.prepared.lists) lists.release_build_scratch();
  });
}

struct RunResult {
  double wall_s = 0.0;
  double md_run_s = 0.0;
  double rebuilds = 0.0;
  std::uint64_t digest = 0;
};

/// One functional run from the prepared snapshot (restored first, so
/// every run starts from the same state).
RunResult run_once(Setup& s, const hs::md::ForceField& ff, Tracer* tracer,
                   CaseCounters* counters) {
  RunResult out;
  const auto t0 = Clock::now();
  traced(tracer, "dd", "restore_states",
         [&] { s.dd->states() = s.prepared.states; });
  {
    std::optional<hs::sim::Machine> machine;
    traced(tracer, "sim", "machine_build", [&] {
      machine.emplace(topology(), hs::sim::CostModel::h100_eos());
      machine->trace().set_enabled(true);
    });
    std::optional<hs::pgas::World> world;
    traced(tracer, "pgas", "world_build", [&] { world.emplace(*machine); });
    std::optional<hs::msg::Comm> comm;
    traced(tracer, "msg", "comm_build", [&] { comm.emplace(*machine); });
    hs::halo::Workload workload = traced(tracer, "halo", "make_functional_workload",
        [&] { return hs::halo::make_functional_workload(*s.dd); });
    std::optional<hs::runner::MdRunner> runner;
    traced(tracer, "runner", "md_runner_build", [&] {
      runner.emplace(*machine, *world, *comm, workload, hs::runner::RunConfig{},
                     &ff, &s.prepared.lists);
    });
    const auto r0 = Clock::now();
    traced(tracer, "runner", "md_run", [&] { runner->run(kSteps); });
    out.md_run_s = seconds_since(r0);
    for (const auto n : runner->list_rebuilds()) out.rebuilds += static_cast<double>(n);
    if (counters != nullptr) {
      traced(tracer, "sim", "counters",
             [&] { collect_counters(*counters, *machine, *world, workload); });
    }
    traced(tracer, "runner", "md_runner_teardown", [&] { runner.reset(); });
    traced(tracer, "msg", "comm_teardown", [&] { comm.reset(); });
    traced(tracer, "pgas", "world_teardown", [&] { world.reset(); });
    traced(tracer, "sim", "machine_teardown", [&] { machine.reset(); });
  }
  out.wall_s = seconds_since(t0);
  out.digest = states_digest(s.dd->states());
  return out;
}

/// Relative total-energy drift of a finished run.
double energy_drift(const Setup& s, const hs::md::ForceField& ff, double e0) {
  return std::abs(total_energy(s.dd->gather(), ff) - e0) / std::abs(e0);
}

/// Per-run checks: finite energy, drift within the single-system
/// ceiling, and the final-state digest repeats.
std::string check_run(double drift, const RunResult& run,
                      std::uint64_t first_digest) {
  if (!std::isfinite(drift)) return "non-finite total energy";
  if (!(drift <= kMaxSystemDrift)) {
    return "relative energy drift " + std::to_string(drift) + " > " +
           std::to_string(kMaxSystemDrift);
  }
  if (run.digest != first_digest) {
    return "final-state digest differs from the first run's";
  }
  return "";
}

/// Self-check: the seed alone decides the grappa system.
void check_seed_determinism(Report& report, std::uint64_t seed) {
  auto digest = [](std::uint64_t s) {
    return system_digest(hs::md::build_grappa(grappa_spec(system_seed(s, 0))));
  };
  const auto a = digest(seed);
  const auto b = digest(seed);
  const auto c = digest(seed + 1);
  if (a != b) report.failures.push_back("self-check: same seed, different grappa system");
  if (a == c) report.failures.push_back("self-check: different seeds, same grappa system");
}

/// Per-call host time of the whole-system nonbonded evaluation (every
/// rank's local and non-local cluster lists) on the decomposed initial
/// state, at the dispatched ISA. Median of three calls.
double nonbonded_call_ms(const Setup& s, const hs::md::ForceField& ff) {
  const hs::md::NbParamTable params(ff);
  const hs::md::simd::KernelIsa isa = hs::md::simd::active_isa();
  std::vector<hs::md::NbWorkspace> ws(s.prepared.states.size());
  std::vector<double> t;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < s.prepared.states.size(); ++r) {
      const auto& st = s.prepared.states[r];
      const auto& lists = s.prepared.lists[r];
      std::vector<hs::md::Vec3> f(st.x.size());
      const auto nh = static_cast<std::size_t>(st.n_home);
      const hs::md::Box& box = s.dd->grid().box();
      hs::md::compute_nonbonded_clusters(
          box, params, lists.cluster_local,
          std::span<const hs::md::Vec3>(st.x.data(), nh),
          std::span<const int>(st.type.data(), nh),
          std::span<hs::md::Vec3>(f.data(), nh), ws[r], isa);
      hs::md::compute_nonbonded_clusters(box, params, lists.cluster_nonlocal,
                                         st.x, st.type, f, ws[r], isa);
    }
    t.push_back(seconds_since(t0));
  }
  return 1e3 * median(t);
}

}  // namespace

Report run_md_functional(const Options& opt) {
  Report report;
  const hs::md::ForceField ff(hs::md::grappa_atom_types(), kCutoff);
  check_seed_determinism(report, opt.seed);
  const int ranks = kDims.total();

  if (!opt.trace) {
    // Each system is set up once; their set-up times give the median.
    std::vector<Setup> systems(kSystems);
    std::vector<double> setup_times, e0(kSystems);
    for (int k = 0; k < kSystems; ++k) {
      const auto s0 = Clock::now();
      build_setup(systems[k], system_seed(opt.seed, k), nullptr);
      setup_times.push_back(seconds_since(s0));
      e0[k] = total_energy(systems[k].dd->gather(), ff);
    }
    std::vector<double> walls, peaks;
    std::vector<std::uint64_t> first_digest(kSystems);
    const auto t0 = Clock::now();
    while (room_for_another(t0, walls.size(), opt.seconds)) {
      // One round runs every system once; its wall is the mean per run.
      reset_peak_rss();
      double round_s = 0.0;
      std::vector<double> drifts;
      std::vector<std::string> whys;
      for (int k = 0; k < kSystems; ++k) {
        const RunResult run = run_once(systems[k], ff, nullptr, nullptr);
        if (walls.empty()) first_digest[k] = run.digest;
        round_s += run.wall_s;
        drifts.push_back(energy_drift(systems[k], ff, e0[k]));
        whys.push_back(check_run(drifts.back(), run, first_digest[k]));
      }
      const double median_drift = median(drifts);
      for (std::string& why : whys) {
        if (why.empty() && !(median_drift <= kMaxMedianDrift)) {
          why = "median relative energy drift " + std::to_string(median_drift) +
                " > " + std::to_string(kMaxMedianDrift);
        }
        report.outcome(why.empty(), why);
      }
      report.detail("energy_drifts", json_array(drifts));
      peaks.push_back(host_usage().max_rss_mb);
      walls.push_back(round_s / kSystems);
    }
    const double total = sum(walls);
    const double runs = static_cast<double>(walls.size());
    const double atoms = static_cast<double>(systems[0].dd->global_atoms());
    report.metric("wall_s", median(walls), "s");
    report.metric("setup_s", median(setup_times), "s");
    report.metric("peak_rss_mb", median(peaks), "MB");
    report.metric("cases_per_s", runs / total, "1/s");
    report.metric("atom_steps_per_s", runs * atoms * kSteps / total, "1/s");
    report.metric("rank_steps_per_s", runs * ranks * kSteps / total, "1/s");
    report.detail("isa", std::string("\"") +
                             hs::md::simd::isa_name(hs::md::simd::active_isa()) +
                             "\"");
    report.detail("round_walls_s", json_array(walls));
    std::string digests = "[";
    for (int k = 0; k < kSystems; ++k) {
      digests += (k ? ",\"" : "\"") + hs::util::hex64(first_digest[k]) + "\"";
    }
    report.detail("final_digests", digests + "]");
    return report;
  }

  // Traced run: a warm-up set-up + run, the same untraced as the
  // reference, then traced. Without the warm-up the untraced reference
  // alone would pay for the cold heap.
  double untraced_wall = 0.0, e0 = 0.0;
  std::uint64_t reference_digest = 0;
  {
    Setup warm;
    build_setup(warm, system_seed(opt.seed, 0), nullptr);
    run_once(warm, ff, nullptr, nullptr);
  }
  {
    Setup ref;
    const auto u0 = Clock::now();
    build_setup(ref, system_seed(opt.seed, 0), nullptr);
    const double setup_wall = seconds_since(u0);
    e0 = total_energy(ref.dd->gather(), ff);
    const RunResult run = run_once(ref, ff, nullptr, nullptr);
    untraced_wall = setup_wall + run.wall_s;
    reference_digest = run.digest;
  }
  Tracer tracer;
  CaseCounters counters;
  Setup s;
  const auto t0 = Clock::now();
  build_setup(s, system_seed(opt.seed, 0), &tracer);
  const RunResult run = run_once(s, ff, &tracer, &counters);
  const double traced_wall = seconds_since(t0);
  // The traced run must reproduce the untraced run's final state.
  const std::string why =
      check_run(energy_drift(s, ff, e0), run, reference_digest);
  report.outcome(why.empty(), why.empty() ? "" : "traced run: " + why);

  report_case_layers(report, counters, tracer);
  const double list_build_ms = 1e3 * tracer.total_s("md.list_build");
  const double nb_ms = nonbonded_call_ms(s, ff);
  const double md_run_ms = 1e3 * run.md_run_s;
  double cluster_pairs = 0.0;
  for (const auto& lists : s.prepared.lists) {
    cluster_pairs += static_cast<double>(lists.cluster_local.pair_count() +
                                         lists.cluster_nonlocal.pair_count());
  }
  report.metric("md.grappa_build_ms", 1e3 * tracer.total_s("md.build_grappa"), "ms");
  report.metric("dd.decompose_ms", 1e3 * tracer.total_s("dd.decompose"), "ms");
  report.metric("md.list_build_ms", list_build_ms, "ms");
  report.metric("md.list_rebuilds", run.rebuilds, "count");
  report.metric("md.list_build_share",
                run.rebuilds * (list_build_ms / ranks) / md_run_ms, "ratio");
  report.metric("md.nonbonded_ms", nb_ms, "ms");
  report.metric("md.nonbonded_share", nb_ms * kSteps / md_run_ms, "ratio");
  report.metric("md.cluster_pairs", cluster_pairs, "count");
  report_trace(report, tracer, traced_wall, untraced_wall);
  return report;
}

}  // namespace perfbench
