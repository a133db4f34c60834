#include "compose.hpp"

#include <cmath>
#include <optional>
#include <sstream>

#include "dd/grid.hpp"
#include "halo/workload.hpp"
#include "msg/comm.hpp"
#include "pgas/world.hpp"
#include "runner/critical_path.hpp"
#include "runner/md_runner.hpp"
#include "runner/timing.hpp"
#include "sweep/output.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"
#include "util/metrics.hpp"

namespace perfbench {

namespace hr = hs::runner;

namespace {

/// prepare_case, split into the dd and halo calls it makes. Forced DD
/// grids go through prepare_case itself (it validates them).
std::shared_ptr<const hr::PreparedCase> prepare(const hr::CaseSpec& spec,
                                                Tracer* tracer) {
  Tracer::Scope scope(tracer, "runner", "prepare_case");
  if (spec.dd.has_value()) {
    return std::make_shared<const hr::PreparedCase>(hr::prepare_case(spec));
  }
  auto prepared = std::make_shared<hr::PreparedCase>();
  prepared->atoms = spec.atoms;
  prepared->ranks = spec.topology.device_count();
  const float box_len = static_cast<float>(
      std::cbrt(static_cast<double>(spec.atoms) / hr::kGrappaDensity));
  const hs::md::Box box(box_len, box_len, box_len);
  prepared->dims = traced(tracer, "dd", "choose_grid", [&] {
    return hs::dd::choose_grid(box, prepared->ranks, hr::kCommCutoff);
  });
  const hs::dd::DomainGrid grid = traced(tracer, "dd", "domain_grid", [&] {
    return hs::dd::DomainGrid(box, prepared->dims);
  });
  prepared->workload = traced(tracer, "halo", "make_skeleton_workload", [&] {
    return hs::halo::make_skeleton_workload(grid, hr::kCommCutoff,
                                            hr::kGrappaDensity);
  });
  return prepared;
}

double trace_bytes(const hs::sim::Trace& trace) {
  // Heap bytes behind the records: the record array, the edge array, and
  // every string too long for the small-string buffer.
  double bytes = static_cast<double>(trace.records().capacity() *
                                     sizeof(hs::sim::TraceRecord)) +
                 static_cast<double>(trace.edges().capacity() *
                                     sizeof(hs::sim::TraceEdge));
  const std::string empty;
  for (const auto& r : trace.records()) {
    if (r.stream.capacity() > empty.capacity()) bytes += r.stream.capacity() + 1;
    if (r.name.capacity() > empty.capacity()) bytes += r.name.capacity() + 1;
  }
  return bytes;
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

void collect_counters(CaseCounters& counters, hs::sim::Machine& machine,
                      hs::pgas::World& world,
                      const hs::halo::Workload& workload) {
  counters.trace_records +=
      static_cast<double>(machine.trace().records().size());
  counters.trace_bytes += trace_bytes(machine.trace());
  counters.events += static_cast<double>(machine.events_processed());
  const auto fabric = machine.fabric().counters();
  counters.fabric_transfers += static_cast<double>(fabric.total_transfers());
  counters.fabric_bytes += static_cast<double>(fabric.total_bytes());
  const auto pgas = world.counters();
  counters.puts +=
      static_cast<double>(pgas.op(hs::pgas::PgasOp::Put).calls +
                          pgas.op(hs::pgas::PgasOp::PutSignal).calls +
                          pgas.op(hs::pgas::PgasOp::TmaStore).calls);
  counters.signal_waits +=
      static_cast<double>(pgas.op(hs::pgas::PgasOp::SignalWait).calls);
  counters.heap_committed_bytes_max =
      std::max(counters.heap_committed_bytes_max,
               static_cast<double>(world.heap().allocated()) *
                   static_cast<double>(world.n_pes()));
  if (const auto* driver = machine.driver()) {
    counters.pdes_windows += static_cast<double>(driver->windows_run());
    counters.pdes_messages += static_cast<double>(driver->messages_delivered());
  }
  for (const auto& m : machine.telemetry().metrics()) {
    if (ends_with(m.name, ".busy_wall_ns")) counters.pdes_lane_busy_ns += m.total();
    if (ends_with(m.name, ".barrier_wall_ns")) {
      counters.pdes_lane_barrier_ns += m.total();
    }
  }
  for (const auto& rank : workload.plan.ranks) {
    for (const auto& pulse : rank.pulses) {
      // One coordinate and one force exchange per pulse per step.
      counters.halo_exchanges_per_step += 2;
      counters.halo_bytes_per_step +=
          2.0 * pulse.send_size * static_cast<double>(sizeof(hs::md::Vec3));
    }
  }
}

std::map<std::string, double> compose_case(const hs::sweep::CaseConfig& config,
                                           Tracer* tracer,
                                           PreparedSetups& setups,
                                           hr::CaseScratch& scratch,
                                           CaseCounters& counters,
                                           bool telemetry) {
  const hr::CaseSpec spec = traced(tracer, "sweep", "to_case_spec",
                                   [&] { return hs::sweep::to_case_spec(config); });
  const std::uint64_t key = traced(tracer, "sweep", "setup_hash",
                                   [&] { return hs::sweep::setup_hash(config); });
  std::shared_ptr<const hr::PreparedCase>& prepared = setups[key];
  if (prepared == nullptr) {
    prepared = prepare(spec, tracer);
    ++counters.prepared_misses;
  } else {
    ++counters.prepared_hits;
  }
  const int ranks = spec.topology.device_count();

  hs::sim::MachineOptions machine_options;
  machine_options.workers = spec.workers;
  if (spec.workers > 0 && spec.config.transport == hs::halo::Transport::Mpi) {
    machine_options.workers = 0;  // as execute_case: MPI stays classic
  }
  std::optional<hs::sim::Machine> machine;
  traced(tracer, "sim", "machine_build", [&] {
    machine.emplace(spec.topology, spec.cost_model, machine_options);
    machine->trace().set_enabled(true);
    if (telemetry) machine->enable_telemetry();
  });
  std::optional<hs::pgas::World> world;
  traced(tracer, "pgas", "world_build",
         [&] { world.emplace(*machine, 64u << 20, &scratch.arenas); });
  std::optional<hs::msg::Comm> comm;
  traced(tracer, "msg", "comm_build", [&] { comm.emplace(*machine); });
  std::optional<hr::MdRunner> md_runner;
  traced(tracer, "runner", "md_runner_build", [&] {
    md_runner.emplace(*machine, *world, *comm, prepared->workload, spec.config);
  });
  traced(tracer, "runner", "md_run", [&] { md_runner->run(spec.steps); });

  const hr::PerfReport perf = traced(tracer, "runner", "perf",
                                     [&] { return md_runner->perf(spec.warmup); });
  const hr::DeviceTimingReport timing =
      traced(tracer, "runner", "timing_analysis", [&] {
        return hr::analyze_device_timing(machine->trace(),
                                         md_runner->step_end_times(), ranks,
                                         spec.warmup);
      });
  const hr::TraceAggregate agg = traced(tracer, "runner", "aggregate_trace", [&] {
    return hr::aggregate_trace(machine->trace(), spec.warmup);
  });
  const hr::CriticalPathReport crit =
      traced(tracer, "runner", "critical_path", [&] {
        return hr::compute_critical_path(machine->trace(), spec.warmup);
      });

  traced(tracer, "sim", "counters", [&] {
    collect_counters(counters, *machine, *world, prepared->workload);
  });

  std::map<std::string, double> metrics;
  traced(tracer, "sweep", "case_metrics", [&] {
    // The same keys and values simulate_case_document stores.
    metrics["gpus"] = static_cast<double>(ranks);
    metrics["dd_x"] = prepared->dims.nx;
    metrics["dd_y"] = prepared->dims.ny;
    metrics["dd_z"] = prepared->dims.nz;
    metrics["dd_dim"] = prepared->dims.dimensionality();
    metrics["ns_per_day"] = perf.ns_per_day;
    metrics["ms_per_step"] = perf.ms_per_step;
    metrics["measured_steps"] = perf.measured_steps;
    metrics["local_us"] = timing.local_us;
    metrics["nonlocal_us"] = timing.nonlocal_us;
    metrics["nonoverlap_us"] = timing.nonoverlap_us;
    metrics["step_us"] = timing.step_us;
    metrics["other_us"] = timing.other_us;
    metrics["exchange_mean_us"] = agg.exchange_us.mean();
    metrics["exchange_p50_us"] = agg.exchange_percentile(50.0);
    metrics["exchange_p90_us"] = agg.exchange_percentile(90.0);
    metrics["exchange_p99_us"] = agg.exchange_percentile(99.0);
    metrics["exchange_max_us"] = agg.exchange_us.max();
    metrics["exchange_count"] = static_cast<double>(agg.exchange_us.count());
    metrics["crit_window_us"] = crit.window_mean_us();
    for (int c = 0; c < hr::kPathCategoryCount; ++c) {
      const auto cat = static_cast<hr::PathCategory>(c);
      metrics["crit_" + std::string(hr::to_string(cat)) + "_us"] =
          crit.category_mean_us(cat);
    }
    for (auto it = metrics.begin(); it != metrics.end();) {
      it = std::isfinite(it->second) ? std::next(it) : metrics.erase(it);
    }
  });

  // Teardown in execute_case's order; freeing the trace and recycling
  // heap arenas is real per-case cost.
  traced(tracer, "runner", "md_runner_teardown", [&] { md_runner.reset(); });
  traced(tracer, "msg", "comm_teardown", [&] { comm.reset(); });
  traced(tracer, "pgas", "world_teardown", [&] { world.reset(); });
  traced(tracer, "sim", "machine_teardown", [&] { machine.reset(); });
  return metrics;
}

std::string render_case_document(const hs::sweep::CaseConfig& config,
                                 const std::map<std::string, double>& metrics) {
  std::string out = "{\"schema\":\"";
  out += hs::util::metrics::kSchema;
  out += "\",\"cases\":{\n  \"" + hs::sweep::case_hash_hex(config) + "\":{";
  bool first = true;
  for (const auto& [key, value] : metrics) {
    if (!std::isfinite(value)) continue;
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += hs::util::json::escape(key);
    out += "\":";
    out += hs::util::json::format_number(value);
  }
  out += "}\n},\n\"config\":" + hs::sweep::canonical_json(config) + "}\n";
  return out;
}

std::string render_campaign(const hs::sweep::CampaignResult& result) {
  std::ostringstream out;
  hs::sweep::write_campaign_json(out, result);
  return out.str();
}

void check_document(Report& report, const std::string& doc,
                    const std::string& expected, std::size_t cases,
                    const std::string& what) {
  std::string why;
  if (doc != expected) {
    std::size_t at = 0;
    while (at < doc.size() && at < expected.size() && doc[at] == expected[at]) {
      ++at;
    }
    why = what + " campaign document differs from halo_sweep's at byte " +
          std::to_string(at);
  }
  for (std::size_t i = 0; i < cases; ++i) report.outcome(why.empty(), why);
}

std::vector<std::pair<std::string, double>> document_metrics(
    const std::string& document) {
  const auto doc = hs::util::json::parse(document);
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [key, value] :
       doc.at("cases").as_object().begin()->second.as_object()) {
    if (value.is_number()) out.emplace_back(key, value.as_number());
  }
  return out;
}

void report_case_layers(Report& report, const CaseCounters& c,
                        const Tracer& tracer) {
  const double md_run_s = tracer.total_s("runner.md_run");
  report.metric("runner.md_run_s", md_run_s, "s");
  report.metric("runner.prepare_case_ms",
                1e3 * tracer.total_s("runner.prepare_case"), "ms");
  report.metric("runner.timing_analysis_ms",
                1e3 * (tracer.total_s("runner.timing_analysis") +
                       tracer.total_s("runner.aggregate_trace")),
                "ms");
  report.metric("runner.critical_path_ms",
                1e3 * tracer.total_s("runner.critical_path"), "ms");
  const auto self = tracer.self_seconds_by_layer();
  report.metric("runner.case_self_ms",
                self.count("runner") ? 1e3 * self.at("runner") : 0.0, "ms");
  report.metric("sim.machine_build_ms",
                1e3 * tracer.total_s("sim.machine_build"), "ms");
  report.metric("pgas.world_build_ms", 1e3 * tracer.total_s("pgas.world_build"),
                "ms");
  report.metric("sim.trace_records", c.trace_records, "count");
  report.metric("sim.trace_mb", c.trace_bytes / (1024.0 * 1024.0), "MB");
  report.metric("sim.events", c.events, "count");
  report.metric("sim.events_per_s", md_run_s > 0 ? c.events / md_run_s : 0.0,
                "1/s");
  report.metric("sim.fabric_transfers", c.fabric_transfers, "count");
  report.metric("sim.fabric_bytes", c.fabric_bytes, "bytes");
  report.metric("pgas.puts", c.puts, "count");
  report.metric("pgas.signal_waits", c.signal_waits, "count");
  report.metric("pgas.heap_reserved_mb",
                c.heap_committed_bytes_max / (1024.0 * 1024.0), "MB");
  report.metric("halo.exchanges_per_step", c.halo_exchanges_per_step, "count");
  report.metric("halo.bytes_per_step", c.halo_bytes_per_step, "bytes");
  report.metric("sim.pdes_windows", c.pdes_windows, "count");
  report.metric("sim.pdes_messages", c.pdes_messages, "count");
  report.metric("sim.pdes_events_per_window",
                c.pdes_windows > 0 ? c.events / c.pdes_windows : 0.0, "count");
  const double lane_wall = c.pdes_lane_busy_ns + c.pdes_lane_barrier_ns;
  report.metric("sim.pdes_barrier_share",
                lane_wall > 0 ? c.pdes_lane_barrier_ns / lane_wall : 0.0,
                "ratio");
}

}  // namespace perfbench
