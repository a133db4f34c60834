// One skeleton case composed from the public calls that
// sweep::simulate_case_document and runner::execute_case make, with a
// span around each call. The simulated metrics it returns must equal the
// ones the untraced path stores in its case document; every workload
// that traces cases checks that.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common.hpp"
#include "pgas/world.hpp"
#include "runner/case.hpp"
#include "sweep/campaign.hpp"
#include "sweep/runner.hpp"

namespace perfbench {

/// Layer counters summed over every composed case (model invariants and
/// host-side sizes the per-layer table reports).
struct CaseCounters {
  double trace_records = 0;
  double trace_bytes = 0;
  double events = 0;
  double fabric_transfers = 0;
  double fabric_bytes = 0;
  double puts = 0;  // put_nbi + put_signal_nbi + tma_store_async calls
  double signal_waits = 0;
  double heap_committed_bytes_max = 0;  // largest per-case symmetric heap
  double pdes_windows = 0;
  double pdes_messages = 0;
  double pdes_lane_busy_ns = 0;  // Host telemetry (telemetry cases only)
  double pdes_lane_barrier_ns = 0;
  double halo_exchanges_per_step = 0;
  double halo_bytes_per_step = 0;
  double prepared_hits = 0;
  double prepared_misses = 0;
};

/// Prepared setups keyed by the setup sub-hash, as
/// sweep::PreparedStateCache keys them, built here from prepare_case's
/// own public calls so dd and halo get their own spans.
using PreparedSetups =
    std::map<std::uint64_t, std::shared_ptr<const hs::runner::PreparedCase>>;

/// Run one case with spans. `telemetry` turns on the machine registry
/// (needed for the PDES barrier share; never changes simulated results).
/// Returns the case document's metric map (non-finite values dropped,
/// as the document drops them).
std::map<std::string, double> compose_case(const hs::sweep::CaseConfig& config,
                                           Tracer* tracer,
                                           PreparedSetups& prepared,
                                           hs::runner::CaseScratch& scratch,
                                           CaseCounters& counters,
                                           bool telemetry = false);

/// Render a case document exactly as simulate_case_document does.
std::string render_case_document(const hs::sweep::CaseConfig& config,
                                 const std::map<std::string, double>& metrics);

/// Render a campaign document exactly as `halo_sweep --out` writes it.
std::string render_campaign(const hs::sweep::CampaignResult& result);

/// Check a rendered campaign document against the one halo_sweep wrote
/// for the same grid: each of its `cases` counts as failed when the bytes
/// differ.
void check_document(Report& report, const std::string& doc,
                    const std::string& expected, std::size_t cases,
                    const std::string& what);

/// Parse the numeric metrics out of a stored case document.
std::vector<std::pair<std::string, double>> document_metrics(
    const std::string& document);

/// Add one finished case's counters (call before teardown).
void collect_counters(CaseCounters& counters, hs::sim::Machine& machine,
                      hs::pgas::World& world,
                      const hs::halo::Workload& workload);

/// Report the per-layer metrics every case-running workload shares: the
/// counters above plus the runner/sim/pgas call times from the spans.
void report_case_layers(Report& report, const CaseCounters& c,
                        const Tracer& tracer);

}  // namespace perfbench
