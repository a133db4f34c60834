#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/json_writer.hpp"

namespace perfbench {

// ---- Tracer ---------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, std::string_view layer,
                     std::string_view name)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.layer = layer;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.request = tracer_->request_;
  span.begin_s = seconds_since(tracer_->t0_);
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_s =
      seconds_since(tracer_->t0_);
  tracer_->open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.begin_s;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.layer] += (s.end_s - s.begin_s) - child[i];
  }
  return out;
}

double Tracer::total_s(const std::string& call) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (s.layer + "." + s.name == call) t += s.end_s - s.begin_s;
  }
  return t;
}

double Tracer::covered_s() const {
  double t = 0.0;
  for (const auto& [layer, s] : self_seconds_by_layer()) t += s;
  return t;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"layer\":\"" << s.layer << "\",\"name\":\""
        << hs::util::json::escape(s.name)
        << "\",\"begin_s\":" << hs::util::json::format_number(s.begin_s)
        << ",\"end_s\":" << hs::util::json::format_number(s.end_s)
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

// ---- Statistics -----------------------------------------------------------

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::runtime_error("percentile of no samples");
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

TailPercentile tail_percentile(const std::vector<double>& v, double p) {
  TailPercentile out;
  out.samples = v.size();
  if (v.empty()) {
    throw std::runtime_error("tail percentile of no samples");
  }
  out.value = percentile(v, p);
  out.beyond = static_cast<std::size_t>(std::count_if(
      v.begin(), v.end(), [&](double x) { return x > out.value; }));
  if (out.beyond < 10) {
    std::ostringstream msg;
    msg << "p" << p << " over " << out.samples << " samples has only "
        << out.beyond << " beyond it (need >= 10)";
    throw std::runtime_error(msg.str());
  }
  return out;
}

// ---- Host resources -------------------------------------------------------

HostUsage host_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  HostUsage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

bool reset_peak_rss() {
  // Hand freed heap back first, so every unit starts from the same
  // baseline rather than from what the previous unit left cached.
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

// ---- Report ---------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

void Report::outcome(bool ok, const std::string& why) {
  ++attempted;
  if (ok && why.empty()) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(why.empty() ? "failed" : why);
}

void Report::detail(const std::string& key, const std::string& json_value) {
  for (auto& [k, v] : details) {
    if (k == key) {
      v = json_value;
      return;
    }
  }
  details.emplace_back(key, json_value);
}

void report_trace(Report& report, const Tracer& tracer, double traced_wall_s,
                  double untraced_wall_s) {
  std::string layers = "{";
  for (const auto& [layer, s] : tracer.self_seconds_by_layer()) {
    report.metric(layer + ".self_s", s, "s");
    if (layers.size() > 1) layers += ",";
    layers += "\"" + layer + "\":" + hs::util::json::format_number(s);
  }
  layers += "}";
  report.detail("layer_self_s", layers);
  const double coverage = tracer.covered_s() / traced_wall_s;
  report.metric("trace.coverage", coverage, "ratio");
  report.metric("trace.overhead_pct",
                100.0 * (traced_wall_s - untraced_wall_s) / untraced_wall_s,
                "%");
  report.detail("trace_wall_s",
                "{\"traced\":" + hs::util::json::format_number(traced_wall_s) +
                    ",\"untraced\":" +
                    hs::util::json::format_number(untraced_wall_s) + "}");
  if (coverage < 0.95) {
    report.failures.push_back("trace coverage " + std::to_string(coverage) +
                              " < 0.95 of traced wall");
  }
  const std::string path = work_dir() + "/spans.jsonl";
  if (!tracer.write_jsonl(path)) {
    report.failures.push_back("cannot write " + path);
  }
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

std::string work_dir() {
  const char* env = std::getenv("PERFBENCH_WORK_DIR");
  const std::string dir =
      env != nullptr && *env != '\0' ? env : ".bench_build/perfbench-work";
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += hs::util::json::format_number(values[i]);
  }
  return out + "]";
}

}  // namespace perfbench
