#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string_view>

#include "util/num_format.h"
#include "util/rng.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + stream;
  return dtnic::util::splitmix64(state);
}

std::vector<double> SpanRecorder::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  std::string line;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    line.clear();
    line += "{\"id\":" + std::to_string(i) + ",\"name\":\"" + s.name +
            "\",\"start_ns\":" + std::to_string(s.start_ns) +
            ",\"end_ns\":" + std::to_string(s.end_ns) +
            ",\"parent\":" + std::to_string(s.parent) + "}\n";
    os << line;
  }
  os.flush();
  return os.good();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Tails tails_of(const std::vector<double>& tick_ms, const std::vector<double>& latency_ms) {
  Tails t;
  t.tick_p50_ms = quantile(tick_ms, 0.5);
  t.tick_p90_ms = quantile(tick_ms, 0.9);
  t.latency_p50_ms = quantile(latency_ms, 0.5);
  t.latency_p99_ms = quantile(latency_ms, 0.99);
  t.ticks = tick_ms.size();
  t.deliveries = latency_ms.size();
  return t;
}

bool Ledger::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
  return ok;
}

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

std::string result_json(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += ledger.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ledger.attempted());
  out += ", \"failed\": " + std::to_string(ledger.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!first) out += ", ";
    first = false;
    append_json_string(out, m.name);
    out += ": {\"value\": ";
    // JSON has no NaN/Inf; a non-finite value is reported as 0 and the
    // caller's checks flag the run.
    dtnic::util::append_double(out, std::isfinite(m.value) ? m.value : 0.0);
    out += ", \"unit\": ";
    append_json_string(out, m.unit);
    out += '}';
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace perfbench
