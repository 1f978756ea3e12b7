#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/trace_sink.h"
#include "scenario/report.h"
#include "scenario/scenario.h"

/// Golden-output pin for a whole run. One small, churny 40-node run per
/// scheme (mixed behaviors, fast movement so links form and break
/// constantly) is reduced to an FNV-1a 64-bit digest of its
/// `dtnic.trace.v1` text followed by its JSON run report. A refactor that
/// claims "same bytes out" must leave the constants unchanged; a change
/// that alters simulation behavior on purpose re-pins them and says why.

namespace dtnic::scenario {
namespace {

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t hash = 0xcbf29ce484222325ull) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

struct GoldenRun {
  std::string trace;
  std::string report;
  std::size_t created = 0;
};

GoldenRun run_golden_scenario(Scheme scheme) {
  ScenarioConfig cfg = ScenarioConfig::scaled_defaults(40, 0.5);
  cfg.scheme = scheme;
  cfg.selfish_fraction = 0.2;
  cfg.malicious_fraction = 0.1;
  cfg.sample_interval_s = 300.0;
  cfg.max_speed_mps = 8.0;  // link churn: contacts break mid-conversation

  Scenario s(cfg);
  std::ostringstream trace_os;
  obs::TraceOptions opt;
  opt.clock = [&sim = s.simulator()] { return sim.now(); };
  opt.seed = cfg.seed;
  opt.scheme = scheme_name(scheme);
  obs::TraceSink sink(trace_os, std::move(opt));
  const obs::SinkHandle handle = s.events().add_sink(sink);

  GoldenRun out;
  const RunResult result = s.run();
  sink.flush();
  out.trace = trace_os.str();
  out.created = result.created;
  std::ostringstream report_os;
  Reporter(report_os, ReportFormat::kJson).run_report(result);
  out.report = report_os.str();
  return out;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

void expect_golden(Scheme scheme, std::uint64_t expected) {
  const GoldenRun run = run_golden_scenario(scheme);
  ASSERT_GT(run.created, 0u);
  ASSERT_GT(run.trace.size(), 100u);
  const std::uint64_t digest = fnv1a64(run.report, fnv1a64(run.trace));
  EXPECT_EQ(hex(digest), hex(expected)) << scheme_name(scheme) << " trace + report changed";
}

TEST(ScenarioGolden, IncentiveTraceAndReportDigest) {
  expect_golden(Scheme::kIncentive, 0x7a7738b303949d66ull);
}

TEST(ScenarioGolden, ChitChatTraceAndReportDigest) {
  expect_golden(Scheme::kChitChat, 0xade8798ce1932f62ull);
}

}  // namespace
}  // namespace dtnic::scenario
