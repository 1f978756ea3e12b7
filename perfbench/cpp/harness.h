#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

/// \file harness.h
/// Shared plumbing of the end-to-end benchmark: host clocks, in-memory
/// spans, order statistics, the pass/fail ledger of output checks, and the
/// one-line JSON result the benchmark prints last.

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A seed for input stream \p stream of a run seeded with \p seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its spans to (created if missing).
  std::string span_dir = ".bench_build/spans";
};

/// One timed interval around a call into the program. Spans live in memory
/// for the whole run and are written out once, when the run ends.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span; -1 = root
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Open a span; returns its id (-1 when recording is off).
  std::int32_t begin(const char* name, std::int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, now_ns(), 0, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  /// Record an already-measured interval.
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::int32_t parent) {
    if (!enabled_) return;
    spans_.push_back(Span{name, ns_since_origin(start), ns_since_origin(end), parent});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations in microseconds of every span called \p name.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;

  /// Write one JSON object per span (id, name, start_ns, end_ns, parent).
  /// Returns false if the file could not be written completely.
  bool write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t ns_since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }
  [[nodiscard]] std::int64_t now_ns() const { return ns_since_origin(Clock::now()); }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::int32_t parent = -1)
      : rec_(rec), id_(rec.begin(name, parent)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { rec_.end(id_); }
  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::int32_t id_;
};

/// Linear-interpolated quantile (q in [0, 1]) of \p values; 0 if empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Operations attempted and failed. Every output check is one operation; a
/// failed check is a failed operation and makes the run incorrect.
class Ledger {
 public:
  /// Count one operation; record \p what as a failure unless \p ok.
  bool check(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}, with
/// \p metrics in order.
[[nodiscard]] std::string result_json(const Ledger& ledger, const std::vector<Metric>& metrics);

/// Process high-water resident set size, in MiB.
[[nodiscard]] double peak_rss_mb();

/// One pass runs every input of a workload once, all traced or all not.
template <typename Rep>
struct Pass {
  std::vector<Rep> reps;
};

/// Run passes over \p inputs inputs: \p run(index, traced) runs one input
/// and returns its Rep. Passes repeat while another one fits in opt.seconds
/// (there is always one). With --trace 1 each input runs untraced and then
/// traced, back to back, so the tracing overhead compares neighbouring runs
/// of identical inputs. Returns the process's peak RSS (MiB) at the end of
/// the first pass, so the figure does not depend on how many passes the
/// host's speed allowed.
template <typename Rep, typename Run>
double run_passes(const Options& opt, std::size_t inputs, Run run,
                  std::vector<Pass<Rep>>& plain, std::vector<Pass<Rep>>& traced) {
  const auto start = Clock::now();
  double first_pass_rss_mb = 0.0;
  for (;;) {
    const auto pass_start = Clock::now();
    Pass<Rep> untraced_pass;
    Pass<Rep> traced_pass;
    for (std::size_t i = 0; i < inputs; ++i) {
      untraced_pass.reps.push_back(run(i, false));
      if (opt.trace) traced_pass.reps.push_back(run(i, true));
    }
    plain.push_back(std::move(untraced_pass));
    if (opt.trace) traced.push_back(std::move(traced_pass));
    if (plain.size() == 1) first_pass_rss_mb = peak_rss_mb();
    const auto now = Clock::now();
    if (seconds_between(start, now) + seconds_between(pass_start, now) > opt.seconds) break;
  }
  return first_pass_rss_mb;
}

template <typename Rep, typename F>
double sum_of(const Pass<Rep>& pass, F f) {
  double total = 0.0;
  for (const Rep& r : pass.reps) total += f(r);
  return total;
}

template <typename Rep, typename F>
double median_of(const Pass<Rep>& pass, F f) {
  std::vector<double> v;
  v.reserve(pass.reps.size());
  for (const Rep& r : pass.reps) v.push_back(f(r));
  return median(std::move(v));
}

/// Each input's fastest run: per input, the repetition with the smallest
/// run_s over \p passes. Other tenants of a shared host only ever
/// slow a run down, and on a shared VM identical passes ran up to 2x apart
/// within one process, in slow spells of ten seconds or more; the fastest of
/// an input's runs is the steadiest reading of the program's own cost.
template <typename Rep>
Pass<Rep> fastest_runs(const std::vector<Pass<Rep>>& passes) {
  Pass<Rep> best = passes.front();
  for (const Pass<Rep>& p : passes) {
    for (std::size_t i = 0; i < p.reps.size(); ++i) {
      if (p.reps[i].run_s < best.reps[i].run_s) best.reps[i] = p.reps[i];
    }
  }
  return best;
}

/// Median over inputs of each input's smallest f(rep) over \p passes: the
/// set-up figure, which is timed apart from run_s.
template <typename Rep, typename F>
double median_of_fastest(const std::vector<Pass<Rep>>& passes, F f) {
  std::vector<double> best(passes.front().reps.size(), std::numeric_limits<double>::infinity());
  for (const Pass<Rep>& p : passes) {
    for (std::size_t i = 0; i < p.reps.size(); ++i) best[i] = std::min(best[i], f(p.reps[i]));
  }
  return median(std::move(best));
}

/// One live mesh run's tick and latency percentiles. live_mesh reports the
/// median over meshes of each, taken from each mesh's fastest run, so a host
/// stall that inflates one run's tail moves the figure less than it would
/// move a percentile of pooled samples.
struct Tails {
  double tick_p50_ms = 0.0;
  double tick_p90_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  std::size_t ticks = 0;
  std::size_t deliveries = 0;
};

[[nodiscard]] Tails tails_of(const std::vector<double>& tick_ms,
                             const std::vector<double>& latency_ms);

}  // namespace perfbench
