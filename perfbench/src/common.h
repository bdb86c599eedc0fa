// Shared plumbing of the benchmark program: arguments, the result every
// workload returns, timing and order statistics, and the span analysis
// that turns an in-memory obs::Tracer into per-layer busy times.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace cannikin::comm {}
namespace cannikin::core {}
namespace cannikin::dnn {}
namespace cannikin::sched {}
namespace cannikin::sim {}
namespace cannikin::workloads {}

namespace perfbench {

namespace comm = cannikin::comm;
namespace core = cannikin::core;
namespace dnn = cannikin::dnn;
namespace obs = cannikin::obs;
namespace sched = cannikin::sched;
namespace sim = cannikin::sim;
namespace workloads = cannikin::workloads;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  Clock::time_point process_start;  ///< taken first thing in main()
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `correct` covers every check made on
/// operations that did not fail; `failed` counts operations that ran to
/// their end but whose output broke a property the method must have.
struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a broken output check; the run reports correct=false.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    if (correct) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    correct = false;
  }
};

Result run_real_train(const Args& args);
Result run_virtual_sync(const Args& args, int ranks);
Result run_fleet_replay(const Args& args);

inline double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quartiles as Python's statistics.quantiles(v, n=4) (exclusive
/// method) gives them; needs at least two values.
inline std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.size() < 2) return {median(v), median(v)};
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  auto at = [&](int i) {
    const double pos = i * (n + 1.0) / 4.0;  // 1-based
    const double j = std::clamp(pos, 1.0, n);
    const auto lo = static_cast<std::size_t>(j) - 1;
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (j - static_cast<double>(lo + 1)) * (v[hi] - v[lo]);
  };
  return {at(1), at(3)};
}

inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank, as obs::MetricsRegistry computes its percentiles.
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

/// One closed span read back from the tracer.
struct Span {
  int tid = 0;
  std::string category;
  std::string name;
  double begin = 0.0;  ///< seconds since the tracer started
  double end = 0.0;
  double duration() const { return end - begin; }
};

/// Pairs Begin/End events per row (they nest, so a stack per tid) and
/// keeps Complete events as they are.
inline std::vector<Span> closed_spans(const obs::Tracer& tracer) {
  std::vector<Span> spans;
  std::map<int, std::vector<Span>> open;
  for (const obs::TraceEvent& e : tracer.snapshot()) {
    const double t = static_cast<double>(e.timestamp_ns) * 1e-9;
    if (e.phase == obs::Phase::kBegin) {
      open[e.tid].push_back({e.tid, e.category, e.name, t, t});
    } else if (e.phase == obs::Phase::kEnd) {
      auto& stack = open[e.tid];
      if (stack.empty()) continue;
      Span s = stack.back();
      stack.pop_back();
      s.end = t;
      spans.push_back(std::move(s));
    } else if (e.phase == obs::Phase::kComplete) {
      spans.push_back({e.tid, e.category, e.name, t,
                       t + static_cast<double>(e.duration_ns) * 1e-9});
    }
  }
  return spans;
}

/// Sum of durations of the spans with this name (any row).
inline double total_seconds(const std::vector<Span>& spans,
                            const std::string& name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) total += s.duration();
  }
  return total;
}

}  // namespace perfbench
