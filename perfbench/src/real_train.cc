// real_train: the paper's loop on real threads. AdaptiveTrainer runs two
// ranks with throttles {1, 3} on the thread backend (2 worker + 2 comm
// progress threads). The total batch is pinned, so every epoch does the
// same steps while OptPerf still learns the per-rank models from
// measured time and plans the local split. One operation is one epoch.
//
// A single-worker run of the same task (same seed, data and total
// batch) is made first, during set-up: Eq. (9) weighting makes the two
// runs' losses agree to rounding whatever split is chosen, and its
// throughput is the base of core.balance_efficiency.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory_resource>
#include <string>
#include <vector>

#include "common.h"
#include "dnn/adaptive_trainer.h"
#include "dnn/data.h"
#include "dnn/kernels/kernels.h"
#include "dnn/model.h"
#include "obs/metrics.h"
#include "obs/scope.h"

namespace perfbench {
namespace {

constexpr std::size_t kTrainSamples = 8192;
constexpr std::size_t kTestSamples = 2048;
constexpr std::size_t kDim = 32;
constexpr std::size_t kHidden = 256;
constexpr std::size_t kDepth = 2;
constexpr std::size_t kClasses = 8;
constexpr double kSeparation = 3.0;
constexpr int kTotalBatch = 256;
constexpr int kBootstrapEpochs = 2;
// The loss is compared with the single-worker run after this many
// epochs (bootstrap included); every run makes at least this many.
constexpr int kCheckedEpochs = kBootstrapEpochs + 16;
const std::vector<int> kThrottles = {1, 3};
// Relative loss agreement with the single-worker run. The two runs
// differ only in the order of floating-point additions (one batch mean
// vs an Eq. (9)-weighted sum of two local means); observed <= 5e-16.
constexpr double kLossTolerance = 1e-12;
constexpr double kAccuracyFloor = 0.7;  // chance is 1/8; observed 0.87-0.90
constexpr double kMaxResidualShare = 0.15;  // observed about 0.05

struct Data {
  dnn::InMemoryDataset train;
  dnn::InMemoryDataset test;
};

dnn::InMemoryDataset slice(const dnn::InMemoryDataset& all, std::size_t begin,
                           std::size_t count) {
  std::vector<std::size_t> idx(count);
  for (std::size_t i = 0; i < count; ++i) idx[i] = begin + i;
  const dnn::Tensor x = all.gather(idx);
  return dnn::InMemoryDataset({kDim}, std::vector<double>(x.data(), x.data() + x.size()),
                              all.gather_labels(idx), {});
}

Data make_data(std::uint64_t seed) {
  const dnn::InMemoryDataset all = dnn::make_gaussian_mixture(
      kTrainSamples + kTestSamples, kDim, kClasses, kSeparation, seed);
  return {slice(all, 0, kTrainSamples), slice(all, kTrainSamples, kTestSamples)};
}

dnn::Model make_model() { return dnn::make_mlp(kDim, kHidden, kDepth, kClasses); }

std::unique_ptr<dnn::AdaptiveTrainer> make_trainer(const Data& data,
                                                   std::uint64_t seed,
                                                   std::vector<int> throttles,
                                                   obs::Scope scope) {
  dnn::AdaptiveTrainerOptions options;
  options.num_nodes = static_cast<int>(throttles.size());
  options.throttles = std::move(throttles);
  options.initial_total_batch = kTotalBatch;
  options.max_total_batch = kTotalBatch;
  options.seed = seed;
  options.obs = scope;
  return std::make_unique<dnn::AdaptiveTrainer>(&data.train, make_model, options);
}

/// Kernel-layer throughput on the model's own forward shapes, called
/// directly on the optimized backend.
double gemm_gflops() {
  const dnn::kernels::KernelBackend& k =
      dnn::kernels::kernel(dnn::kernels::KernelKind::kOptimized);
  const std::size_t m = 192;  // the fast rank's typical local batch
  const std::size_t shapes[][2] = {{kDim, kHidden}, {kHidden, kHidden}, {kHidden, kClasses}};
  std::vector<double> a(m * kHidden, 0.5), w(kHidden * kHidden, 0.25),
      bias(kHidden, 0.1), c(m * kHidden);
  double flops = 0.0;
  int reps = 0;
  const auto start = Clock::now();
  do {
    for (const auto& s : shapes) {
      k.linear(a.data(), w.data(), bias.data(), c.data(), m, s[0], s[1],
               dnn::kernels::Activation::kReLU, nullptr,
               std::pmr::get_default_resource());
      flops += 2.0 * static_cast<double>(m * s[0] * s[1]);
    }
    ++reps;
  } while (reps < 200 || seconds_since(start) < 0.2);
  return flops / seconds_since(start) * 1e-9;
}

struct Epoch {
  dnn::AdaptiveEpochReport report;
  double wall = 0.0;
};

class RealTrain {
 public:
  RealTrain(const Args& args, Result& result)
      : args_(args), result_(result), data_(make_data(args.seed)) {}

  /// Single-worker reference for the epochs the loss is checked at.
  void run_reference() {
    auto trainer = make_trainer(data_, args_.seed, {1}, obs::Scope{});
    std::vector<double> walls;
    for (int e = 0; e < kCheckedEpochs; ++e) {
      const auto t = Clock::now();
      reference_loss_.push_back(trainer->run_epoch().mean_loss);
      if (e >= kBootstrapEpochs) walls.push_back(seconds_since(t));
    }
    single_samples_per_s_ = static_cast<double>(kTrainSamples) / median(walls);
  }

  double single_samples_per_s() const { return single_samples_per_s_; }

  std::unique_ptr<dnn::AdaptiveTrainer> bootstrapped(obs::Scope scope) {
    auto trainer = make_trainer(data_, args_.seed, kThrottles, scope);
    for (int e = 0; e < kBootstrapEpochs; ++e) {
      check_epoch(trainer->run_epoch(), "bootstrap");
    }
    return trainer;
  }

  Epoch timed_epoch(dnn::AdaptiveTrainer& trainer) {
    Epoch e;
    const auto start = Clock::now();
    e.report = trainer.run_epoch();
    e.wall = seconds_since(start);
    ++result_.attempted;
    check_epoch(e.report, "timed");
    if (e.report.epoch + 1 == kCheckedEpochs) check_loss(e.report);
    return e;
  }

  /// True until the run has passed the loss-checked epoch.
  static bool before_check(const Epoch& last) {
    return last.report.epoch + 1 < kCheckedEpochs;
  }

  /// At the end of the run: held-out accuracy clears the floor.
  void check_accuracy(const dnn::AdaptiveTrainer& trainer) {
    const double accuracy = trainer.evaluate_accuracy(data_.test);
    result_.check(accuracy >= kAccuracyFloor,
                  "held-out accuracy " + std::to_string(accuracy) + " below floor");
  }

 private:
  void check_epoch(const dnn::AdaptiveEpochReport& r, const char* phase) {
    int sum = 0;
    for (int b : r.local_batches) sum += b;
    result_.check(r.total_batch == kTotalBatch && sum == kTotalBatch,
                  std::string(phase) + " plan does not sum to the pinned batch");
    if (r.planned_from_model) {
      result_.check(r.local_batches.size() == 2 &&
                        r.local_batches[0] > r.local_batches[1],
                    "model plan does not favour the throttle-1 rank");
    }
    result_.check(std::isfinite(r.mean_loss), "non-finite loss");
  }

  /// Eq. (9) weighting: the loss equals the single-worker run's.
  void check_loss(const dnn::AdaptiveEpochReport& r) {
    const double ref = reference_loss_[static_cast<std::size_t>(r.epoch)];
    const double rel = std::abs(r.mean_loss - ref) / std::abs(ref);
    result_.check(rel <= kLossTolerance,
                  "epoch " + std::to_string(r.epoch) + " loss differs from the "
                  "single-worker run by " + std::to_string(rel) + " (relative)");
  }

  const Args& args_;
  Result& result_;
  Data data_;
  std::vector<double> reference_loss_;
  double single_samples_per_s_ = 0.0;
};

/// Sum over ranks of the time span `a` on row r overlaps `b` on row r.
double overlap_seconds(const std::vector<Span>& spans, const std::string& a,
                       int a_tid_base, const std::string& b) {
  double hidden = 0.0;
  for (int rank = 0; rank < 2; ++rank) {
    std::vector<std::pair<double, double>> cover;
    for (const Span& s : spans) {
      if (s.tid == rank && s.name == b) cover.emplace_back(s.begin, s.end);
    }
    std::sort(cover.begin(), cover.end());
    for (const Span& s : spans) {
      if (s.tid != a_tid_base + rank || s.name != a) continue;
      auto it = std::upper_bound(cover.begin(), cover.end(),
                                 std::make_pair(s.begin, s.begin));
      if (it != cover.begin()) --it;
      for (; it != cover.end() && it->first < s.end; ++it) {
        hidden += std::max(0.0, std::min(s.end, it->second) - std::max(s.begin, it->first));
      }
    }
  }
  return hidden;
}

/// Per step, the time each rank's compute (forward + backward) falls
/// short of the slowest rank's: what the faster rank waits.
double idle_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<double>> compute(2);
  for (int rank = 0; rank < 2; ++rank) {
    std::vector<std::pair<double, double>> fwd, bwd;
    for (const Span& s : spans) {
      if (s.tid != rank) continue;
      if (s.name == "forward") fwd.emplace_back(s.begin, s.duration());
      if (s.name == "backward") bwd.emplace_back(s.begin, s.duration());
    }
    std::sort(fwd.begin(), fwd.end());
    std::sort(bwd.begin(), bwd.end());
    for (std::size_t i = 0; i < std::min(fwd.size(), bwd.size()); ++i) {
      compute[static_cast<std::size_t>(rank)].push_back(fwd[i].second + bwd[i].second);
    }
  }
  double idle = 0.0;
  const std::size_t steps = std::min(compute[0].size(), compute[1].size());
  for (std::size_t i = 0; i < steps; ++i) {
    const double slowest = std::max(compute[0][i], compute[1][i]);
    idle += (slowest - compute[0][i]) + (slowest - compute[1][i]);
  }
  return idle;
}

}  // namespace

Result run_real_train(const Args& args) {
  Result result;
  RealTrain bench(args, result);
  bench.run_reference();

  if (!args.trace) {
    auto trainer = bench.bootstrapped(obs::Scope{});
    result.add("setup_s", seconds_since(args.process_start), "s");
    std::vector<double> walls;
    Epoch last;
    const auto window = Clock::now();
    do {
      last = bench.timed_epoch(*trainer);
      walls.push_back(last.wall);
    } while (RealTrain::before_check(last) || seconds_since(window) < args.seconds);
    bench.check_accuracy(*trainer);
    result.add("op_wall_s", median(walls), "s");
    return result;
  }

  // Traced run: a plain and a traced trainer, same seed, alternating
  // epochs so the tracing overhead is measured pairwise.
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  const obs::Scope scope(&tracer, &registry, 0);
  auto plain = bench.bootstrapped(obs::Scope{});
  auto traced = bench.bootstrapped(scope);
  const std::size_t bootstrap_events = tracer.event_count();
  const double bootstrap_planning = registry.counter("controller.planning_seconds");
  const double bootstrap_solves = registry.counter("controller.linear_solves");
  const double bootstrap_rebuilds = registry.counter("controller.cache_rebuilds");
  const double bootstrap_ops = registry.counter("comm.ops_completed");
  const auto wait_before = registry.histogram("reducer.exposed_wait_us");
  const double tail_begin = tracer.event_count() > 0
                                ? static_cast<double>(tracer.snapshot().back().timestamp_ns) * 1e-9
                                : 0.0;
  std::vector<double> overhead, plain_walls;
  double traced_wall = 0.0;
  int traced_epochs = 0;
  Epoch last_plain, last_traced;
  const auto window = Clock::now();
  do {
    last_plain = bench.timed_epoch(*plain);
    last_traced = bench.timed_epoch(*traced);
    overhead.push_back(last_traced.wall / last_plain.wall - 1.0);
    plain_walls.push_back(last_plain.wall);
    traced_wall += last_traced.wall;
    ++traced_epochs;
  } while (RealTrain::before_check(last_traced) || seconds_since(window) < args.seconds);
  bench.check_accuracy(*plain);
  bench.check_accuracy(*traced);

  std::vector<Span> spans;
  for (Span& s : closed_spans(tracer)) {
    if (s.begin >= tail_begin) spans.push_back(std::move(s));
  }
  const double ops = traced_epochs;
  const double rank_time = 2.0 * traced_wall;
  const double forward = total_seconds(spans, "forward");
  const double backward = total_seconds(spans, "backward");
  const double update = total_seconds(spans, "update");
  const auto wait_after = registry.histogram("reducer.exposed_wait_us");
  const double wait = (static_cast<double>(wait_after.count) * wait_after.mean -
                       static_cast<double>(wait_before.count) * wait_before.mean) *
                      1e-6;
  const double planning =
      registry.counter("controller.planning_seconds") - bootstrap_planning;
  const double solves = registry.counter("controller.linear_solves") - bootstrap_solves;
  const double bucket_time = total_seconds(spans, "bucket_all_reduce");
  const double core_share = planning / traced_wall;
  const auto [q1, q3] = quartiles(overhead);
  const auto params = static_cast<double>(plain->num_params());
  const double steps = static_cast<double>(kTrainSamples / kTotalBatch);

  // Directly measured layer time must account for the epoch: what is
  // left (thread start/join, the stats all-gather, loader indexing)
  // stays below kMaxResidualShare.
  const double other = 1.0 - (forward + backward + update + wait) / rank_time - core_share;
  result.check(other < kMaxResidualShare, "unattributed share of epoch time " +
                                              std::to_string(other));
  result.add("op_traced_s", traced_wall / ops, "s");
  result.add("other_share", other, "share");
  result.add("obs.tracing_overhead_share", median(overhead), "share");
  result.add("obs.tracing_overhead_iqr", q3 - q1, "share");
  result.add("obs.trace_events_per_op",
             static_cast<double>(tracer.event_count() - bootstrap_events) / ops, "count");
  result.add("dnn.forward_share", forward / rank_time, "share");
  result.add("dnn.backward_share", backward / rank_time, "share");
  result.add("dnn.update_share", update / rank_time, "share");
  result.add("dnn.gemm_gflops", gemm_gflops(), "GFLOP/s");
  result.add("dnn.samples_per_op", static_cast<double>(kTrainSamples), "count");
  result.add("comm.share", wait / rank_time, "share");
  result.add("comm.overlap_share",
             bucket_time > 0.0
                 ? overlap_seconds(spans, "bucket_all_reduce", obs::kCommTidBase,
                                   "backward") / bucket_time
                 : 0.0,
             "share");
  result.add("comm.collectives_per_op",
             (registry.counter("comm.ops_completed") - bootstrap_ops) / ops, "count");
  // Ring all-reduce of every bucket plus the 4-double stats all-gather,
  // over n = 2 ranks: 16 (n-1) P + 8 n (n-1) 4 bytes per step.
  result.add("comm.bytes_per_op", steps * (16.0 * params + 64.0), "bytes");
  result.add("core.share", core_share, "share");
  result.add("core.plans_per_op", 1.0, "count");
  result.add("core.solves_per_op", solves / ops, "count");
  result.add("core.cache_rebuilds_per_op",
             (registry.counter("controller.cache_rebuilds") - bootstrap_rebuilds) / ops,
             "count");
  result.add("core.solves_per_s", planning > 0.0 ? solves / planning : 0.0, "1/s");
  result.add("core.idle_share", idle_seconds(spans) / rank_time, "share");
  double inv_throttle = 0.0;
  for (int t : kThrottles) inv_throttle += 1.0 / t;
  result.add("core.balance_efficiency",
             static_cast<double>(kTrainSamples) / median(plain_walls) /
                 (bench.single_samples_per_s() * inv_throttle),
             "share");

  std::filesystem::create_directories(args.out_dir);
  tracer.write_json(args.out_dir + "/" + args.workload + "-" +
                    std::to_string(args.seed) + ".trace.json");
  return result;
}

}  // namespace perfbench
