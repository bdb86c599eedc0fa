// sync_1k / sync_10k: one planned synchronization round on a two-speed
// virtual cluster -- Algorithm 1 plan, simulated epoch, observation
// feedback and one gradient all-reduce on the event backend, driven in
// pure virtual mode from this single thread.
//
// Plan cost depends on which epoch is planned, so every cycle restores
// the same post-bootstrap snapshot (controller + simulated job) and
// replays the same model-driven epochs. The simulator's noise stream is
// part of the workload (seed 17, as in bench/disc_scaling), so the plan
// trajectory is identical in every run; --seed generates the all-reduce
// payloads.
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "comm/collectives.h"
#include "comm/event_backend.h"
#include "comm/process_group.h"
#include "common.h"
#include "core/controller.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "sim/cluster_factory.h"
#include "workloads/registry.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kClusterNoiseSeed = 17;
constexpr double kSpeedRatio = 2.0;
constexpr int kBootstrapEpochs = 2;
constexpr int kTimedEpochs = 3;      // epochs 2, 3, 4: the first model plans
constexpr int kBatchesPerEpoch = 4;  // as bench/disc_scaling
constexpr std::size_t kElements = 1024;  // one gradient bucket per rank

double gns_for_epoch(const workloads::Workload& w, int epoch) {
  return w.gns_at(0.02 * epoch);
}

struct Snapshot {
  sim::ClusterJob job;
  core::CannikinController controller;
};

void observe(core::CannikinController& controller,
             const sim::EpochObservation& obs) {
  std::vector<int> b;
  std::vector<double> a, p, gamma, t_other, t_last;
  for (const auto& node : obs.nodes) {
    b.push_back(node.local_batch);
    a.push_back(node.a);
    p.push_back(node.p);
    gamma.push_back(node.gamma);
    t_other.push_back(node.t_other);
    t_last.push_back(node.t_last);
  }
  controller.observe_epoch(b, a, p, gamma, t_other, t_last);
}

Snapshot bootstrap(const sim::ClusterSpec& spec, const workloads::Workload& w,
                   obs::Scope scope) {
  sim::ClusterJob job(spec, w.profile, sim::NoiseConfig{}, kClusterNoiseSeed);
  std::vector<double> caps;
  for (int i = 0; i < job.size(); ++i) caps.push_back(job.max_local_batch(i));
  core::ControllerOptions options;
  options.initial_total_batch = w.b0;
  options.max_total_batch = w.max_total_batch;
  options.obs = scope.for_rank(obs::kControllerTid);
  core::CannikinController controller(job.size(), caps, options);
  for (int epoch = 0; epoch < kBootstrapEpochs; ++epoch) {
    const core::EpochPlan plan = controller.plan_epoch();
    observe(controller, job.run_epoch(plan.local_batches, kBatchesPerEpoch,
                                      plan.accumulation_steps));
    controller.update_gns_value(gns_for_epoch(w, epoch));
  }
  return {std::move(job), std::move(controller)};
}

/// Payload value of (rank, element): a multiple of 1/8 in [-128, 128),
/// so every partial sum over up to 10k ranks is exact in double and the
/// all-reduce result does not depend on the reduction order.
std::int64_t payload_eighths(std::uint64_t seed, int rank, std::size_t i) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL +
                    static_cast<std::uint64_t>(rank) * 0xBF58476D1CE4E5B9ULL +
                    i * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  x *= 0xD6E8FEB86659FD93ULL;
  x ^= x >> 32;
  return static_cast<std::int64_t>(x % 2048) - 1024;
}

struct RoundTimes {
  double plan = 0.0;      ///< plan_epoch wall
  double comm_run = 0.0;  ///< run_until_idle wall
  double total = 0.0;     ///< the whole round
  std::uint64_t events = 0;
  int solves = 0;
  bool cache_rebuilt = false;
  double plan_time = 0.0;  ///< true batch time of the plan (virtual s)
  double even_time = 0.0;  ///< true batch time of an even split
};

class VirtualSync {
 public:
  VirtualSync(const Args& args, int ranks)
      : args_(args),
        ranks_(ranks),
        use_tree_(ranks > 1000),
        workload_(workloads::by_name("cifar10")),
        spec_(sim::two_speed_cluster(ranks, kSpeedRatio)),
        data_(static_cast<std::size_t>(ranks)),
        expected_(kElements) {
    for (auto& row : data_) row.resize(kElements);
    std::vector<std::int64_t> sum(kElements, 0);
    for (int r = 0; r < ranks_; ++r) {
      for (std::size_t i = 0; i < kElements; ++i) {
        sum[i] += payload_eighths(args_.seed, r, i);
      }
    }
    for (std::size_t i = 0; i < kElements; ++i) {
      expected_[i] = static_cast<double>(sum[i]) / 8.0;
    }
    // ring: each rank sends n-1 chunks in reduce-scatter and again in
    // all-gather; tree: n-1 messages up, n-1 down.
    const auto n = static_cast<std::uint64_t>(ranks_);
    messages_ = use_tree_ ? 2 * (n - 1) : 2 * n * (n - 1);
  }

  Snapshot make_snapshot(obs::Scope scope) const {
    return bootstrap(spec_, workload_, scope);
  }

  /// One cycle: the fixed model-driven epoch sequence from `snapshot`.
  std::vector<RoundTimes> cycle(const Snapshot& snapshot, obs::Scope scope,
                                Result& result) {
    Snapshot state = snapshot;
    std::vector<RoundTimes> rounds;
    for (int k = 0; k < kTimedEpochs; ++k) {
      reset_payload();
      RoundTimes t;
      const auto start = Clock::now();
      obs::SpanGuard round_span = scope.span("bench", "bench.round");
      core::EpochPlan plan;
      {
        obs::SpanGuard s = scope.span("bench", "bench.plan");
        plan = state.controller.plan_epoch();
      }
      const auto planned = Clock::now();
      sim::EpochObservation obs;
      {
        obs::SpanGuard s = scope.span("bench", "bench.run_epoch");
        obs = state.job.run_epoch(plan.local_batches, kBatchesPerEpoch,
                                  plan.accumulation_steps);
      }
      {
        obs::SpanGuard s = scope.span("bench", "bench.observe");
        observe(state.controller, obs);
        state.controller.update_gns_value(
            gns_for_epoch(workload_, kBootstrapEpochs + k));
      }
      comm::EventStats stats;
      {
        obs::SpanGuard s = scope.span("bench", "bench.all_reduce");
        stats = all_reduce(scope, &t.comm_run);
      }
      round_span.close();
      const auto end = Clock::now();
      t.plan = std::chrono::duration<double>(planned - start).count();
      t.total = std::chrono::duration<double>(end - start).count();
      t.events = stats.events_processed;
      t.solves = plan.linear_solves;
      t.cache_rebuilt = plan.cache_rebuilt;
      check_round(plan, stats, state.job, t, result);
      rounds.push_back(t);
    }
    return rounds;
  }

 private:
  void reset_payload() {
    for (int r = 0; r < ranks_; ++r) {
      auto& row = data_[static_cast<std::size_t>(r)];
      for (std::size_t i = 0; i < kElements; ++i) {
        row[i] = static_cast<double>(payload_eighths(args_.seed, r, i)) / 8.0;
      }
    }
  }

  comm::EventStats all_reduce(obs::Scope scope, double* run_seconds) {
    comm::GroupOptions options;
    options.size = ranks_;
    options.backend = comm::BackendKind::kEvent;
    options.fabric = sim::FabricModel::from_network(spec_.network);
    comm::ProcessGroup group(options);
    if (scope.enabled()) group.set_scope(scope);
    comm::EventBackend* backend = group.event_backend();
    for (int rank = 0; rank < ranks_; ++rank) {
      auto& row = data_[static_cast<std::size_t>(rank)];
      // The slow half of the two-speed cluster reaches the
      // synchronization point later (bench/disc_scaling's stagger).
      const double sync_start = (rank < ranks_ / 2 ? 0.0 : 2e-4) + rank * 1e-7;
      backend->post(rank, sync_start, [this, &group, &row, rank] {
        if (use_tree_) {
          comm::async_tree_all_reduce(group.communicator(rank), row, 1);
        } else {
          comm::async_ring_all_reduce(group.communicator(rank), row, 1);
        }
      });
    }
    const auto start = Clock::now();
    const comm::EventStats stats = backend->run_until_idle();
    *run_seconds = seconds_since(start);
    return stats;
  }

  void check_round(const core::EpochPlan& plan, const comm::EventStats& stats,
                   const sim::ClusterJob& job, RoundTimes& t, Result& result) {
    const std::string where = "n=" + std::to_string(ranks_) + " epoch " +
                              std::to_string(plan.epoch);
    // Plan: local batches cover the total and respect the memory caps.
    long micro_total = 0;
    bool within_caps = static_cast<int>(plan.local_batches.size()) == ranks_;
    for (int i = 0; within_caps && i < ranks_; ++i) {
      const int b = plan.local_batches[static_cast<std::size_t>(i)];
      within_caps = b >= 0 && b <= job.max_local_batch(i);
      micro_total += b;
    }
    result.check(within_caps, where + ": plan breaks a per-node cap");
    result.check(plan.from_model, where + ": plan did not come from the model");
    result.check(micro_total * plan.accumulation_steps == plan.total_batch,
                 where + ": local batches do not sum to the total batch");

    // Plan quality against ground truth: no worse than an even split of
    // the same micro-batch total.
    std::vector<double> planned(plan.local_batches.begin(),
                                plan.local_batches.end());
    std::vector<double> even(static_cast<std::size_t>(ranks_));
    for (int i = 0; i < ranks_; ++i) {
      even[static_cast<std::size_t>(i)] = static_cast<double>(
          micro_total / ranks_ + (i < micro_total % ranks_ ? 1 : 0));
    }
    t.plan_time = job.true_batch_time(planned);
    t.even_time = job.true_batch_time(even);

    // All-reduce: exact closed-form sum everywhere, nothing stranded,
    // every message delivered once (plus at most one zero-delay
    // re-dispatch per message that arrived before its receive).
    bool exact = true;
    for (const auto& row : data_) {
      for (std::size_t i = 0; exact && i < kElements; ++i) {
        exact = row[i] == expected_[i];
      }
      if (!exact) break;
    }
    result.check(exact, where + ": all-reduce result differs from the sum");
    result.check(stats.works_stranded == 0, where + ": stranded Work");
    const std::uint64_t base = 2 * static_cast<std::uint64_t>(ranks_) + messages_;
    result.check(stats.events_processed >= base &&
                     stats.events_processed <= base + messages_,
                 where + ": event count " +
                     std::to_string(stats.events_processed) +
                     " outside the message schedule");
    if (first_events_ == 0) first_events_ = stats.events_processed;
    result.check(stats.events_processed == first_events_,
                 where + ": event count differs between rounds");

    // Three operations per round: plan, simulated epoch, all-reduce.
    // A plan slower than the even split is a failed plan.
    result.attempted += 3;
    if (t.plan_time > t.even_time * (1.0 + 1e-12)) result.failed += 1;
  }

  const Args& args_;
  int ranks_;
  bool use_tree_;
  const workloads::Workload& workload_;
  sim::ClusterSpec spec_;
  std::vector<std::vector<double>> data_;
  std::vector<double> expected_;
  std::uint64_t messages_ = 0;
  std::uint64_t first_events_ = 0;
};

double cycle_mean(const std::vector<RoundTimes>& rounds) {
  double total = 0.0;
  for (const auto& r : rounds) total += r.total;
  return total / static_cast<double>(rounds.size());
}

}  // namespace

Result run_virtual_sync(const Args& args, int ranks) {
  Result result;
  VirtualSync bench(args, ranks);
  const Snapshot plain = bench.make_snapshot(obs::Scope{});

  // One untimed cycle first: the event scheduler's and the allocator's
  // first-round growth is set-up, not steady-state round cost.
  bench.cycle(plain, obs::Scope{}, result);

  if (!args.trace) {
    result.add("setup_s", seconds_since(args.process_start), "s");
    std::vector<double> per_cycle;
    const auto window = Clock::now();
    do {
      per_cycle.push_back(cycle_mean(bench.cycle(plain, obs::Scope{}, result)));
    } while (seconds_since(window) < args.seconds);
    result.add("op_wall_s", median(per_cycle), "s");
    return result;
  }

  // Traced run: alternate untraced and traced cycles so the overhead is
  // measured pairwise under the same machine conditions.
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  const obs::Scope scope(&tracer, &registry, 0);
  const Snapshot traced = bench.make_snapshot(scope);
  const std::size_t bootstrap_events = tracer.event_count();
  std::vector<double> overhead;
  std::vector<RoundTimes> traced_rounds;
  const auto window = Clock::now();
  do {
    const double plain_mean = cycle_mean(bench.cycle(plain, obs::Scope{}, result));
    auto rounds = bench.cycle(traced, scope, result);
    overhead.push_back(cycle_mean(rounds) / plain_mean - 1.0);
    traced_rounds.insert(traced_rounds.end(), rounds.begin(), rounds.end());
  } while (seconds_since(window) < args.seconds);

  const auto spans = closed_spans(tracer);
  const double total = total_seconds(spans, "bench.round");
  const double plan = total_seconds(spans, "bench.plan");
  const double observe_s = total_seconds(spans, "bench.observe");
  const double epoch = total_seconds(spans, "bench.run_epoch");
  const double comm = total_seconds(spans, "bench.all_reduce");
  const double ops = static_cast<double>(traced_rounds.size());
  double solves = 0.0, rebuilds = 0.0, events = 0.0, run = 0.0, plan_time = 0.0,
         vs_even = 0.0, plan_wall = 0.0;
  for (const auto& r : traced_rounds) {
    solves += r.solves;
    rebuilds += r.cache_rebuilt ? 1.0 : 0.0;
    events += static_cast<double>(r.events);
    run += r.comm_run;
    plan_time += r.plan_time;
    vs_even += r.plan_time / r.even_time;
    plan_wall += r.plan;
  }
  // The four timed steps make up the round; the residual is span
  // bookkeeping only.
  const double other = 1.0 - (plan + observe_s + epoch + comm) / total;
  result.check(other < 0.01, "unattributed share of round time " + std::to_string(other));
  const auto [q1, q3] = quartiles(overhead);
  result.add("op_traced_s", total / ops, "s");
  result.add("other_share", other, "share");
  result.add("obs.tracing_overhead_share", median(overhead), "share");
  result.add("obs.tracing_overhead_iqr", q3 - q1, "share");
  result.add("obs.trace_events_per_op",
             static_cast<double>(tracer.event_count() - bootstrap_events) / ops,
             "count");
  result.add("comm.share", comm / total, "share");
  result.add("comm.collectives_per_op",
             registry.counter("comm.ops_completed") / ops, "count");
  result.add("comm.bytes_per_op",
             16.0 * (ranks - 1) * static_cast<double>(kElements), "bytes");
  result.add("comm.events_per_op", events / ops, "count");
  result.add("comm.events_per_s", events / run, "1/s");
  result.add("core.share", (plan + observe_s) / total, "share");
  result.add("core.plans_per_op", 1.0, "count");
  result.add("core.solves_per_op", solves / ops, "count");
  result.add("core.cache_rebuilds_per_op", rebuilds / ops, "count");
  result.add("core.solves_per_s", solves / plan_wall, "1/s");
  result.add("core.plan_vs_even", vs_even / ops, "ratio");
  result.add("core.plan_batch_time", plan_time / ops, "vsec");
  result.add("sim.share", epoch / total, "share");

  std::filesystem::create_directories(args.out_dir);
  tracer.write_json(args.out_dir + "/" + args.workload + "-" +
                    std::to_string(args.seed) + ".trace.json");
  return result;
}

}  // namespace perfbench
