// fleet_replay: a Poisson trace of mixed cifar10/movielens/imagenet
// fine-tunes replayed by FleetSim under GoodputGreedyPolicy on a pool of
// several copies of cluster B. One operation is one job of the trace;
// one timed unit is one whole replay.
//
// Each replay gets a private checkpoint directory, removed after the
// replay outside the timed span: deleting fsynced files costs tens of
// milliseconds each on an ext4 mount with `discard`, which would
// otherwise be what this workload measures. The directory goes on
// /dev/shm when that is a writable memory-backed filesystem, else under
// the run's output directory.
#include <sys/statfs.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "obs/scope.h"
#include "sched/fleet.h"
#include "sched/policy.h"
#include "sim/cluster_factory.h"
#include "workloads/registry.h"

namespace perfbench {
namespace {

constexpr int kPoolCopies = 6;        // 6 x cluster B = 96 nodes
constexpr int kJobsPerCopy = 120;     // bench/disc_fleet's trace per copy
constexpr double kInterarrival = 260.0;  // per copy; scaled with the pool
constexpr long kTmpfsMagic = 0x01021994;

/// Cluster B repeated; nodes keep distinct host names because each
/// node's noise stream is seeded from its host name.
sim::ClusterSpec make_pool() {
  const sim::ClusterSpec b = sim::cluster_b();
  sim::ClusterSpec pool = b;
  pool.name = b.name + "x" + std::to_string(kPoolCopies);
  pool.nodes.clear();
  for (int c = 0; c < kPoolCopies; ++c) {
    for (sim::NodeSpec node : b.nodes) {
      node.host += "-c" + std::to_string(c);
      pool.nodes.push_back(node);
    }
  }
  return pool;
}

/// bench/disc_fleet's tenant mix, scaled with the pool.
std::vector<sched::JobSpec> make_specs(int count) {
  const std::vector<const workloads::Workload*> mix{
      &workloads::by_name("cifar10"),
      &workloads::by_name("movielens"),
      &workloads::by_name("imagenet"),
  };
  std::vector<sched::JobSpec> specs;
  for (int i = 0; i < count; ++i) {
    sched::JobSpec spec;
    spec.workload = mix[static_cast<std::size_t>(i) % mix.size()];
    spec.name = spec.workload->name + "-" + std::to_string(i);
    spec.priority = i % 3;
    spec.target_fraction = 0.02 + 0.01 * (i % 4);
    spec.min_nodes = 1 + (i % 2);
    spec.preferred_nodes = 2 + (i % 3);
    specs.push_back(spec);
  }
  return specs;
}

std::string checkpoint_base(const std::string& out_dir) {
  struct statfs fs {};
  if (statfs("/dev/shm", &fs) == 0 &&
      static_cast<long>(fs.f_type) == kTmpfsMagic &&
      access("/dev/shm", W_OK) == 0) {
    return "/dev/shm";
  }
  return out_dir;
}

/// Forwards to the real policy, timing each hook from outside and
/// checking every allocation it returns against the jobs' min_nodes.
class TimedPolicy : public sched::SchedulingPolicy {
 public:
  TimedPolicy(std::unique_ptr<sched::SchedulingPolicy> inner, obs::Scope scope)
      : inner_(std::move(inner)), scope_(scope) {}

  std::string name() const override { return inner_->name(); }
  sched::Allocation on_job_arrival(const sched::FleetState& state,
                                   sched::JobId arrived) override {
    return timed(state, "on_job_arrival",
                 [&] { return inner_->on_job_arrival(state, arrived); });
  }
  sched::Allocation on_job_finish(const sched::FleetState& state,
                                  sched::JobId finished) override {
    return timed(state, "on_job_finish",
                 [&] { return inner_->on_job_finish(state, finished); });
  }
  sched::Allocation on_rebalance_tick(const sched::FleetState& state) override {
    return timed(state, "on_rebalance_tick",
                 [&] { return inner_->on_rebalance_tick(state); });
  }

  const std::vector<double>& call_seconds() const { return calls_; }
  long undersized() const { return undersized_; }

 private:
  template <typename Fn>
  sched::Allocation timed(const sched::FleetState& state, const char* hook,
                          Fn fn) {
    const auto start = Clock::now();
    sched::Allocation target;
    {
      obs::SpanGuard span = scope_.span("sched", hook);
      target = fn();
    }
    calls_.push_back(seconds_since(start));
    for (const sched::JobId job : target.jobs()) {
      const sched::FleetJobView* view = state.view_of(job);
      if (view == nullptr || target.size_of(job) < view->spec->min_nodes) {
        ++undersized_;
      }
    }
    return target;
  }

  std::unique_ptr<sched::SchedulingPolicy> inner_;
  obs::Scope scope_;
  std::vector<double> calls_;
  long undersized_ = 0;
};

struct Replay {
  sched::FleetResult result;
  double wall = 0.0;
  std::vector<double> call_seconds;
  long undersized = 0;
};

class FleetReplay {
 public:
  explicit FleetReplay(const Args& args)
      : args_(args),
        pool_(make_pool()),
        trace_(sched::poisson_arrivals(make_specs(kPoolCopies * kJobsPerCopy),
                                       kInterarrival / kPoolCopies, args.seed)),
        base_(checkpoint_base(args.out_dir)) {}

  Replay run(std::unique_ptr<sched::SchedulingPolicy> policy, obs::Scope scope) {
    const std::string dir = base_ + "/cannikin-perfbench-" +
                            std::to_string(getpid()) + "-" +
                            std::to_string(replays_++);
    sched::FleetOptions options;
    options.seed = args_.seed;
    options.checkpoint_every_epochs = 3;
    options.rebalance_interval_seconds = 400.0;
    options.preemption_cost_seconds = 30.0;
    options.checkpoint_root = dir;
    auto timed = std::make_unique<TimedPolicy>(std::move(policy), scope);
    TimedPolicy* wrapper = timed.get();
    Replay replay;
    {
      sched::FleetSim fleet(pool_, std::move(timed), options);
      fleet.submit(trace_);
      const auto start = Clock::now();
      {
        obs::SpanGuard span = scope.span("bench", "bench.replay");
        replay.result = fleet.run();
      }
      replay.wall = seconds_since(start);
      replay.call_seconds = wrapper->call_seconds();
      replay.undersized = wrapper->undersized();
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return replay;
  }

  std::unique_ptr<sched::SchedulingPolicy> goodput() const {
    return std::make_unique<sched::GoodputGreedyPolicy>(pool_);
  }

  /// Per-replay checks; one operation per job.
  void check(const Replay& replay, const sched::FleetResult& fifo,
             Result& result) {
    const sched::FleetResult& r = replay.result;
    const auto jobs = static_cast<long>(trace_.size());
    result.attempted += jobs;
    long unfinished = 0;
    bool ordered = true;
    for (const auto& job : r.jobs) {
      if (!job.completed) ++unfinished;
      ordered = ordered && job.arrival_time <= job.start_time &&
                job.start_time <= job.finish_time;
    }
    result.failed += unfinished + (jobs - static_cast<long>(r.jobs.size()));
    result.check(ordered, "a job breaks arrival <= start <= finish");
    result.check(replay.undersized == 0,
                 "the policy gave a running job fewer than min_nodes");
    result.check(r.mean_jct < fifo.mean_jct && r.fleet_goodput > fifo.fleet_goodput,
                 "goodput policy does not beat FIFO on mean JCT and goodput");
    if (first_jct_ < 0.0) first_jct_ = r.mean_jct;
    result.check(r.mean_jct == first_jct_, "replays of one trace differ");
  }

 private:
  const Args& args_;
  sim::ClusterSpec pool_;
  std::vector<sched::JobArrival> trace_;
  std::string base_;
  int replays_ = 0;
  double first_jct_ = -1.0;
};

}  // namespace

Result run_fleet_replay(const Args& args) {
  Result result;
  FleetReplay bench(args);
  // Reference outcome, outside the timed window: rigid FIFO on the
  // same trace.
  const sched::FleetResult fifo =
      bench.run(std::make_unique<sched::FifoPolicy>(), obs::Scope{}).result;
  // One untimed goodput replay warms the allocator and caches.
  bench.check(bench.run(bench.goodput(), obs::Scope{}), fifo, result);

  if (!args.trace) {
    result.add("setup_s", seconds_since(args.process_start), "s");
    std::vector<double> walls;
    const auto window = Clock::now();
    do {
      const Replay replay = bench.run(bench.goodput(), obs::Scope{});
      bench.check(replay, fifo, result);
      walls.push_back(replay.wall);
    } while (seconds_since(window) < args.seconds);
    result.add("op_wall_s", median(walls), "s");
    return result;
  }

  obs::Tracer tracer;
  const obs::Scope scope(&tracer, nullptr, obs::kSupervisorTid);
  std::vector<double> overhead;
  std::vector<Replay> traced;
  const auto window = Clock::now();
  do {
    const Replay plain = bench.run(bench.goodput(), obs::Scope{});
    bench.check(plain, fifo, result);
    Replay replay = bench.run(bench.goodput(), scope);
    bench.check(replay, fifo, result);
    overhead.push_back(replay.wall / plain.wall - 1.0);
    traced.push_back(std::move(replay));
  } while (seconds_since(window) < args.seconds);

  const auto spans = closed_spans(tracer);
  const double total = total_seconds(spans, "bench.replay");
  double policy = 0.0;
  for (const Span& s : spans) {
    if (s.category == "sched") policy += s.duration();
  }
  const double ops = static_cast<double>(traced.size());
  double checkpoint = 0.0, restore = 0.0, written = 0.0, preemptions = 0.0,
         rolled_back = 0.0, job_epochs = 0.0, jct = 0.0;
  std::vector<double> calls;
  for (const Replay& r : traced) {
    checkpoint += r.result.measured_checkpoint_write_seconds;
    restore += r.result.measured_restore_seconds;
    written += r.result.checkpoints_written;
    preemptions += r.result.preemptions;
    rolled_back += r.result.epochs_lost_to_preemption;
    for (const auto& job : r.result.jobs) job_epochs += job.epochs;
    jct += r.result.mean_jct;
    calls.insert(calls.end(), r.call_seconds.begin(), r.call_seconds.end());
  }
  const auto [q1, q3] = quartiles(overhead);
  result.add("op_traced_s", total / ops, "s");
  result.add("obs.tracing_overhead_share", median(overhead), "share");
  result.add("obs.tracing_overhead_iqr", q3 - q1, "share");
  result.add("obs.trace_events_per_op",
             static_cast<double>(tracer.event_count()) / ops, "count");
  result.add("sched.policy_share", policy / total, "share");
  result.add("sched.checkpoint_share", checkpoint / total, "share");
  result.add("sched.restore_share", restore / total, "share");
  result.add("sched.mechanism_share", 1.0 - (policy + checkpoint + restore) / total,
             "share");
  result.add("sched.policy_calls_per_op", static_cast<double>(calls.size()) / ops,
             "count");
  result.add("sched.policy_calls_per_s", static_cast<double>(calls.size()) / policy,
             "1/s");
  result.add("sched.policy_call_p99_over_p50",
             percentile(calls, 0.99) / percentile(calls, 0.50), "ratio");
  result.add("sched.checkpoints_per_op", written / ops, "count");
  result.add("sched.preemptions_per_op", preemptions / ops, "count");
  result.add("sched.epochs_rolled_back_per_op", rolled_back / ops, "count");
  result.add("sched.job_epochs_per_op", job_epochs / ops, "count");
  result.add("sched.mean_jct", jct / ops, "vsec");
  result.add("sched.fifo_over_goodput_jct", fifo.mean_jct / (jct / ops), "ratio");

  std::filesystem::create_directories(args.out_dir);
  tracer.write_json(args.out_dir + "/" + args.workload + "-" +
                    std::to_string(args.seed) + ".trace.json");
  return result;
}

}  // namespace perfbench
