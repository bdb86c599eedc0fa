// Benchmark program: runs one workload in this process and prints, as the
// last stdout line, {"correct", "attempted", "failed", "metrics"}.
//
//   cannikin_perfbench --workload <real_train|sync_1k|sync_10k|fleet_replay>
//       --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 attaches an
// in-memory obs::Tracer + MetricsRegistry, reports the per-layer
// metrics and writes the spans to <out-dir>/<workload>-<seed>.trace.json
// when the run ends. README.md gives the layer -> metric table.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>

#include "common.h"

namespace {

using perfbench::Metric;

// Every run reports exactly these, in this order. A layer the workload
// does not run reports 0 for its shares, counts and rates.
const Metric kEndToEnd[] = {
    {"setup_s", 0.0, "s"},
    {"peak_rss_mb", 0.0, "MB"},
    {"op_wall_s", 0.0, "s"},
};

const Metric kPerLayer[] = {
    {"op_traced_s", 0.0, "s"},
    {"other_share", 0.0, "share"},
    {"obs.tracing_overhead_share", 0.0, "share"},
    {"obs.tracing_overhead_iqr", 0.0, "share"},
    {"obs.trace_events_per_op", 0.0, "count"},
    {"dnn.forward_share", 0.0, "share"},
    {"dnn.backward_share", 0.0, "share"},
    {"dnn.update_share", 0.0, "share"},
    {"dnn.gemm_gflops", 0.0, "GFLOP/s"},
    {"dnn.samples_per_op", 0.0, "count"},
    {"comm.share", 0.0, "share"},
    {"comm.overlap_share", 0.0, "share"},
    {"comm.collectives_per_op", 0.0, "count"},
    {"comm.bytes_per_op", 0.0, "bytes"},
    {"comm.events_per_op", 0.0, "count"},
    {"comm.events_per_s", 0.0, "1/s"},
    {"core.share", 0.0, "share"},
    {"core.plans_per_op", 0.0, "count"},
    {"core.solves_per_op", 0.0, "count"},
    {"core.cache_rebuilds_per_op", 0.0, "count"},
    {"core.solves_per_s", 0.0, "1/s"},
    {"core.idle_share", 0.0, "share"},
    {"core.balance_efficiency", 0.0, "share"},
    {"core.plan_vs_even", 0.0, "ratio"},
    {"core.plan_batch_time", 0.0, "vsec"},
    {"sim.share", 0.0, "share"},
    {"sched.policy_share", 0.0, "share"},
    {"sched.checkpoint_share", 0.0, "share"},
    {"sched.restore_share", 0.0, "share"},
    {"sched.mechanism_share", 0.0, "share"},
    {"sched.policy_calls_per_op", 0.0, "count"},
    {"sched.policy_calls_per_s", 0.0, "1/s"},
    {"sched.policy_call_p99_over_p50", 0.0, "ratio"},
    {"sched.checkpoints_per_op", 0.0, "count"},
    {"sched.preemptions_per_op", 0.0, "count"},
    {"sched.epochs_rolled_back_per_op", 0.0, "count"},
    {"sched.job_epochs_per_op", 0.0, "count"},
    {"sched.mean_jct", 0.0, "vsec"},
    {"sched.fifo_over_goodput_jct", 0.0, "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: cannikin_perfbench --workload "
               "<real_train|sync_1k|sync_10k|fleet_replay> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  perfbench::Args args = parse(argc, argv);
  args.process_start = process_start;

  perfbench::Result result;
  try {
    if (args.workload == "real_train") {
      result = perfbench::run_real_train(args);
    } else if (args.workload == "sync_1k") {
      result = perfbench::run_virtual_sync(args, 1000);
    } else if (args.workload == "sync_10k") {
      result = perfbench::run_virtual_sync(args, 10000);
    } else if (args.workload == "fleet_replay") {
      result = perfbench::run_fleet_replay(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!args.trace) result.add("peak_rss_mb", perfbench::peak_rss_mb(), "MB");

  // Emit exactly the declared metric set, in declared order.
  std::string metrics;
  std::set<std::string> used;
  auto emit = [&](const Metric& spec, bool optional) {
    const Metric* found = nullptr;
    for (const Metric& m : result.metrics) {
      if (m.name == spec.name) found = &m;
    }
    if (found == nullptr && !optional) {
      std::fprintf(stderr, "perfbench: workload did not report %s\n",
                   spec.name.c_str());
      std::exit(1);
    }
    if (found != nullptr) used.insert(spec.name);
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name.c_str(),
                  found != nullptr ? found->value : 0.0, spec.unit.c_str());
    metrics += buf;
  };
  if (args.trace) {
    for (const Metric& spec : kPerLayer) emit(spec, /*optional=*/true);
  } else {
    for (const Metric& spec : kEndToEnd) emit(spec, /*optional=*/false);
  }
  for (const Metric& m : result.metrics) {
    if (used.count(m.name) == 0) {
      std::fprintf(stderr, "perfbench: undeclared metric %s\n", m.name.c_str());
      return 1;
    }
  }
  if (result.attempted < 1) {
    std::fprintf(stderr, "perfbench: no operation completed\n");
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false", result.attempted,
              result.failed, metrics.c_str());
  return 0;
}
