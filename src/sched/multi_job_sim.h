// Legacy multi-job entry point, now a thin wrapper over FleetSim.
//
// DEPRECATED: new code should construct a FleetSim with an explicit
// SchedulingPolicy (fleet.h / policy.h) -- that API exposes arrivals
// over time, priorities, preemption and the full FleetResult metrics.
// run_multi_job() is kept for source compatibility: it submits every
// workload at t=0 with default intent and maps the FleetResult back to
// the historical MultiJobResult shape, preserving the original
// semantics (single pack over all jobs up front, goodput repack on
// each completion, static partitions never reallocated).
#pragma once

#include <string>
#include <vector>

#include "sched/elastic_job.h"
#include "sched/fleet.h"

namespace cannikin::sched {

/// DEPRECATED: select a SchedulingPolicy object instead (policy.h).
enum class AllocationPolicy {
  kGoodputScheduler,  ///< greedy marginal-goodput (heterogeneous mixes)
  kStaticPartition,   ///< fixed contiguous partition, never re-allocated
};

/// DEPRECATED: use FleetOptions + a policy object. Retained fields map
/// 1:1 onto FleetOptions.
struct MultiJobOptions {
  AllocationPolicy policy = AllocationPolicy::kGoodputScheduler;
  bool use_model_bank = true;
  int max_epochs_per_job = 3000;
  std::uint64_t seed = 1;
  sim::NoiseConfig noise;
};

struct JobOutcome {
  std::string workload;
  double completion_seconds = 0.0;
  int epochs = 0;
  int reallocations = 0;
  int warm_reallocations = 0;
};

struct MultiJobResult {
  std::vector<JobOutcome> jobs;
  double makespan = 0.0;
  double mean_completion = 0.0;
};

/// Runs the given workloads to target on `cluster` under `options`.
/// DEPRECATED thin wrapper over FleetSim; see the file comment.
MultiJobResult run_multi_job(
    const sim::ClusterSpec& cluster,
    const std::vector<const workloads::Workload*>& jobs,
    const MultiJobOptions& options = {});

}  // namespace cannikin::sched
