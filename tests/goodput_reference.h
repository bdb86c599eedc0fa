// Test-only reference for GoodputGreedyPolicy: the uncached decision
// procedure, which runs the full goodput pipeline (per-node models in
// subset order, comm schedule, OptPerf solve of every batch candidate)
// on every probe. The policy prices each node-type mix once per
// decision instead; parity tests check both return equal Allocations.
#pragma once

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/goodput.h"
#include "core/optperf.h"
#include "sched/policy.h"
#include "sim/gpu.h"
#include "sim/network.h"

namespace cannikin::sched::reference {

inline double estimated_goodput(const sim::ClusterSpec& cluster,
                                const GoodputJob& job,
                                const std::vector<int>& node_ids) {
  if (node_ids.empty()) return 0.0;
  const workloads::Workload& workload = *job.workload;
  std::vector<core::NodeModel> models;
  for (int id : node_ids) {
    const sim::NodeTruth truth = sim::derive_node_truth(
        cluster.nodes.at(static_cast<std::size_t>(id)), workload.profile);
    models.push_back({truth.q, truth.s, truth.k, truth.m,
                      static_cast<double>(truth.max_local_batch)});
  }
  const int nodes = static_cast<int>(node_ids.size());
  const auto schedule = sim::make_comm_schedule(
      cluster.network, workload.profile.gradient_bytes,
      workload.profile.bucket_bytes, nodes);
  const core::OptPerfSolver solver(
      models, {workload.profile.gamma, schedule.t_other, schedule.t_last});
  const int min_batch = std::max(workload.b0, 2 * nodes);
  const auto candidates = core::batch_size_candidates(
      min_batch, std::max(workload.max_total_batch, min_batch), 1.5);
  const core::GoodputModel goodput(workload.b0);
  double best = 0.0;
  for (int candidate : candidates) {
    const auto result = solver.solve(candidate);
    if (!result.feasible || result.batch_time <= 0.0) continue;
    best = std::max(best,
                    goodput.goodput(job.gns, candidate, result.batch_time));
  }
  return best;
}

/// Greedy marginal normalized-goodput packing of `pool`; job ids are
/// indices into `jobs`.
inline Allocation pack(const sim::ClusterSpec& cluster,
                       const std::vector<GoodputJob>& jobs,
                       std::vector<int> pool) {
  Allocation allocation(cluster.size());
  if (jobs.empty()) return allocation;
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  std::sort(pool.begin(), pool.end(), [&](int lhs, int rhs) {
    const auto speed = [&](int id) {
      const auto& node = cluster.nodes[static_cast<std::size_t>(id)];
      return sim::gpu_spec(node.gpu).relative_speed * node.contention;
    };
    const double ls = speed(lhs), rs = speed(rhs);
    if (ls != rs) return ls > rs;
    return lhs < rhs;
  });

  std::vector<std::vector<int>> assigned(jobs.size());
  std::size_t cursor = 0;
  for (std::size_t job = 0; job < jobs.size(); ++job) {
    while (static_cast<int>(assigned[job].size()) < jobs[job].min_nodes &&
           cursor < pool.size()) {
      assigned[job].push_back(pool[cursor++]);
    }
  }
  std::vector<double> base(jobs.size());
  std::vector<double> current(jobs.size());
  for (std::size_t job = 0; job < jobs.size(); ++job) {
    base[job] = std::max(
        estimated_goodput(cluster, jobs[job], assigned[job]), 1e-12);
    current[job] = base[job];
  }
  for (; cursor < pool.size(); ++cursor) {
    const int node = pool[cursor];
    double best_gain = -std::numeric_limits<double>::infinity();
    std::size_t best_job = 0;
    double best_goodput = 0.0;
    for (std::size_t job = 0; job < jobs.size(); ++job) {
      std::vector<int> probe = assigned[job];
      probe.push_back(node);
      const double with_node = estimated_goodput(cluster, jobs[job], probe);
      const double gain = (with_node - current[job]) / base[job];
      if (gain > best_gain) {
        best_gain = gain;
        best_job = job;
        best_goodput = with_node;
      }
    }
    assigned[best_job].push_back(node);
    current[best_job] = best_goodput;
  }
  for (std::size_t job = 0; job < jobs.size(); ++job) {
    allocation.assign(static_cast<JobId>(job), assigned[job]);
  }
  return allocation;
}

/// The goodput-greedy decision with no goodput table: runnable set by
/// (priority, arrival), greedy pack, preemption guard with pinning.
class UncachedGoodputPolicy : public SchedulingPolicy {
 public:
  UncachedGoodputPolicy(sim::ClusterSpec cluster,
                        GoodputGreedyOptions options = {})
      : cluster_(std::move(cluster)), options_(options) {}
  std::string name() const override { return "goodput-reference"; }
  Allocation on_job_arrival(const FleetState& state, JobId) override {
    return repack(state);
  }
  Allocation on_job_finish(const FleetState& state, JobId) override {
    return repack(state);
  }
  Allocation on_rebalance_tick(const FleetState& state) override {
    return repack(state);
  }

 private:
  Allocation repack(const FleetState& state) const {
    const int n = state.cluster->size();
    std::vector<const FleetJobView*> ordered;
    for (const auto& view : state.jobs) ordered.push_back(&view);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const FleetJobView* lhs, const FleetJobView* rhs) {
                       return lhs->spec->priority > rhs->spec->priority;
                     });
    std::vector<JobId> pinned;
    const auto is_pinned = [&](JobId id) {
      return std::find(pinned.begin(), pinned.end(), id) != pinned.end();
    };
    for (std::size_t round = 0; round <= state.jobs.size(); ++round) {
      std::vector<int> pool;
      for (int node = 0; node < n; ++node) {
        const JobId owner = state.current->job_of(node);
        if (owner == kNoJob || !is_pinned(owner)) pool.push_back(node);
      }
      std::vector<const FleetJobView*> selected;
      int demand = 0;
      for (const FleetJobView* view : ordered) {
        if (is_pinned(view->id)) continue;
        if (options_.max_concurrent > 0 &&
            static_cast<int>(pinned.size() + selected.size()) >=
                options_.max_concurrent) {
          break;
        }
        if (demand + view->spec->min_nodes > static_cast<int>(pool.size())) {
          continue;
        }
        selected.push_back(view);
        demand += view->spec->min_nodes;
      }
      Allocation target(n);
      if (!selected.empty()) {
        std::vector<GoodputJob> jobs;
        for (const FleetJobView* view : selected) {
          jobs.push_back(
              {view->spec->workload, view->gns, view->spec->min_nodes});
        }
        const Allocation packed = pack(cluster_, jobs, pool);
        for (std::size_t i = 0; i < selected.size(); ++i) {
          target.assign(selected[i]->id,
                        packed.nodes_of(static_cast<JobId>(i)));
        }
      }
      for (JobId id : pinned) target.assign(id, state.current->nodes_of(id));

      std::vector<JobId> evicted;
      double current_goodput = 0.0, target_goodput = 0.0, loss = 0.0;
      for (const auto& view : state.jobs) {
        const auto current_nodes = state.current->nodes_of(view.id);
        const auto target_nodes = target.nodes_of(view.id);
        const GoodputJob job{view.spec->workload, view.gns,
                             view.spec->min_nodes};
        const double gp_current =
            estimated_goodput(cluster_, job, current_nodes);
        current_goodput += gp_current;
        target_goodput += estimated_goodput(cluster_, job, target_nodes);
        if (!current_nodes.empty() && target_nodes.empty()) {
          evicted.push_back(view.id);
          loss += gp_current * state.preemption_cost_seconds;
        }
      }
      if (evicted.empty()) return target;
      if (options_.allow_preemption &&
          (target_goodput - current_goodput) *
                  options_.preemption_horizon_seconds >
              loss) {
        return target;
      }
      pinned.insert(pinned.end(), evicted.begin(), evicted.end());
    }
    return *state.current;
  }

  sim::ClusterSpec cluster_;
  GoodputGreedyOptions options_;
};

}  // namespace cannikin::sched::reference
