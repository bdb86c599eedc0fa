#include "sched/policy.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>

#include "core/goodput.h"
#include "core/optperf.h"
#include "sim/gpu.h"
#include "sim/network.h"

namespace cannikin::sched {

void JobSpec::validate() const {
  if (workload == nullptr) {
    throw std::invalid_argument("JobSpec: null workload");
  }
  if (min_nodes < 1) {
    throw std::invalid_argument("JobSpec: min_nodes must be >= 1, got " +
                                std::to_string(min_nodes));
  }
  if (!(target_fraction > 0.0) || target_fraction > 1.0) {
    throw std::invalid_argument(
        "JobSpec: target_fraction must be in (0, 1], got " +
        std::to_string(target_fraction));
  }
  if (preferred_nodes < 0) {
    throw std::invalid_argument("JobSpec: preferred_nodes must be >= 0");
  }
  if (deadline_hint_seconds < 0.0) {
    throw std::invalid_argument("JobSpec: negative deadline hint");
  }
}

const FleetJobView* FleetState::view_of(JobId id) const {
  for (const auto& view : jobs) {
    if (view.id == id) return &view;
  }
  return nullptr;
}

Allocation SchedulingPolicy::on_rebalance_tick(const FleetState& state) {
  return *state.current;
}

// ---------------------------------------------------------------- FIFO

FifoPolicy::FifoPolicy(int default_job_nodes)
    : default_job_nodes_(default_job_nodes) {
  if (default_job_nodes_ < 1) {
    throw std::invalid_argument("FifoPolicy: default_job_nodes must be >= 1");
  }
}

Allocation FifoPolicy::fill(const FleetState& state) const {
  Allocation target = *state.current;  // running jobs are never touched
  std::vector<int> free = target.free_nodes();
  for (const auto& view : state.jobs) {  // arrival order
    if (target.size_of(view.id) > 0) continue;  // running
    int want = view.spec->preferred_nodes > 0 ? view.spec->preferred_nodes
                                              : default_job_nodes_;
    want = std::max(want, view.spec->min_nodes);
    want = std::min(want, state.cluster->size());
    if (static_cast<int>(free.size()) < want) break;  // head-of-line block
    target.assign(view.id,
                  {free.begin(), free.begin() + static_cast<long>(want)});
    free.erase(free.begin(), free.begin() + static_cast<long>(want));
  }
  return target;
}

Allocation FifoPolicy::on_job_arrival(const FleetState& state, JobId) {
  return fill(state);
}

Allocation FifoPolicy::on_job_finish(const FleetState& state, JobId) {
  return fill(state);
}

// ---------------------------------------------- static partitions

StaticPartitionPolicy::StaticPartitionPolicy(int num_nodes,
                                             int num_partitions) {
  if (num_nodes < 1 || num_partitions < 1 || num_partitions > num_nodes) {
    throw std::invalid_argument(
        "StaticPartitionPolicy: need 1 <= num_partitions <= num_nodes");
  }
  partitions_.resize(static_cast<std::size_t>(num_partitions));
  for (int node = 0; node < num_nodes; ++node) {
    partitions_[static_cast<std::size_t>(node * num_partitions / num_nodes)]
        .push_back(node);
  }
}

Allocation StaticPartitionPolicy::fill(const FleetState& state) const {
  Allocation target = *state.current;
  for (const auto& view : state.jobs) {  // arrival order
    if (target.size_of(view.id) > 0) continue;  // running
    bool placed = false;
    for (const auto& partition : partitions_) {
      if (static_cast<int>(partition.size()) < view.spec->min_nodes) continue;
      const bool all_free =
          std::all_of(partition.begin(), partition.end(), [&](int node) {
            return target.job_of(node) == kNoJob;
          });
      if (!all_free) continue;
      target.assign(view.id, partition);
      placed = true;
      break;
    }
    if (!placed) break;  // FIFO on partitions: queue behind the head
  }
  return target;
}

Allocation StaticPartitionPolicy::on_job_arrival(const FleetState& state,
                                                 JobId) {
  return fill(state);
}

Allocation StaticPartitionPolicy::on_job_finish(const FleetState& state,
                                                JobId) {
  return fill(state);
}

// ------------------------------------------------- goodput-greedy

// Goodput estimates of one policy decision, keyed by (job, node-type
// mix). A mix is a vector of per-type node counts interned to a dense
// id, and grow() remembers "mix plus one node of type t", so once a mix
// has been seen a greedy probe costs two array reads. Jobs with equal
// (workload, gns) share one column of estimates.
class GoodputGreedyPolicy::GoodputTable {
 public:
  static constexpr int kEmptyMix = 0;

  GoodputTable(const GoodputGreedyPolicy& policy, std::vector<GoodputJob> jobs)
      : policy_(policy),
        num_types_(static_cast<std::size_t>(policy.num_node_types())),
        jobs_(std::move(jobs)) {
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const GoodputJob& job = jobs_[i];
      if (job.workload == nullptr) {
        throw std::invalid_argument("GoodputGreedyPolicy: null workload");
      }
      std::size_t column = 0;
      while (column < column_job_.size() &&
             !(jobs_[column_job_[column]].workload == job.workload &&
               jobs_[column_job_[column]].gns == job.gns)) {
        ++column;
      }
      if (column == column_job_.size()) column_job_.push_back(i);
      column_of_.push_back(column);
    }
    intern(std::vector<int>(num_types_, 0));  // kEmptyMix
  }

  const GoodputJob& job(std::size_t i) const { return jobs_[i]; }

  int mix_of(const std::vector<int>& nodes) {
    std::vector<int> counts(num_types_, 0);
    for (int node : nodes) {
      ++counts[static_cast<std::size_t>(policy_.node_type(node))];
    }
    return intern(std::move(counts));
  }

  int grow(int mix, int node) {
    const auto type = static_cast<std::size_t>(policy_.node_type(node));
    const std::size_t slot = static_cast<std::size_t>(mix) * num_types_ + type;
    if (grown_[slot] < 0) {
      std::vector<int> counts = *mixes_[static_cast<std::size_t>(mix)];
      ++counts[type];
      const int grown = intern(std::move(counts));  // may resize grown_
      grown_[slot] = grown;
    }
    return grown_[slot];
  }

  double goodput(std::size_t job, int mix) {
    const std::size_t column = column_of_[job];
    double& value =
        values_[static_cast<std::size_t>(mix) * column_job_.size() + column];
    if (value < 0.0) {
      value = estimate(jobs_[column_job_[column]],
                       *mixes_[static_cast<std::size_t>(mix)]);
    }
    return value;
  }

 private:
  int intern(std::vector<int> counts) {
    const auto [it, inserted] =
        ids_.emplace(std::move(counts), static_cast<int>(mixes_.size()));
    if (inserted) {
      mixes_.push_back(&it->first);
      grown_.resize(grown_.size() + num_types_, -1);
      values_.resize(values_.size() + column_job_.size(), -1.0);
    }
    return it->second;
  }

  // The full pipeline: per-node models, comm schedule, OptPerf solve of
  // every batch candidate. Models go in type order; OptPerfSolver sorts
  // nodes by threshold, and its sums then run over the same values
  // whatever order the subset came in.
  double estimate(const GoodputJob& job, const std::vector<int>& counts) const {
    const workloads::Workload& workload = *job.workload;
    std::vector<core::NodeModel> models;
    for (std::size_t type = 0; type < num_types_; ++type) {
      if (counts[type] == 0) continue;
      const sim::NodeTruth truth = sim::derive_node_truth(
          policy_.cluster_.nodes[static_cast<std::size_t>(
              policy_.type_node_[type])],
          workload.profile);
      const core::NodeModel model{truth.q, truth.s, truth.k, truth.m,
                                  static_cast<double>(truth.max_local_batch)};
      models.insert(models.end(), static_cast<std::size_t>(counts[type]),
                    model);
    }
    if (models.empty()) return 0.0;
    const int nodes = static_cast<int>(models.size());
    const auto schedule = sim::make_comm_schedule(
        policy_.cluster_.network, workload.profile.gradient_bytes,
        workload.profile.bucket_bytes, nodes);
    const core::OptPerfSolver solver(
        std::move(models),
        {workload.profile.gamma, schedule.t_other, schedule.t_last});

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

  const GoodputGreedyPolicy& policy_;
  std::size_t num_types_;
  std::vector<GoodputJob> jobs_;
  std::vector<std::size_t> column_of_;   ///< job -> column
  std::vector<std::size_t> column_job_;  ///< column -> first job using it
  std::map<std::vector<int>, int> ids_;  ///< type counts -> mix id
  std::vector<const std::vector<int>*> mixes_;  ///< mix id -> type counts
  std::vector<int> grown_;      ///< mix * types + type -> mix id, -1 unknown
  std::vector<double> values_;  ///< mix * columns + column, -1 unknown
};

GoodputGreedyPolicy::GoodputGreedyPolicy(sim::ClusterSpec cluster,
                                         GoodputGreedyOptions options)
    : cluster_(std::move(cluster)), options_(options) {
  if (cluster_.nodes.empty()) {
    throw std::invalid_argument("GoodputGreedyPolicy: empty cluster");
  }
  if (options_.max_concurrent < 0) {
    throw std::invalid_argument(
        "GoodputGreedyPolicy: max_concurrent must be >= 0");
  }
  if (options_.preemption_horizon_seconds <= 0.0) {
    throw std::invalid_argument(
        "GoodputGreedyPolicy: preemption horizon must be positive");
  }
  for (int node = 0; node < cluster_.size(); ++node) {
    const sim::NodeSpec& spec = cluster_.nodes[static_cast<std::size_t>(node)];
    const auto same_type = [&](int other) {
      const sim::NodeSpec& rep = cluster_.nodes[static_cast<std::size_t>(other)];
      return rep.gpu == spec.gpu && rep.contention == spec.contention &&
             rep.host_speed == spec.host_speed;
    };
    const auto type = static_cast<int>(
        std::find_if(type_node_.begin(), type_node_.end(), same_type) -
        type_node_.begin());
    if (type == num_node_types()) type_node_.push_back(node);
    type_of_.push_back(type);
    speed_.push_back(sim::gpu_spec(spec.gpu).relative_speed * spec.contention);
  }
}

double GoodputGreedyPolicy::estimated_goodput(
    const GoodputJob& job, const std::vector<int>& node_ids) const {
  GoodputTable table(*this, {job});
  return table.goodput(0, table.mix_of(node_ids));
}

Allocation GoodputGreedyPolicy::pack(const std::vector<GoodputJob>& jobs,
                                     const std::vector<int>& node_ids) const {
  GoodputTable table(*this, jobs);
  std::vector<std::size_t> picks(jobs.size());
  std::iota(picks.begin(), picks.end(), 0);
  return pack(table, picks, node_ids);
}

Allocation GoodputGreedyPolicy::pack(GoodputTable& table,
                                     const std::vector<std::size_t>& picks,
                                     std::vector<int> pool) const {
  Allocation allocation(cluster_.size());
  if (picks.empty()) return allocation;

  int demand = 0;
  for (std::size_t pick : picks) {
    const int min_nodes = table.job(pick).min_nodes;
    if (min_nodes < 1) {
      throw std::invalid_argument("pack: min_nodes must be >= 1, got " +
                                  std::to_string(min_nodes));
    }
    demand += min_nodes;
  }

  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  for (int id : pool) {
    if (id < 0 || id >= cluster_.size()) {
      throw std::invalid_argument("pack: bad node id " + std::to_string(id));
    }
  }
  if (demand > static_cast<int>(pool.size())) {
    throw std::invalid_argument(
        "pack: min_nodes demand (" + std::to_string(demand) +
        ") exceeds available nodes (" + std::to_string(pool.size()) +
        "); the policy must cap its runnable set first");
  }

  // Nodes ordered fastest-first so the seeding round hands each job a
  // strong anchor node.
  std::sort(pool.begin(), pool.end(), [&](int lhs, int rhs) {
    const double ls = speed_[static_cast<std::size_t>(lhs)];
    const double rs = speed_[static_cast<std::size_t>(rhs)];
    if (ls != rs) return ls > rs;
    return lhs < rhs;  // deterministic tie-break
  });

  const std::size_t jobs = picks.size();
  std::vector<std::vector<int>> assigned(jobs);
  std::vector<int> mix(jobs, GoodputTable::kEmptyMix);  // of assigned[job]
  std::size_t cursor = 0;

  // Seeding: round-robin until every job has its min_nodes.
  for (std::size_t job = 0; job < jobs; ++job) {
    while (static_cast<int>(assigned[job].size()) <
               table.job(picks[job]).min_nodes &&
           cursor < pool.size()) {
      const int node = pool[cursor++];
      assigned[job].push_back(node);
      mix[job] = table.grow(mix[job], node);
    }
  }

  // Baseline goodputs for normalization (Pollux's speedup objective).
  std::vector<double> base(jobs);
  std::vector<double> current(jobs);
  for (std::size_t job = 0; job < jobs; ++job) {
    base[job] = std::max(table.goodput(picks[job], mix[job]), 1e-12);
    current[job] = base[job];
  }

  // Greedy marginal assignment of the remaining nodes.
  for (; cursor < pool.size(); ++cursor) {
    const int node = pool[cursor];
    double best_gain = -std::numeric_limits<double>::infinity();
    std::size_t best_job = 0;
    int best_mix = GoodputTable::kEmptyMix;
    double best_goodput = 0.0;
    for (std::size_t job = 0; job < jobs; ++job) {
      const int probe = table.grow(mix[job], node);
      const double with_node = table.goodput(picks[job], probe);
      const double gain = (with_node - current[job]) / base[job];
      if (gain > best_gain) {
        best_gain = gain;
        best_job = job;
        best_mix = probe;
        best_goodput = with_node;
      }
    }
    assigned[best_job].push_back(node);
    mix[best_job] = best_mix;
    current[best_job] = best_goodput;
  }

  for (std::size_t job = 0; job < jobs; ++job) {
    allocation.assign(static_cast<JobId>(job), assigned[job]);
  }
  return allocation;
}

Allocation GoodputGreedyPolicy::repack(const FleetState& state) const {
  const int n = state.cluster->size();

  // One goodput table per decision; job i of the table is state.jobs[i].
  std::vector<GoodputJob> jobs;
  jobs.reserve(state.jobs.size());
  for (const auto& view : state.jobs) {
    jobs.push_back({view.spec->workload, view.gns, view.spec->min_nodes});
  }
  GoodputTable table(*this, std::move(jobs));

  // Runnable ordering: priority desc, then arrival (state.jobs is in
  // arrival order, so a stable sort on priority alone preserves it).
  std::vector<std::size_t> ordered(state.jobs.size());
  std::iota(ordered.begin(), ordered.end(), 0);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](std::size_t lhs, std::size_t rhs) {
                     return state.jobs[lhs].spec->priority >
                            state.jobs[rhs].spec->priority;
                   });

  std::vector<JobId> pinned;  // evicted-but-not-worth-it: keep their nodes
  const auto is_pinned = [&](JobId id) {
    return std::find(pinned.begin(), pinned.end(), id) != pinned.end();
  };

  // Each round either returns or pins at least one more job, so the
  // loop is bounded by the job count.
  for (std::size_t round = 0; round <= state.jobs.size(); ++round) {
    // Nodes not locked under pinned jobs.
    std::vector<int> pool;
    for (int node = 0; node < n; ++node) {
      const JobId owner = state.current->job_of(node);
      if (owner == kNoJob || !is_pinned(owner)) pool.push_back(node);
    }

    // Best-effort selection: take jobs in order while their min_nodes
    // demand still fits (jobs that do not fit are skipped, not
    // head-of-line blockers -- elastic packing backfills).
    std::vector<std::size_t> selected;
    int demand = 0;
    for (std::size_t i : ordered) {
      const FleetJobView& view = state.jobs[i];
      if (is_pinned(view.id)) continue;
      if (options_.max_concurrent > 0 &&
          static_cast<int>(pinned.size() + selected.size()) >=
              options_.max_concurrent) {
        break;
      }
      if (demand + view.spec->min_nodes > static_cast<int>(pool.size())) {
        continue;
      }
      selected.push_back(i);
      demand += view.spec->min_nodes;
    }

    Allocation target(n);
    if (!selected.empty()) {
      const Allocation packed = pack(table, selected, std::move(pool));
      for (std::size_t i = 0; i < selected.size(); ++i) {
        target.assign(state.jobs[selected[i]].id,
                      packed.nodes_of(static_cast<JobId>(i)));
      }
    }
    for (JobId id : pinned) target.assign(id, state.current->nodes_of(id));

    // Preemption guard: evicting a running job forfeits its goodput for
    // the checkpoint-restore window. Preempt only when the repack's
    // fleet-goodput gain, credited over the horizon, pays for it.
    std::vector<JobId> evicted;
    double current_goodput = 0.0, target_goodput = 0.0, loss = 0.0;
    for (std::size_t i = 0; i < state.jobs.size(); ++i) {
      const JobId id = state.jobs[i].id;
      const auto current_nodes = state.current->nodes_of(id);
      const auto target_nodes = target.nodes_of(id);
      const double gp_current = table.goodput(i, table.mix_of(current_nodes));
      current_goodput += gp_current;
      target_goodput += table.goodput(i, table.mix_of(target_nodes));
      if (!current_nodes.empty() && target_nodes.empty()) {
        evicted.push_back(id);
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
  return *state.current;  // fixpoint guard; unreachable in practice
}

Allocation GoodputGreedyPolicy::on_job_arrival(const FleetState& state,
                                               JobId) {
  return repack(state);
}

Allocation GoodputGreedyPolicy::on_job_finish(const FleetState& state,
                                              JobId) {
  return repack(state);
}

Allocation GoodputGreedyPolicy::on_rebalance_tick(const FleetState& state) {
  return repack(state);
}

}  // namespace cannikin::sched
