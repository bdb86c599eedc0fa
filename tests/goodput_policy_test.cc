// GoodputGreedyPolicy's per-decision goodput table: the node-type
// invariant it relies on (a goodput estimate depends only on how many
// nodes of each type a subset holds) and decision parity with the
// uncached reference procedure over random fleet snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "goodput_reference.h"
#include "sched/policy.h"
#include "sim/cluster_factory.h"
#include "workloads/registry.h"

namespace cannikin::sched {
namespace {

/// `copies` copies of cluster B with distinct host names.
sim::ClusterSpec cluster_b_pool(int copies) {
  const sim::ClusterSpec b = sim::cluster_b();
  sim::ClusterSpec pool = b;
  pool.nodes.clear();
  for (int c = 0; c < copies; ++c) {
    for (sim::NodeSpec node : b.nodes) {
      node.host += "-c" + std::to_string(c);
      pool.nodes.push_back(node);
    }
  }
  return pool;
}

struct NamedCluster {
  std::string name;
  sim::ClusterSpec cluster;
  int types;
};

std::vector<NamedCluster> clusters() {
  return {{"A", sim::cluster_a(), 3},
          {"B", sim::cluster_b(), 3},
          {"6xB", cluster_b_pool(6), 3},
          {"C", sim::cluster_c(), 4}};
}

const std::vector<const workloads::Workload*>& catalog() {
  static const std::vector<const workloads::Workload*> workloads{
      &workloads::by_name("cifar10"), &workloads::by_name("movielens"),
      &workloads::by_name("imagenet")};
  return workloads;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(GoodputNodeTypes, SameTypeExactlyWhenGpuContentionAndHostSpeedMatch) {
  for (const auto& [name, cluster, types] : clusters()) {
    const GoodputGreedyPolicy policy(cluster);
    EXPECT_EQ(policy.num_node_types(), types) << name;
    for (int a = 0; a < cluster.size(); ++a) {
      for (int b = 0; b < cluster.size(); ++b) {
        const auto& x = cluster.nodes[static_cast<std::size_t>(a)];
        const auto& y = cluster.nodes[static_cast<std::size_t>(b)];
        const bool same = x.gpu == y.gpu && x.contention == y.contention &&
                          x.host_speed == y.host_speed;
        ASSERT_EQ(policy.node_type(a) == policy.node_type(b), same)
            << name << " nodes " << a << ", " << b;
      }
    }
  }
  // Differing in one field alone is enough for a new type.
  sim::ClusterSpec cluster = sim::cluster_a();
  const sim::NodeSpec base = cluster.nodes[0];
  cluster.nodes = {base, base, base, base};
  cluster.nodes[1].gpu = sim::GpuModel::kV100;
  cluster.nodes[2].contention = 0.5;
  cluster.nodes[3].host_speed = 0.5;
  EXPECT_EQ(GoodputGreedyPolicy(cluster).num_node_types(), 4);
}

TEST(GoodputNodeTypes, EstimateIsBitwiseInvariantUnderPermutationAndSwap) {
  Rng rng(2024);
  for (const auto& [name, cluster, types] : clusters()) {
    const GoodputGreedyPolicy policy(cluster);
    const int n = cluster.size();
    for (int trial = 0; trial < 40; ++trial) {
      const GoodputJob job{
          catalog()[static_cast<std::size_t>(rng.uniform_int(0, 2))],
          rng.uniform(0.0, 8000.0), 1};
      std::vector<int> all(static_cast<std::size_t>(n));
      for (int node = 0; node < n; ++node) all[static_cast<std::size_t>(node)] = node;
      rng.shuffle(all);
      const auto size = static_cast<std::size_t>(rng.uniform_int(1, n));
      std::vector<int> subset(all.begin(), all.begin() + static_cast<long>(size));

      const double expected = reference::estimated_goodput(cluster, job, subset);
      ASSERT_EQ(bits(policy.estimated_goodput(job, subset)), bits(expected))
          << name << " trial " << trial;

      std::vector<int> permuted = subset;
      rng.shuffle(permuted);
      ASSERT_EQ(bits(reference::estimated_goodput(cluster, job, permuted)),
                bits(expected))
          << name << " permuted, trial " << trial;

      // Swap each member for an outside node of the same type, if any.
      std::vector<int> swapped = subset;
      for (int& member : swapped) {
        for (std::size_t i = size; i < all.size(); ++i) {
          if (policy.node_type(all[i]) == policy.node_type(member)) {
            std::swap(member, all[i]);
            break;
          }
        }
      }
      ASSERT_EQ(bits(reference::estimated_goodput(cluster, job, swapped)),
                bits(expected))
          << name << " swapped, trial " << trial;
      ASSERT_EQ(bits(policy.estimated_goodput(job, swapped)), bits(expected))
          << name << " swapped, trial " << trial;
    }
  }
}

TEST(GoodputNodeTypes, EstimateValidatesItsInputs) {
  const GoodputGreedyPolicy policy(sim::cluster_a());
  EXPECT_THROW(policy.estimated_goodput({nullptr, 100.0, 1}, {0}),
               std::invalid_argument);
  EXPECT_THROW(
      policy.estimated_goodput({&workloads::by_name("cifar10"), 100.0, 1}, {7}),
      std::out_of_range);
}

// A random fleet snapshot: some jobs running on random node sets, the
// rest queued, with random priorities, min_nodes and GNS.
struct RandomFleet {
  std::vector<JobSpec> specs;
  Allocation current;
  FleetState state;
};

void fill_random_fleet(Rng& rng, const sim::ClusterSpec& cluster,
                       RandomFleet* fleet) {
  const int n = cluster.size();
  const int jobs = static_cast<int>(rng.uniform_int(1, 10));
  fleet->specs.assign(static_cast<std::size_t>(jobs), JobSpec{});
  fleet->current = Allocation(n);
  std::vector<int> free(static_cast<std::size_t>(n));
  for (int node = 0; node < n; ++node) free[static_cast<std::size_t>(node)] = node;
  rng.shuffle(free);

  fleet->state = FleetState{};
  fleet->state.cluster = &cluster;
  fleet->state.current = &fleet->current;
  fleet->state.now = rng.uniform(0.0, 5000.0);
  fleet->state.preemption_cost_seconds = rng.uniform(0.0, 120.0);
  for (int i = 0; i < jobs; ++i) {
    JobSpec& spec = fleet->specs[static_cast<std::size_t>(i)];
    spec.workload = catalog()[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    spec.priority = static_cast<int>(rng.uniform_int(0, 2));
    spec.min_nodes = static_cast<int>(rng.uniform_int(1, 3));
    FleetJobView view;
    view.id = 3 * i + 1;  // ids need not be dense
    view.spec = &spec;
    view.arrival_time = i;
    const bool running = !free.empty() && rng.bernoulli(0.5);
    if (running) {
      const auto take = static_cast<std::size_t>(rng.uniform_int(
          1, std::min<std::int64_t>(6, static_cast<std::int64_t>(free.size()))));
      fleet->current.assign(view.id, {free.end() - static_cast<long>(take),
                                      free.end()});
      free.resize(free.size() - take);
      view.started = true;
      view.progress = rng.uniform(0.0, 0.9);
      view.epochs = static_cast<int>(rng.uniform_int(1, 50));
    }
    // Queued jobs that never ran have GNS 0; jobs of one workload
    // sometimes share a GNS, as the table's columns do.
    view.gns = view.started || rng.bernoulli(0.3)
                   ? static_cast<double>(rng.uniform_int(1, 4)) * 1500.0
                   : 0.0;
    fleet->state.jobs.push_back(view);
  }
}

TEST(GoodputParity, RandomSnapshotsDecideLikeTheUncachedReference) {
  const std::vector<NamedCluster> pools{
      {"B", sim::cluster_b(), 3},
      {"3xB", cluster_b_pool(3), 3},
      {"C", sim::cluster_c(), 4}};
  Rng rng(77);
  int decisions = 0, preempting = 0, unchanged = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const NamedCluster& pool = pools[static_cast<std::size_t>(trial) % pools.size()];
    GoodputGreedyOptions options;
    options.max_concurrent = rng.bernoulli(0.3)
                                 ? static_cast<int>(rng.uniform_int(1, 4))
                                 : 0;
    options.preemption_horizon_seconds = rng.uniform(10.0, 1200.0);
    options.allow_preemption = rng.bernoulli(0.8);
    GoodputGreedyPolicy policy(pool.cluster, options);
    reference::UncachedGoodputPolicy expected(pool.cluster, options);

    RandomFleet fleet;
    fill_random_fleet(rng, pool.cluster, &fleet);
    const FleetState& state = fleet.state;
    const JobId some_job = state.jobs.front().id;

    const Allocation arrival = policy.on_job_arrival(state, some_job);
    ASSERT_EQ(arrival, expected.on_job_arrival(state, some_job))
        << pool.name << " trial " << trial << ": " << arrival.to_string();
    ASSERT_EQ(policy.on_job_finish(state, some_job),
              expected.on_job_finish(state, some_job))
        << pool.name << " trial " << trial;
    ASSERT_EQ(policy.on_rebalance_tick(state),
              expected.on_rebalance_tick(state))
        << pool.name << " trial " << trial;
    ++decisions;
    if (arrival == fleet.current) ++unchanged;
    for (const auto& view : state.jobs) {
      if (fleet.current.size_of(view.id) > 0 && arrival.size_of(view.id) == 0) {
        ++preempting;
        break;
      }
    }
  }
  EXPECT_EQ(decisions, 300);
  // The snapshots exercise both sides of the preemption guard.
  EXPECT_GT(preempting, 0);
  EXPECT_LT(unchanged + preempting, decisions);
}

}  // namespace
}  // namespace cannikin::sched
