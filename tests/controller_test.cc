// Tests for the CannikinController epoch workflow (Sections 4.1 / 4.5):
// even start, Eq. (8) bootstrap, switch to model-driven OptPerf plans,
// OptPerf_init caching with warm-started overlap search, fixed-batch
// mode, and GNS-driven batch growth.
#include <gtest/gtest.h>

#include "core/controller.h"
#include "sim/cluster_factory.h"
#include "workloads/registry.h"

namespace cannikin::core {
namespace {

sim::ClusterJob make_job() {
  return sim::ClusterJob(sim::cluster_a(),
                         workloads::by_name("cifar10").profile,
                         sim::NoiseConfig::none(), 1);
}

ControllerOptions options_for(const sim::ClusterJob& job, bool adaptive) {
  ControllerOptions options;
  options.initial_total_batch = 64;
  options.max_total_batch = 2048;
  options.adaptive_batch = adaptive;
  (void)job;
  return options;
}

std::vector<double> caps_of(const sim::ClusterJob& job) {
  std::vector<double> caps;
  for (int i = 0; i < job.size(); ++i) caps.push_back(job.max_local_batch(i));
  return caps;
}

void feed_epoch(CannikinController& controller, sim::ClusterJob& job,
                const std::vector<int>& batches, int accumulation_steps = 1) {
  const auto obs = job.run_epoch(batches, 4, accumulation_steps);
  std::vector<int> b;
  std::vector<double> a, p, g, to, tu;
  for (const auto& node : obs.nodes) {
    b.push_back(node.local_batch);
    a.push_back(node.a);
    p.push_back(node.p);
    g.push_back(node.gamma);
    to.push_back(node.t_other);
    tu.push_back(node.t_last);
  }
  controller.observe_epoch(b, a, p, g, to, tu);
}

TEST(Controller, FirstEpochIsEvenSplitAtInitialBatch) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, true));
  const auto plan = controller.plan_epoch();
  EXPECT_EQ(plan.epoch, 0);
  EXPECT_EQ(plan.total_batch, 64);
  EXPECT_FALSE(plan.from_model);
  int total = 0;
  for (int b : plan.local_batches) {
    EXPECT_NEAR(b, 64 / 3, 1.0);
    total += b;
  }
  EXPECT_EQ(total, 64);
}

TEST(Controller, SecondEpochUsesEq8Bootstrap) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, true));
  const auto first = controller.plan_epoch();
  feed_epoch(controller, job, first.local_batches);

  const auto second = controller.plan_epoch();
  EXPECT_FALSE(second.from_model);
  EXPECT_EQ(second.total_batch, 64);
  // Eq. (8): faster nodes (a5000 > a4000 > p4000) get larger batches.
  EXPECT_GT(second.local_batches[0], second.local_batches[1]);
  EXPECT_GT(second.local_batches[1], second.local_batches[2]);
}

TEST(Controller, SwitchesToModelAfterTwoDistinctBatchSizes) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, true));
  for (int epoch = 0; epoch < 2; ++epoch) {
    feed_epoch(controller, job, controller.plan_epoch().local_batches);
  }
  EXPECT_TRUE(controller.model_ready());
  const auto plan = controller.plan_epoch();
  EXPECT_TRUE(plan.from_model);
  EXPECT_TRUE(plan.cache_rebuilt);  // first model epoch builds OptPerf_init
  EXPECT_GT(plan.predicted_batch_time, 0.0);
  EXPECT_GT(plan.linear_solves, 0);
}

TEST(Controller, LaterEpochsReuseCacheWithoutRebuild) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, true));
  controller.update_gns_value(100.0);
  for (int epoch = 0; epoch < 3; ++epoch) {
    feed_epoch(controller, job, controller.plan_epoch().local_batches);
  }
  // Stationary GNS: the overlap state should not flip, so no rebuild.
  const auto plan = controller.plan_epoch();
  EXPECT_TRUE(plan.from_model);
  EXPECT_FALSE(plan.cache_rebuilt);
}

TEST(Controller, GnsGrowthIncreasesChosenBatch) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, true));
  controller.update_gns_value(50.0);
  for (int epoch = 0; epoch < 2; ++epoch) {
    feed_epoch(controller, job, controller.plan_epoch().local_batches);
  }
  const auto early = controller.plan_epoch();
  feed_epoch(controller, job, early.local_batches);

  for (int i = 0; i < 30; ++i) controller.update_gns_value(50000.0);
  const auto late = controller.plan_epoch();
  EXPECT_GT(late.total_batch, early.total_batch);
}

TEST(Controller, FixedModeKeepsTotalBatchButOptimizesSplit) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, false));
  std::vector<int> last;
  for (int epoch = 0; epoch < 4; ++epoch) {
    const auto plan = controller.plan_epoch();
    EXPECT_EQ(plan.total_batch, 64);
    feed_epoch(controller, job, plan.local_batches);
    last = plan.local_batches;
  }
  // Model-driven: the fast a5000 should now carry the largest share.
  EXPECT_GT(last[0], last[2]);
}

TEST(Controller, PlansAlwaysSumToTotalBatch) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, true));
  controller.update_gns_value(1000.0);
  for (int epoch = 0; epoch < 10; ++epoch) {
    const auto plan = controller.plan_epoch();
    int total = 0;
    for (int b : plan.local_batches) total += b;
    EXPECT_EQ(total, plan.total_batch) << "epoch " << epoch;
    feed_epoch(controller, job, plan.local_batches);
  }
}

TEST(Controller, NoisyThousandRankPlansStayFeasibleAndCheap) {
  // As bench/disc_scaling plans: a 1,000-rank two-speed cluster whose
  // models are learned from 4 noisy batches per epoch. Such models push
  // OptPerf probes below 0 and above caps at once; every candidate must
  // still be planned by Algorithm 1's few closed-form solves rather than
  // an O(n) scan of all boundaries.
  constexpr int kRanks = 1000;
  const auto& workload = workloads::by_name("cifar10");
  sim::ClusterJob job(sim::two_speed_cluster(kRanks, 2.0), workload.profile,
                      sim::NoiseConfig{}, 17);
  ControllerOptions options;
  options.initial_total_batch = workload.b0;
  options.max_total_batch = workload.max_total_batch;
  const auto caps = caps_of(job);
  CannikinController controller(kRanks, caps, options);
  int model_plans = 0;
  for (int epoch = 0; epoch < 6; ++epoch) {
    const auto plan = controller.plan_epoch();
    if (plan.from_model) {
      ++model_plans;
      SCOPED_TRACE("epoch " + std::to_string(epoch));
      int sum = 0;
      for (std::size_t i = 0; i < plan.local_batches.size(); ++i) {
        EXPECT_GE(plan.local_batches[i], 0);
        EXPECT_LE(plan.local_batches[i], caps[i]);
        sum += plan.local_batches[i];
      }
      EXPECT_EQ(sum * plan.accumulation_steps, plan.total_batch);
      EXPECT_LT(plan.linear_solves, kRanks);
    }
    controller.update_gns_value(static_cast<double>(plan.total_batch));
    feed_epoch(controller, job, plan.local_batches, plan.accumulation_steps);
  }
  EXPECT_EQ(model_plans, 4);
}

TEST(Controller, LearnedModelsApproachTruth) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, true));
  for (int epoch = 0; epoch < 6; ++epoch) {
    feed_epoch(controller, job, controller.plan_epoch().local_batches);
  }
  const auto models = controller.learned_models();
  const auto comm = controller.learned_comm();
  ASSERT_TRUE(models && comm);
  for (int i = 0; i < 3; ++i) {
    const auto& truth = job.truth(i);
    const auto& learned = (*models)[static_cast<std::size_t>(i)];
    EXPECT_NEAR(learned.q + learned.k, truth.q + truth.k,
                0.05 * (truth.q + truth.k));
  }
  EXPECT_NEAR(comm->gamma, job.gamma(), 1e-9);
  EXPECT_NEAR(comm->t_other, job.comm().t_other, 1e-9);
}

TEST(Controller, Validation) {
  ControllerOptions bad;
  bad.initial_total_batch = 0;
  bad.max_total_batch = 10;
  EXPECT_THROW(CannikinController(2, {10.0, 10.0}, bad),
               std::invalid_argument);
  ControllerOptions good;
  good.initial_total_batch = 16;
  good.max_total_batch = 64;
  EXPECT_THROW(CannikinController(0, {}, good), std::invalid_argument);
  EXPECT_THROW(CannikinController(2, {10.0}, good), std::invalid_argument);
}

TEST(Controller, ObserveEpochRejectsMismatchedVectors) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, true));
  const std::vector<int> b{20, 20, 20};
  const std::vector<double> ok{0.1, 0.1, 0.1};
  const std::vector<double> shorter{0.1, 0.1};
  // Every per-node vector must have exactly num_nodes entries; a length
  // mismatch is a caller bug (e.g. feeding a shrunken allocation's
  // observations to a stale controller) and must fail loudly instead of
  // silently corrupting the learners.
  EXPECT_THROW(controller.observe_epoch({20, 20}, ok, ok, ok, ok, ok),
               std::invalid_argument);
  EXPECT_THROW(controller.observe_epoch(b, shorter, ok, ok, ok, ok),
               std::invalid_argument);
  EXPECT_THROW(controller.observe_epoch(b, ok, shorter, ok, ok, ok),
               std::invalid_argument);
  EXPECT_THROW(controller.observe_epoch(b, ok, ok, shorter, ok, ok),
               std::invalid_argument);
  EXPECT_THROW(controller.observe_epoch(b, ok, ok, ok, shorter, ok),
               std::invalid_argument);
  EXPECT_THROW(controller.observe_epoch(b, ok, ok, ok, ok, shorter),
               std::invalid_argument);
  // A valid observation still goes through afterwards.
  controller.observe_epoch(b, ok, ok, ok, ok, ok);
}

TEST(Controller, UpdateGnsRejectsBadNormVectors) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, true));
  EXPECT_THROW(controller.update_gns({}, {}, 1.0), std::invalid_argument);
  EXPECT_THROW(controller.update_gns({32.0, 32.0}, {1.0}, 1.0),
               std::invalid_argument);
  controller.update_gns({32.0, 32.0}, {1.0, 1.2}, 0.9);
}

}  // namespace
}  // namespace cannikin::core
