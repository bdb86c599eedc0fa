// Tests for the end-to-end AdaptiveTrainer: the Cannikin loop on real
// threads with measured timings and throttle-emulated heterogeneity.
#include <gtest/gtest.h>

#include <cmath>

#include "dnn/adaptive_trainer.h"
#include "dnn/zoo.h"

// TSan instrumentation slows threads down by a large, *nonuniform*
// factor, so assertions about learned wall-clock proportions are
// meaningless under it (the trainer still runs for race coverage).
#if defined(__SANITIZE_THREAD__)
#define CANNIKIN_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CANNIKIN_TSAN_BUILD 1
#endif
#endif

namespace cannikin::dnn {
namespace {

AdaptiveTrainerOptions base_options() {
  AdaptiveTrainerOptions options;
  options.num_nodes = 3;
  options.throttles = {1, 2, 4};  // a fast, a medium and a slow "GPU"
  options.initial_total_batch = 48;
  options.max_total_batch = 192;
  options.base_lr = 0.04;
  options.seed = 11;
  return options;
}

TEST(AdaptiveTrainer, LearnsThrottlesAndSkewsLocalBatches) {
  // A throttle repeats only the model's forward and backward kernels.
  // The per-sample gather, loss and accuracy run once per batch, and so
  // does the first pass over each batch's activations, which costs about
  // twice a repeat because communication and the optimizer step evict
  // them between batches. Those costs are real and the learned model
  // charges them, so per-sample times follow the throttles only when
  // the kernels dominate: with a 24-wide hidden layer the learned 4:1
  // ratio is about 2.5, with a 256-wide one about 3.5.
  const auto dataset = make_gaussian_mixture(3000, 16, 4, 2.5, 5);
  AdaptiveTrainer trainer(
      &dataset, [] { return make_mlp(16, 256, 1, 4); }, base_options());

  AdaptiveEpochReport report;
  for (int epoch = 0; epoch < 5; ++epoch) {
    report = trainer.run_epoch();
  }
  ASSERT_TRUE(report.planned_from_model);
#if !defined(CANNIKIN_TSAN_BUILD)
  // Throttles 1:2:4 -> worker 0 must carry the largest local batch and
  // worker 2 the smallest, learned purely from measured wall clock.
  EXPECT_GT(report.local_batches[0], report.local_batches[1]);
  EXPECT_GT(report.local_batches[1], report.local_batches[2]);
  // The learned per-sample compute times should roughly reflect 1:2:4.
  const auto models = trainer.controller().learned_models();
  ASSERT_TRUE(models.has_value());
  const double r10 = ((*models)[1].q + (*models)[1].k) /
                     ((*models)[0].q + (*models)[0].k);
  const double r20 = ((*models)[2].q + (*models)[2].k) /
                     ((*models)[0].q + (*models)[0].k);
  EXPECT_NEAR(r10, 2.0, 0.9);
  EXPECT_NEAR(r20, 4.0, 1.8);
#endif
}

TEST(AdaptiveTrainer, TrainsToGoodAccuracyWhileAdapting) {
  const auto dataset = make_gaussian_mixture(3000, 16, 4, 3.0, 6);
  AdaptiveTrainer trainer(
      &dataset, [] { return make_mlp(16, 24, 1, 4); }, base_options());
  for (int epoch = 0; epoch < 8; ++epoch) trainer.run_epoch();
  EXPECT_GT(trainer.evaluate_accuracy(dataset), 0.85);
  EXPECT_GE(trainer.controller().current_gns(), 0.0);
}

TEST(AdaptiveTrainer, EpochReportsAreCoherent) {
  const auto dataset = make_gaussian_mixture(1200, 12, 3, 2.5, 7);
  AdaptiveTrainerOptions options = base_options();
  options.num_nodes = 2;
  options.throttles = {1, 2};
  AdaptiveTrainer trainer(
      &dataset, [] { return make_mlp(12, 16, 1, 3); }, options);
  for (int epoch = 0; epoch < 4; ++epoch) {
    const auto report = trainer.run_epoch();
    EXPECT_EQ(report.epoch, epoch);
    int sum = 0;
    for (int b : report.local_batches) sum += b;
    EXPECT_EQ(sum, report.total_batch);
    EXPECT_GT(report.epoch_seconds, 0.0);
    EXPECT_TRUE(std::isfinite(report.mean_loss));
  }
}

TEST(AdaptiveTrainer, Validation) {
  const auto dataset = make_gaussian_mixture(100, 8, 2, 2.0, 8);
  auto factory = [] { return make_mlp(8, 8, 1, 2); };
  AdaptiveTrainerOptions options = base_options();
  options.throttles = {1, 2};  // wrong size for 3 nodes
  EXPECT_THROW(AdaptiveTrainer(&dataset, factory, options),
               std::invalid_argument);
  options.throttles = {1, 0, 2};
  EXPECT_THROW(AdaptiveTrainer(&dataset, factory, options),
               std::invalid_argument);
  options = base_options();
  EXPECT_THROW(AdaptiveTrainer(nullptr, factory, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace cannikin::dnn
