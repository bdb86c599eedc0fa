// Tests for the OptPerf solvers (Section 3.3, Algorithm 1).
//
// The strongest checks are solver-vs-ground-truth: the binary-search
// solver must (a) match the exhaustive boundary scan, (b) satisfy the
// optimality conditions of Appendices A.1-A.3, and (c) beat or match
// every feasible assignment drawn at random on the *event-level*
// simulator, not just on its own model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.h"
#include "core/optperf.h"
#include "sim/cluster.h"
#include "sim/cluster_factory.h"

namespace cannikin::core {
namespace {

std::vector<NodeModel> models_from_truth(const sim::ClusterJob& job) {
  std::vector<NodeModel> models;
  for (int i = 0; i < job.size(); ++i) {
    const auto& t = job.truth(i);
    NodeModel m;
    m.q = t.q;
    m.s = t.s;
    m.k = t.k;
    m.m = t.m;
    m.max_batch = t.max_local_batch;
    models.push_back(m);
  }
  return models;
}

CommTimes comm_from_truth(const sim::ClusterJob& job) {
  return {job.gamma(), job.comm().t_other, job.comm().t_last};
}

sim::JobProfile medium_job() {
  sim::JobProfile job;
  job.name = "medium";
  job.per_sample_forward = 1.2e-3;
  job.fixed_forward = 8e-3;
  job.per_sample_backward = 2.4e-3;
  job.fixed_backward = 2e-3;
  job.gradient_bytes = 100e6;
  job.gamma = 0.18;
  job.mem_bytes_per_sample = 2e7;
  return job;
}

// ------------------------------------------------- predicted_batch_time

TEST(PredictedBatchTime, MatchesSimulatorTruth) {
  sim::ClusterJob job(sim::cluster_a(), medium_job(),
                      sim::NoiseConfig::none(), 1);
  const auto models = models_from_truth(job);
  const auto comm = comm_from_truth(job);
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> batches;
    for (int i = 0; i < job.size(); ++i) {
      batches.push_back(rng.uniform(1.0, 200.0));
    }
    EXPECT_NEAR(predicted_batch_time(models, comm, batches),
                job.true_batch_time(batches), 1e-9);
  }
}

// -------------------------------------------------- optimality conditions

TEST(OptPerfSolver, ComputeBottleneckRegimeEqualizesComputeTimes) {
  // Large batch: everyone is computing-bottleneck (Appendix A.1).
  sim::ClusterJob job(sim::cluster_a(), medium_job(),
                      sim::NoiseConfig::none(), 1);
  OptPerfSolver solver(models_from_truth(job), comm_from_truth(job));
  const auto result = solver.solve(1500.0);

  ASSERT_EQ(result.num_compute_bottleneck, 3);
  const auto& models = solver.models();
  const double t0 = models[0].compute(result.local_batches[0]);
  for (int i = 1; i < 3; ++i) {
    EXPECT_NEAR(models[static_cast<std::size_t>(i)].compute(
                    result.local_batches[static_cast<std::size_t>(i)]),
                t0, 1e-6);
  }
  EXPECT_NEAR(result.batch_time, t0 + solver.comm().t_last, 1e-9);
  for (auto b : result.bottleneck) EXPECT_EQ(b, Bottleneck::kCompute);
}

TEST(OptPerfSolver, CommBottleneckRegimeEqualizesSyncStarts) {
  // Tiny batch with a heavy gradient: everyone is communication-
  // bottleneck (Appendix A.2).
  sim::JobProfile profile = medium_job();
  profile.gradient_bytes = 400e6;
  sim::ClusterJob job(sim::cluster_a(), profile, sim::NoiseConfig::none(), 1);
  OptPerfSolver solver(models_from_truth(job), comm_from_truth(job));
  const auto result = solver.solve(60.0);

  ASSERT_EQ(result.num_compute_bottleneck, 0);
  for (double b : result.local_batches) ASSERT_GT(b, 0.0);
  const auto& models = solver.models();
  const double gamma = solver.comm().gamma;
  const double sync0 = models[0].a(result.local_batches[0]) +
                       gamma * models[0].p(result.local_batches[0]);
  for (int i = 1; i < 3; ++i) {
    const double sync =
        models[static_cast<std::size_t>(i)].a(
            result.local_batches[static_cast<std::size_t>(i)]) +
        gamma * models[static_cast<std::size_t>(i)].p(
                    result.local_batches[static_cast<std::size_t>(i)]);
    EXPECT_NEAR(sync, sync0, 1e-6);
  }
  EXPECT_NEAR(result.batch_time, sync0 + solver.comm().total(), 1e-9);
}

TEST(OptPerfSolver, MixedRegimeSatisfiesAppendixA3) {
  // Pick a batch size between the two regimes on the very heterogeneous
  // cluster A (A5000 vs P4000 is a 4.2x speed gap).
  sim::ClusterJob job(sim::cluster_a(), medium_job(),
                      sim::NoiseConfig::none(), 1);
  OptPerfSolver solver(models_from_truth(job), comm_from_truth(job));

  // Find a B whose solution is genuinely mixed.
  bool found_mixed = false;
  for (double batch = 20.0; batch <= 1200.0 && !found_mixed; batch += 20.0) {
    const auto result = solver.solve(batch);
    if (result.num_compute_bottleneck == 0 ||
        result.num_compute_bottleneck == 3) {
      continue;
    }
    found_mixed = true;
    const auto& models = solver.models();
    const double gamma = solver.comm().gamma;
    const double t_other = solver.comm().t_other;
    // Compute-bottleneck nodes share t_compute = mu; communication-
    // bottleneck nodes satisfy syncStart + T_o = mu.
    for (int i = 0; i < 3; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const double b = result.local_batches[idx];
      if (result.bottleneck[idx] == Bottleneck::kCompute) {
        EXPECT_NEAR(models[idx].compute(b), result.mu, 1e-6);
      } else {
        EXPECT_NEAR(models[idx].a(b) + gamma * models[idx].p(b) + t_other,
                    result.mu, 1e-6);
      }
    }
    EXPECT_NEAR(result.batch_time, result.mu + solver.comm().t_last, 1e-9);
  }
  EXPECT_TRUE(found_mixed) << "no mixed-regime batch size found in sweep";
}

// ------------------------------------------------------ solver vs search

class SolverAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SolverAgreement, BinarySearchMatchesExhaustive) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    std::vector<NodeModel> models;
    for (int i = 0; i < n; ++i) {
      NodeModel m;
      m.q = rng.uniform(1e-4, 5e-3);
      m.s = rng.uniform(1e-3, 2e-2);
      m.k = rng.uniform(1e-4, 8e-3);
      m.m = rng.uniform(1e-3, 1e-2);
      models.push_back(m);
    }
    CommTimes comm{rng.uniform(0.05, 0.5), rng.uniform(0.0, 0.2),
                   rng.uniform(1e-3, 0.05)};
    OptPerfSolver solver(models, comm);
    const double total = rng.uniform(n * 2.0, n * 400.0);
    const auto fast = solver.solve(total);
    const auto exhaustive = solver.solve_exhaustive(total);
    EXPECT_NEAR(fast.batch_time, exhaustive.batch_time,
                1e-7 * exhaustive.batch_time)
        << "n=" << n << " B=" << total;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreement,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(OptPerfSolver, BeatsRandomFeasibleAssignmentsOnTrueSimulator) {
  // OptPerf must be <= the event-simulated time of any assignment.
  sim::ClusterJob job(sim::cluster_b(), medium_job(),
                      sim::NoiseConfig::none(), 1);
  OptPerfSolver solver(models_from_truth(job), comm_from_truth(job));
  Rng rng(17);
  for (double total : {64.0, 256.0, 1024.0}) {
    const auto result = solver.solve(total);
    EXPECT_NEAR(result.batch_time, job.true_batch_time(result.local_batches),
                1e-9);
    for (int trial = 0; trial < 60; ++trial) {
      // Random split of `total` across the 16 nodes.
      std::vector<double> split(16);
      double sum = 0.0;
      for (auto& v : split) {
        v = rng.uniform(0.05, 1.0);
        sum += v;
      }
      for (auto& v : split) v *= total / sum;
      EXPECT_LE(result.batch_time, job.true_batch_time(split) + 1e-9);
    }
    // ... including the even split DDP would use.
    const std::vector<double> even(16, total / 16.0);
    EXPECT_LE(result.batch_time, job.true_batch_time(even) + 1e-9);
  }
}

// -------------------------------------------------------------- structure

TEST(OptPerfSolver, BatchesSumToTotalAndRespectCaps) {
  sim::ClusterJob job(sim::cluster_b(), medium_job(),
                      sim::NoiseConfig::none(), 1);
  OptPerfSolver solver(models_from_truth(job), comm_from_truth(job));
  for (int total : {50, 333, 1000, 3000}) {
    const auto result = solver.solve(total);
    double continuous_sum = 0.0;
    int int_sum = 0;
    for (int i = 0; i < job.size(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      continuous_sum += result.local_batches[idx];
      int_sum += result.local_batches_int[idx];
      EXPECT_GE(result.local_batches[idx], 0.0);
      EXPECT_LE(result.local_batches_int[idx], job.max_local_batch(i));
    }
    EXPECT_NEAR(continuous_sum, total, 1e-6);
    EXPECT_EQ(int_sum, total);
  }
}

TEST(OptPerfSolver, FasterNodesGetLargerBatches) {
  sim::ClusterJob job(sim::cluster_a(), medium_job(),
                      sim::NoiseConfig::none(), 1);
  OptPerfSolver solver(models_from_truth(job), comm_from_truth(job));
  const auto result = solver.solve(600.0);
  // Cluster A speeds: a5000 (1.9) > a4000 (1.2) > p4000 (0.45).
  EXPECT_GT(result.local_batches[0], result.local_batches[1]);
  EXPECT_GT(result.local_batches[1], result.local_batches[2]);
}

TEST(OptPerfSolver, OptPerfMonotoneInTotalBatch) {
  sim::ClusterJob job(sim::cluster_b(), medium_job(),
                      sim::NoiseConfig::none(), 1);
  OptPerfSolver solver(models_from_truth(job), comm_from_truth(job));
  double previous = 0.0;
  for (double total = 32.0; total <= 4096.0; total *= 2.0) {
    const double t = solver.solve(total).batch_time;
    EXPECT_GE(t, previous - 1e-9);
    previous = t;
  }
}

TEST(OptPerfSolver, MoreComputeBottleneckNodesAsBatchGrows) {
  sim::ClusterJob job(sim::cluster_b(), medium_job(),
                      sim::NoiseConfig::none(), 1);
  OptPerfSolver solver(models_from_truth(job), comm_from_truth(job));
  int previous = 0;
  for (double total = 16.0; total <= 8192.0; total *= 2.0) {
    const int boundary = solver.solve(total).num_compute_bottleneck;
    EXPECT_GE(boundary, previous);
    previous = boundary;
  }
}

TEST(OptPerfSolver, WarmStartMatchesColdAndSavesSolves) {
  sim::ClusterJob job(sim::cluster_b(), medium_job(),
                      sim::NoiseConfig::none(), 1);
  OptPerfSolver solver(models_from_truth(job), comm_from_truth(job));
  const auto cold = solver.solve(700.0);
  const auto warm =
      solver.solve_with_hint(700.0, cold.num_compute_bottleneck);
  EXPECT_NEAR(warm.batch_time, cold.batch_time, 1e-12);
  EXPECT_LE(warm.linear_solves, cold.linear_solves);
}

TEST(OptPerfSolver, InfeasibleTotalBatchFlagsResult) {
  sim::JobProfile profile = medium_job();
  profile.mem_bytes_per_sample = 4e9;  // tiny caps
  sim::ClusterJob job(sim::cluster_a(), profile, sim::NoiseConfig::none(), 1);
  OptPerfSolver solver(models_from_truth(job), comm_from_truth(job));
  const auto result = solver.solve(1e6);
  EXPECT_FALSE(result.feasible);
}

TEST(OptPerfSolver, SingleNodeCluster) {
  std::vector<NodeModel> models(1);
  models[0].q = 1e-3;
  models[0].s = 5e-3;
  models[0].k = 2e-3;
  models[0].m = 1e-3;
  OptPerfSolver solver(models, CommTimes{0.2, 0.0, 0.0});
  const auto result = solver.solve(100.0);
  EXPECT_NEAR(result.local_batches[0], 100.0, 1e-9);
  EXPECT_NEAR(result.batch_time, models[0].compute(100.0), 1e-9);
}

TEST(OptPerfSolver, InvalidArgumentsThrow) {
  EXPECT_THROW(OptPerfSolver({}, CommTimes{}), std::invalid_argument);
  std::vector<NodeModel> models(2);
  models[0].q = models[1].q = 1e-3;
  models[0].k = models[1].k = 1e-3;
  EXPECT_THROW(OptPerfSolver(models, CommTimes{1.5, 0.1, 0.1}),
               std::invalid_argument);
  OptPerfSolver solver(models, CommTimes{0.2, 0.1, 0.1});
  EXPECT_THROW(solver.solve(0.0), std::invalid_argument);
  EXPECT_THROW(solver.solve(-5.0), std::invalid_argument);
}

// ----------------------------------------------- bounded boundary probes
//
// Each boundary probe must be the exact bounded equal-completion split
// (water-filling): every node takes clamp((mu - offset) / coeff, 0, cap)
// for one common mu. The references below are written independently of
// the solver: a breakpoint sweep for mu, and a copy of the probe as it
// was before variable fixing, which pinned nodes below 0 and above their
// cap in the same pass.

struct LinearForm {
  double coeff;
  double offset;
};

LinearForm compute_form_of(const NodeModel& m) {
  return {m.q + m.k, m.s + m.m};
}

LinearForm comm_form_of(const NodeModel& m, const CommTimes& c) {
  return {m.q + c.gamma * m.k, m.s + c.gamma * m.m + c.t_other};
}

// Sort-based reference: sweeps the 2n breakpoints of the piecewise-linear
// sum_i clamp((mu - o_i) / c_i, 0, cap_i) and solves for sum = total
// inside the segment that crosses it.
double water_level(const std::vector<LinearForm>& forms,
                   const std::vector<double>& caps, double total) {
  struct Breakpoint {
    double mu;
    double slope_change;
  };
  std::vector<Breakpoint> points;
  for (std::size_t i = 0; i < forms.size(); ++i) {
    const double slope = 1.0 / forms[i].coeff;
    points.push_back({forms[i].offset, slope});
    points.push_back({forms[i].offset + forms[i].coeff * caps[i], -slope});
  }
  std::sort(points.begin(), points.end(),
            [](const auto& l, const auto& r) { return l.mu < r.mu; });
  double slope = 0.0;
  double level = 0.0;
  double mu = points.front().mu;
  for (const auto& point : points) {
    const double next = level + slope * (point.mu - mu);
    if (slope > 0.0 && next >= total) return mu + (total - level) / slope;
    level = next;
    mu = point.mu;
    slope += point.slope_change;
  }
  return mu;
}

// The solver as it was before variable fixing (test-only reference).
// It also counts the passes that pinned floor and cap violators at once:
// only those can differ from variable fixing.
class LegacySolver {
 public:
  LegacySolver(std::vector<NodeModel> models, CommTimes comm)
      : models_(std::move(models)), comm_(comm) {
    const std::size_t n = models_.size();
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), 0);
    std::vector<double> mu_star(n);
    for (std::size_t i = 0; i < n; ++i) {
      const NodeModel& m = models_[i];
      const double b_star =
          (comm_.t_other / (1.0 - comm_.gamma) - m.m) / std::max(m.k, 1e-12);
      mu_star[i] =
          compute_form_of(m).coeff * b_star + compute_form_of(m).offset;
    }
    std::sort(order_.begin(), order_.end(), [&](int l, int r) {
      return mu_star[static_cast<std::size_t>(l)] <
             mu_star[static_cast<std::size_t>(r)];
    });
  }

  int two_sided_passes() const { return two_sided_passes_; }

  OptPerfResult solve(double total) const {
    const int n = static_cast<int>(models_.size());
    int solves = 0;
    Candidate all_compute = solve_boundary(total, n, &solves);
    if (all_compute.valid && consistency(all_compute, n) == 0) {
      return finalize(all_compute, total, n, solves);
    }
    Candidate all_comm = solve_boundary(total, 0, &solves);
    if (all_comm.valid && consistency(all_comm, 0) == 0) {
      return finalize(all_comm, total, 0, solves);
    }
    int lo = 1;
    int hi = n - 1;
    while (lo <= hi) {
      const int mid = lo + (hi - lo) / 2;
      Candidate candidate = solve_boundary(total, mid, &solves);
      const int direction = candidate.valid ? consistency(candidate, mid) : 1;
      if (candidate.valid && direction == 0) {
        return finalize(candidate, total, mid, solves);
      }
      if (direction > 0) {
        lo = mid + 1;
      } else {
        hi = mid - 1;
      }
    }
    OptPerfResult best;
    double best_time = std::numeric_limits<double>::infinity();
    for (int boundary = 0; boundary <= n; ++boundary) {
      Candidate candidate = solve_boundary(total, boundary, &solves);
      if (!candidate.valid) continue;
      OptPerfResult finalized = finalize(candidate, total, boundary, solves);
      if (finalized.batch_time < best_time) {
        best_time = finalized.batch_time;
        best = std::move(finalized);
      }
    }
    if (!std::isfinite(best_time)) {
      best = finalize(solve_boundary(total, n, &solves), total, n, solves);
      best.feasible = false;
    }
    return best;
  }

 private:
  struct Candidate {
    double mu = 0.0;
    std::vector<double> batches;
    bool valid = false;
  };

  Candidate solve_boundary(double total, int boundary, int* solves) const {
    constexpr double kTol = 1e-9;
    const int n = static_cast<int>(models_.size());
    Candidate candidate;
    candidate.batches.assign(static_cast<std::size_t>(n), 0.0);
    std::vector<LinearForm> forms;
    std::vector<double> caps;
    for (int pos = 0; pos < n; ++pos) {
      const NodeModel& m =
          models_[static_cast<std::size_t>(order_[static_cast<std::size_t>(pos)])];
      forms.push_back(pos < boundary ? compute_form_of(m)
                                     : comm_form_of(m, comm_));
      caps.push_back(m.max_batch);
    }
    enum class Pin { kFree, kFloor, kCap };
    std::vector<Pin> pins(static_cast<std::size_t>(n), Pin::kFree);
    for (int iter = 0; iter <= n; ++iter) {
      double remaining = total;
      double inv_sum = 0.0;
      double offset_sum = 0.0;
      int free_count = 0;
      for (std::size_t idx = 0; idx < pins.size(); ++idx) {
        if (pins[idx] == Pin::kFloor) {
          candidate.batches[idx] = 0.0;
        } else if (pins[idx] == Pin::kCap) {
          candidate.batches[idx] = caps[idx];
          remaining -= caps[idx];
        } else {
          ++free_count;
          inv_sum += 1.0 / forms[idx].coeff;
          offset_sum += forms[idx].offset / forms[idx].coeff;
        }
      }
      ++*solves;
      if (free_count == 0 || remaining < -kTol) return candidate;
      candidate.mu = (remaining + offset_sum) / inv_sum;
      bool floored = false;
      bool capped = false;
      for (std::size_t idx = 0; idx < pins.size(); ++idx) {
        if (pins[idx] != Pin::kFree) continue;
        const double b = (candidate.mu - forms[idx].offset) / forms[idx].coeff;
        if (b < -kTol) {
          pins[idx] = Pin::kFloor;
          floored = true;
        } else if (b > caps[idx] + kTol) {
          pins[idx] = Pin::kCap;
          capped = true;
        } else {
          candidate.batches[idx] = std::max(b, 0.0);
        }
      }
      if (floored && capped) ++two_sided_passes_;
      if (!floored && !capped) {
        candidate.valid = true;
        return candidate;
      }
    }
    return candidate;
  }

  int consistency(const Candidate& candidate, int boundary) const {
    int grow = 0;
    int shrink = 0;
    for (std::size_t pos = 0; pos < order_.size(); ++pos) {
      const NodeModel& m = models_[static_cast<std::size_t>(order_[pos])];
      const double room = (1.0 - comm_.gamma) * m.p(candidate.batches[pos]);
      if (static_cast<int>(pos) < boundary) {
        if (room < comm_.t_other - 1e-7) ++shrink;
      } else {
        if (room >= comm_.t_other + 1e-7) ++grow;
      }
    }
    if (grow == 0 && shrink == 0) return 0;
    return grow >= shrink ? 1 : -1;
  }

  OptPerfResult finalize(const Candidate& candidate, double total,
                         int boundary, int solves) const {
    const std::size_t n = models_.size();
    OptPerfResult result;
    result.mu = candidate.mu;
    result.linear_solves = solves;
    result.feasible = candidate.valid;
    result.num_compute_bottleneck = boundary;
    result.local_batches.assign(n, 0.0);
    std::vector<double> caps;
    for (const auto& m : models_) caps.push_back(m.max_batch);
    for (std::size_t pos = 0; pos < n; ++pos) {
      result.local_batches[static_cast<std::size_t>(order_[pos])] =
          candidate.batches[pos];
    }
    result.batch_time =
        predicted_batch_time(models_, comm_, result.local_batches);
    result.local_batches_int = round_batches(
        result.local_batches, static_cast<int>(std::lround(total)), caps);
    return result;
  }

  std::vector<NodeModel> models_;
  CommTimes comm_;
  std::vector<int> order_;
  mutable int two_sided_passes_ = 0;
};

// Nodes whose speeds and fixed costs each span two orders of magnitude,
// so a probe pushes slow nodes below 0 and fast small-memory nodes above
// their cap at the same time. Two limits keep Algorithm 1's premise that
// the compute-bound nodes form a prefix in mu* order even for pinned
// nodes: every node is communication-bound at b = 0 ((1-gamma) m < T_o),
// and every cap lies above the flip point b*.
struct WideSpreadCase {
  std::vector<NodeModel> models;
  CommTimes comm;
};

WideSpreadCase wide_spread_case(Rng& rng, int n) {
  const auto log_uniform = [&rng](double lo, double hi) {
    return std::exp(rng.uniform(std::log(lo), std::log(hi)));
  };
  WideSpreadCase out;
  out.comm = {rng.uniform(0.05, 0.5), rng.uniform(0.02, 0.3),
              rng.uniform(1e-3, 0.05)};
  const double fence = out.comm.t_other / (1.0 - out.comm.gamma);
  for (int i = 0; i < n; ++i) {
    NodeModel m;
    m.q = log_uniform(1e-5, 1e-3);
    m.s = log_uniform(1e-3, 0.3);
    m.k = log_uniform(2e-5, 2e-3);
    m.m = fence * rng.uniform(0.0, 0.9);
    const double flip = (fence - m.m) / m.k;
    m.max_batch = std::ceil(flip * log_uniform(1.05, 4.0));
    out.models.push_back(m);
  }
  return out;
}

TEST(OptPerfBoundedProbe, FloorAndCapViolatorsInOnePassStayFeasible) {
  // With k = m = 0 and T_o = 0 both forms coincide and every boundary is
  // self-consistent, so each probe is the same bounded problem. The
  // unconstrained mu = 98.5 ms puts nodes 0 and 1 at 98.5 samples, above
  // their cap of 40, and node 2 at -147. Pinning both sides at once
  // commits 80 samples of caps to a total of 50; fixing only the floor
  // violator (shortfall 147 >= excess 117) gives 25 / 25 / 0.
  std::vector<NodeModel> models(3);
  models[0].q = models[1].q = 1e-3;
  models[0].max_batch = models[1].max_batch = 40.0;
  models[2].q = 1e-5;
  models[2].s = 0.1;
  models[2].max_batch = 1000.0;
  const CommTimes comm{0.2, 0.0, 0.01};
  const double total = 50.0;
  OptPerfSolver solver(models, comm);
  ASSERT_LE(total, solver.cap_sum());
  EXPECT_FALSE(LegacySolver(models, comm).solve(total).feasible);

  const auto result = solver.solve(total);
  ASSERT_TRUE(result.feasible);
  double sum = 0.0;
  for (std::size_t i = 0; i < models.size(); ++i) {
    const double b = result.local_batches[i];
    sum += b;
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, models[i].max_batch);
  }
  EXPECT_NEAR(sum, total, 1e-9);
  EXPECT_NEAR(result.local_batches[0], 25.0, 1e-9);
  EXPECT_NEAR(result.local_batches[1], 25.0, 1e-9);
  EXPECT_NEAR(result.local_batches[2], 0.0, 1e-12);
  // Equal completion over the free nodes; the pinned node would finish
  // later than mu even with no samples.
  EXPECT_NEAR(models[0].compute(result.local_batches[0]), result.mu, 1e-12);
  EXPECT_NEAR(models[1].compute(result.local_batches[1]), result.mu, 1e-12);
  EXPECT_GT(models[2].compute(0.0), result.mu);
  EXPECT_EQ(result.local_batches_int, (std::vector<int>{25, 25, 0}));
  EXPECT_LE(result.linear_solves, 2);
}

TEST(OptPerfBoundedProbe, WideSpreadModelsMatchWaterFillingReference) {
  Rng rng(2024);
  int floor_pinned = 0;
  int cap_pinned = 0;
  for (const int n : {64, 250, 1000, 2000}) {
    for (int trial = 0; trial < 6; ++trial) {
      const auto [models, comm] = wide_spread_case(rng, n);
      OptPerfSolver solver(models, comm);
      const double total =
          std::round(rng.uniform(0.02, 0.9) * solver.cap_sum());
      const auto result = solver.solve(total);
      SCOPED_TRACE("n=" + std::to_string(n) + " B=" + std::to_string(total));
      ASSERT_TRUE(result.feasible);
      // The n+1-boundary fallback alone would exceed n solves.
      EXPECT_LE(result.linear_solves, n);

      std::vector<LinearForm> forms;
      std::vector<double> caps;
      for (int i = 0; i < n; ++i) {
        const auto& m = models[static_cast<std::size_t>(i)];
        forms.push_back(result.bottleneck[static_cast<std::size_t>(i)] ==
                                Bottleneck::kCompute
                            ? compute_form_of(m)
                            : comm_form_of(m, comm));
        caps.push_back(m.max_batch);
      }
      const double mu = water_level(forms, caps, total);
      EXPECT_NEAR(result.mu, mu, 1e-6 * mu);

      double sum = 0.0;
      for (std::size_t i = 0; i < forms.size(); ++i) {
        const double b = result.local_batches[i];
        sum += b;
        ASSERT_GE(b, 0.0);
        ASSERT_LE(b, caps[i] + 1e-9);
        const double unclamped = (mu - forms[i].offset) / forms[i].coeff;
        EXPECT_NEAR(b, std::clamp(unclamped, 0.0, caps[i]),
                    1e-6 * std::max(1.0, b))
            << "node " << i;
        if (b == 0.0) ++floor_pinned;
        if (b == caps[i]) ++cap_pinned;
      }
      EXPECT_NEAR(sum, total, 1e-9 * total);
    }
  }
  // The sweep exercises both bounds.
  EXPECT_GT(floor_pinned, 0);
  EXPECT_GT(cap_pinned, 0);
}

TEST(OptPerfBoundedProbe, MatchesLegacySolverWhereItWasFeasible) {
  // Where the legacy solver never pinned both sides in one pass it made
  // the same decisions, so plans must agree exactly. A two-sided pass
  // that still ended "valid" left a pinned node on the wrong side of the
  // final mu; the exact split can then only be faster.
  Rng rng(77);
  int compared = 0;
  int improved = 0;
  int legacy_infeasible = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 120));
    const auto [models, comm] = wide_spread_case(rng, n);
    OptPerfSolver solver(models, comm);
    const double total =
        std::max(1.0, std::round(rng.uniform(0.02, 0.9) * solver.cap_sum()));
    const LegacySolver legacy_solver(models, comm);
    const auto legacy = legacy_solver.solve(total);
    const auto result = solver.solve(total);
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_TRUE(result.feasible);
    if (!legacy.feasible) {
      ++legacy_infeasible;
    } else if (legacy_solver.two_sided_passes() > 0) {
      ++improved;
      EXPECT_LE(result.batch_time, legacy.batch_time * (1.0 + 1e-12));
    } else {
      ++compared;
      EXPECT_EQ(result.local_batches_int, legacy.local_batches_int);
      for (std::size_t i = 0; i < models.size(); ++i) {
        EXPECT_NEAR(result.local_batches[i], legacy.local_batches[i], 1e-9);
      }
    }
  }
  EXPECT_GT(compared, 100);
  EXPECT_GT(improved, 0);
  EXPECT_GT(legacy_infeasible, 0);
}

// ---------------------------------------------------------- Eq. 8 + round

TEST(BootstrapAssignment, InverseProportionalToPerSampleTime) {
  // Eq. (8): node twice as fast gets twice the batch.
  const auto batches =
      bootstrap_assignment({1.0, 2.0, 4.0}, 70, {1e9, 1e9, 1e9});
  EXPECT_EQ(batches[0], 40);
  EXPECT_EQ(batches[1], 20);
  EXPECT_EQ(batches[2], 10);
}

TEST(BootstrapAssignment, RespectsCapsAndValidates) {
  const auto batches = bootstrap_assignment({1.0, 1.0}, 100, {30.0, 1e9});
  EXPECT_EQ(batches[0], 30);
  EXPECT_EQ(batches[1], 70);
  EXPECT_THROW(bootstrap_assignment({1.0, 0.0}, 10, {1e9, 1e9}),
               std::invalid_argument);
  EXPECT_THROW(bootstrap_assignment({1.0}, 0, {1e9}), std::invalid_argument);
}

TEST(RoundBatches, PreservesSumAndOrdering) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    const int total = static_cast<int>(rng.uniform_int(n, 500));
    std::vector<double> continuous(static_cast<std::size_t>(n));
    double sum = 0.0;
    for (auto& v : continuous) {
      v = rng.uniform(0.0, 1.0);
      sum += v;
    }
    for (auto& v : continuous) v *= total / sum;
    const auto rounded =
        round_batches(continuous, total,
                      std::vector<double>(static_cast<std::size_t>(n), 1e9));
    int rounded_sum = 0;
    for (std::size_t i = 0; i < rounded.size(); ++i) {
      rounded_sum += rounded[i];
      // Largest-remainder rounding moves each entry by less than 1.
      EXPECT_NEAR(rounded[i], continuous[i], 1.0 + 1e-9);
    }
    EXPECT_EQ(rounded_sum, total);
  }
}

TEST(RoundBatches, CapsClampTarget) {
  const auto rounded = round_batches({5.0, 5.0}, 10, {3.0, 3.0});
  EXPECT_EQ(rounded[0] + rounded[1], 6);  // capped below the target
}

}  // namespace
}  // namespace cannikin::core
