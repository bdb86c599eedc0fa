#include "core/optperf.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>

namespace cannikin::core {

namespace {

constexpr double kTol = 1e-9;

}  // namespace

// Form coefficients: completion contribution of node i is
// coeff * b_i + offset, where for a computing-bottleneck node the
// completion measure is t_compute (Appendix A.1) and for a
// communication-bottleneck node it is syncStart + T_o (Appendix A.3).
OptPerfSolver::Form OptPerfSolver::compute_form(const NodeModel& m) {
  return {m.q + m.k, m.s + m.m};
}

OptPerfSolver::Form OptPerfSolver::comm_form(const NodeModel& m,
                                             const CommTimes& c) {
  return {m.q + c.gamma * m.k, m.s + c.gamma * m.m + c.t_other};
}

double predicted_batch_time(const std::vector<NodeModel>& models,
                            const CommTimes& comm,
                            const std::vector<double>& local_batches) {
  if (models.size() != local_batches.size() || models.empty()) {
    throw std::invalid_argument("predicted_batch_time: size mismatch");
  }
  double compute_bound = 0.0;
  double comm_bound = 0.0;
  for (std::size_t i = 0; i < models.size(); ++i) {
    const double b = local_batches[i];
    const double a = models[i].a(b);
    const double p = models[i].p(b);
    compute_bound = std::max(compute_bound, a + p + comm.t_last);
    comm_bound = std::max(comm_bound, a + comm.gamma * p + comm.total());
  }
  return std::max(compute_bound, comm_bound);
}

OptPerfSolver::OptPerfSolver(std::vector<NodeModel> models, CommTimes comm)
    : models_(std::move(models)), comm_(comm) {
  if (models_.empty()) {
    throw std::invalid_argument("OptPerfSolver: no models");
  }
  if (comm_.gamma < 0.0 || comm_.gamma >= 1.0) {
    throw std::invalid_argument("OptPerfSolver: gamma must be in [0, 1)");
  }
  const int n = size();
  order_.resize(static_cast<std::size_t>(n));
  std::iota(order_.begin(), order_.end(), 0);

  // mu*_i: the completion time at which node i flips from communication-
  // to computing-bottleneck. At the fence (1-gamma) P_i = T_o, i.e.
  // b* = (T_o / (1-gamma) - m_i) / k_i, and mu* = t_compute(b*).
  std::vector<double> mu_star_by_node(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const NodeModel& m = models_[static_cast<std::size_t>(i)];
    const double b_star =
        (comm_.t_other / (1.0 - comm_.gamma) - m.m) / std::max(m.k, 1e-12);
    mu_star_by_node[static_cast<std::size_t>(i)] =
        compute_form(m).coeff * b_star + compute_form(m).offset;
  }
  std::sort(order_.begin(), order_.end(), [&](int lhs, int rhs) {
    return mu_star_by_node[static_cast<std::size_t>(lhs)] <
           mu_star_by_node[static_cast<std::size_t>(rhs)];
  });
  mu_star_.resize(static_cast<std::size_t>(n));
  compute_forms_.resize(static_cast<std::size_t>(n));
  comm_forms_.resize(static_cast<std::size_t>(n));
  caps_.resize(static_cast<std::size_t>(n));
  for (int pos = 0; pos < n; ++pos) {
    const auto idx = static_cast<std::size_t>(pos);
    const auto node = static_cast<std::size_t>(order_[idx]);
    mu_star_[idx] = mu_star_by_node[node];
    compute_forms_[idx] = compute_form(models_[node]);
    comm_forms_[idx] = comm_form(models_[node], comm_);
    caps_[idx] = models_[node].max_batch;
  }
  for (const auto& m : models_) cap_sum_ += m.max_batch;
}

void OptPerfSolver::solve_boundary(double total_batch, int boundary,
                                   int* solves, Candidate* out) const {
  const int n = size();
  Candidate& candidate = *out;
  candidate.valid = false;
  candidate.batches.assign(static_cast<std::size_t>(n), 0.0);
  candidate.pins.assign(static_cast<std::size_t>(n), Pin::kFree);
  const auto form = [&](std::size_t idx) -> const Form& {
    return static_cast<int>(idx) < boundary ? compute_forms_[idx]
                                            : comm_forms_[idx];
  };

  // Variable fixing (Bitran-Hax / Kiwiel): solve the equal-completion
  // equation over the free nodes, then pin the violators of ONE bound.
  // If the free nodes' total shortfall below 0 is at least their excess
  // above cap, clamping would overshoot the remaining batch, so the
  // exact mu lies lower and every floor violator stays at 0 there;
  // otherwise it lies higher and every cap violator stays at its cap.
  // Pins are therefore never undone, each pass pins at least one node,
  // and the loop ends with the bounded water-filling solution.
  for (int iter = 0; iter <= n; ++iter) {
    double remaining = total_batch;
    double inv_sum = 0.0;
    double offset_sum = 0.0;
    int free_count = 0;
    for (int pos = 0; pos < n; ++pos) {
      const auto idx = static_cast<std::size_t>(pos);
      switch (candidate.pins[idx]) {
        case Pin::kFloor:
          candidate.batches[idx] = 0.0;
          break;
        case Pin::kCap:
          candidate.batches[idx] = caps_[idx];
          remaining -= caps_[idx];
          break;
        case Pin::kFree: {
          ++free_count;
          inv_sum += 1.0 / form(idx).coeff;
          offset_sum += form(idx).offset / form(idx).coeff;
          break;
        }
      }
    }
    ++*solves;
    if (free_count == 0 || remaining < -kTol) return;
    candidate.mu = (remaining + offset_sum) / inv_sum;

    // In-bound free nodes take max(b, 0); violators keep the raw b so the
    // pinning pass below can tell them apart.
    double shortfall = 0.0;
    double excess = 0.0;
    bool violated = false;
    for (int pos = 0; pos < n; ++pos) {
      const auto idx = static_cast<std::size_t>(pos);
      if (candidate.pins[idx] != Pin::kFree) continue;
      const double b = (candidate.mu - form(idx).offset) / form(idx).coeff;
      if (b < -kTol) {
        shortfall -= b;
        violated = true;
        candidate.batches[idx] = b;
      } else if (b > caps_[idx] + kTol) {
        excess += b - caps_[idx];
        violated = true;
        candidate.batches[idx] = b;
      } else {
        candidate.batches[idx] = std::max(b, 0.0);
      }
    }
    if (!violated) {
      candidate.valid = true;
      return;
    }
    const bool pin_floor = shortfall >= excess;
    for (int pos = 0; pos < n; ++pos) {
      const auto idx = static_cast<std::size_t>(pos);
      if (candidate.pins[idx] != Pin::kFree) continue;
      if (pin_floor && candidate.batches[idx] < -kTol) {
        candidate.pins[idx] = Pin::kFloor;
      } else if (!pin_floor && candidate.batches[idx] > caps_[idx] + kTol) {
        candidate.pins[idx] = Pin::kCap;
      }
    }
  }
}

double OptPerfSolver::batch_time(const Candidate& candidate) const {
  // Eq. (7) over sorted positions; the maxima equal predicted_batch_time
  // of the same split in node order exactly.
  double compute_bound = 0.0;
  double comm_bound = 0.0;
  for (std::size_t pos = 0; pos < order_.size(); ++pos) {
    const NodeModel& m = models_[static_cast<std::size_t>(order_[pos])];
    const double a = m.a(candidate.batches[pos]);
    const double p = m.p(candidate.batches[pos]);
    compute_bound = std::max(compute_bound, a + p + comm_.t_last);
    comm_bound = std::max(comm_bound, a + comm_.gamma * p + comm_.total());
  }
  return std::max(compute_bound, comm_bound);
}

int OptPerfSolver::consistency(const Candidate& candidate,
                               int boundary) const {
  // The hypothesis is self-consistent when every node's assigned batch
  // actually exhibits the assumed bottleneck: (1-gamma) P_i >= T_o for
  // computing-bottleneck nodes and < T_o for communication-bottleneck
  // ones (Section 3.2.3).
  const int n = size();
  int grow = 0;    // comm-classified nodes that behave compute-bound
  int shrink = 0;  // compute-classified nodes that behave comm-bound
  for (int pos = 0; pos < n; ++pos) {
    const auto idx = static_cast<std::size_t>(pos);
    const NodeModel& m = models_[static_cast<std::size_t>(
        order_[idx])];
    const double overlap_room =
        (1.0 - comm_.gamma) * m.p(candidate.batches[idx]);
    if (pos < boundary) {
      if (overlap_room < comm_.t_other - 1e-7) ++shrink;
    } else {
      if (overlap_room >= comm_.t_other + 1e-7) ++grow;
    }
  }
  if (grow == 0 && shrink == 0) return 0;
  return grow >= shrink ? 1 : -1;
}

OptPerfResult OptPerfSolver::finalize(const Candidate& candidate,
                                      double total_batch, int boundary,
                                      int solves) const {
  const int n = size();
  OptPerfResult result;
  result.mu = candidate.mu;
  result.linear_solves = solves;
  result.feasible = candidate.valid;
  result.num_compute_bottleneck = boundary;
  result.local_batches.assign(static_cast<std::size_t>(n), 0.0);
  result.bottleneck.assign(static_cast<std::size_t>(n),
                           Bottleneck::kCommunication);

  std::vector<double> caps(static_cast<std::size_t>(n));
  for (int pos = 0; pos < n; ++pos) {
    const auto original = static_cast<std::size_t>(
        order_[static_cast<std::size_t>(pos)]);
    result.local_batches[original] =
        candidate.batches[static_cast<std::size_t>(pos)];
    caps[original] = caps_[static_cast<std::size_t>(pos)];
  }
  for (int i = 0; i < n; ++i) {
    const NodeModel& m = models_[static_cast<std::size_t>(i)];
    const double room =
        (1.0 - comm_.gamma) * m.p(result.local_batches[static_cast<std::size_t>(i)]);
    result.bottleneck[static_cast<std::size_t>(i)] =
        room >= comm_.t_other ? Bottleneck::kCompute
                              : Bottleneck::kCommunication;
  }
  result.batch_time =
      predicted_batch_time(models_, comm_, result.local_batches);
  result.local_batches_int = round_batches(
      result.local_batches, static_cast<int>(std::lround(total_batch)), caps);
  return result;
}

std::optional<OptPerfResult> OptPerfSolver::scan_boundaries(
    double total_batch, int* solves) const {
  // Compares boundaries on Eq. (7) alone and finalizes only the winner.
  const int n = size();
  Candidate probe;
  Candidate best;
  int best_boundary = -1;
  double best_time = std::numeric_limits<double>::infinity();
  for (int boundary = 0; boundary <= n; ++boundary) {
    solve_boundary(total_batch, boundary, solves, &probe);
    if (!probe.valid) continue;
    const double time = batch_time(probe);
    if (time < best_time) {
      best_time = time;
      best_boundary = boundary;
      std::swap(best, probe);
    }
  }
  if (best_boundary < 0) return std::nullopt;
  return finalize(best, total_batch, best_boundary, *solves);
}

OptPerfResult OptPerfSolver::solve(double total_batch) const {
  if (total_batch <= 0.0) {
    throw std::invalid_argument("OptPerfSolver: batch must be positive");
  }
  const int n = size();
  int solves = 0;
  Candidate probe;

  if (total_batch > cap_sum_) {
    // No split fits in device memory: report every node at its cap.
    solve_boundary(total_batch, n, &solves, &probe);
    OptPerfResult result = finalize(probe, total_batch, n, solves);
    result.feasible = false;
    return result;
  }

  // Check 1: all nodes computing-bottleneck.
  solve_boundary(total_batch, n, &solves, &probe);
  if (probe.valid && consistency(probe, n) == 0) {
    return finalize(probe, total_batch, n, solves);
  }
  // Check 2: all nodes communication-bottleneck.
  solve_boundary(total_batch, 0, &solves, &probe);
  if (probe.valid && consistency(probe, 0) == 0) {
    return finalize(probe, total_batch, 0, solves);
  }

  // Mixed: binary search over the boundary position in threshold order.
  int lo = 1;
  int hi = n - 1;
  while (lo <= hi) {
    const int mid = lo + (hi - lo) / 2;
    solve_boundary(total_batch, mid, &solves, &probe);
    const int direction = probe.valid ? consistency(probe, mid) : 1;
    if (probe.valid && direction == 0) {
      return finalize(probe, total_batch, mid, solves);
    }
    if (direction > 0) {
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  // Numerical edge (no self-consistent boundary, or every node pinned):
  // fall back to scanning all n+1 boundaries, O(n) probes.
  if (auto fallback = scan_boundaries(total_batch, &solves)) {
    return std::move(*fallback);
  }
  solve_boundary(total_batch, n, &solves, &probe);
  OptPerfResult result = finalize(probe, total_batch, n, solves);
  result.feasible = false;
  return result;
}

OptPerfResult OptPerfSolver::solve_with_hint(double total_batch,
                                             int boundary_hint) const {
  const int n = size();
  const int hint = std::clamp(boundary_hint, 0, n);
  int solves = 0;
  Candidate candidate;
  solve_boundary(total_batch, hint, &solves, &candidate);
  if (candidate.valid && consistency(candidate, hint) == 0) {
    return finalize(candidate, total_batch, hint, solves);
  }
  // The overlap state moved; restart the full search. Its cost is
  // attributed to this call via the solve counter.
  OptPerfResult result = solve(total_batch);
  result.linear_solves += solves;
  return result;
}

OptPerfResult OptPerfSolver::solve_exhaustive(double total_batch) const {
  int solves = 0;
  if (auto best = scan_boundaries(total_batch, &solves)) {
    return std::move(*best);
  }
  return solve(total_batch);
}

OptPerfSolver::AccumulatedPlan OptPerfSolver::solve_accumulated(
    double total_batch, int max_steps) const {
  if (total_batch <= 0.0 || max_steps < 1) {
    throw std::invalid_argument("solve_accumulated: bad arguments");
  }
  const double caps = cap_sum();
  const int min_steps = std::max(
      1, static_cast<int>(std::ceil(total_batch / std::max(caps, 1.0))));

  AccumulatedPlan best;
  best.feasible = false;
  double best_step_per_sample = std::numeric_limits<double>::infinity();
  for (int steps = min_steps; steps <= max_steps; ++steps) {
    const double micro_total = total_batch / steps;
    if (micro_total < 1.0 || micro_total > caps) continue;
    OptPerfResult micro = solve(micro_total);
    if (!micro.feasible) continue;
    // Compute-only micro-batches: every node's full compute time, no
    // overlap to hide behind (the step waits for the slowest).
    double compute = 0.0;
    for (std::size_t i = 0; i < models_.size(); ++i) {
      compute = std::max(compute, models_[i].compute(micro.local_batches[i]));
    }
    const double step_time = (steps - 1) * compute + micro.batch_time;
    const double per_sample = step_time / total_batch;
    if (per_sample < best_step_per_sample) {
      best_step_per_sample = per_sample;
      best.steps = steps;
      best.micro_total = static_cast<int>(std::lround(micro_total));
      best.micro = std::move(micro);
      best.step_time = step_time;
      best.feasible = true;
    }
    // Past the memory constraint, more steps only add fixed costs.
    if (steps > min_steps) break;
  }
  if (!best.feasible) {
    // total_batch not reachable even with max accumulation: best-effort
    // plan at the memory cap with the largest allowed step count.
    best.steps = std::max(max_steps, 1);
    best.micro_total = static_cast<int>(std::lround(caps));
    best.micro = solve(std::max(caps, 1.0));
    double compute = 0.0;
    for (std::size_t i = 0; i < models_.size(); ++i) {
      compute =
          std::max(compute, models_[i].compute(best.micro.local_batches[i]));
    }
    best.step_time = (best.steps - 1) * compute + best.micro.batch_time;
  }
  return best;
}

std::vector<int> bootstrap_assignment(
    const std::vector<double>& per_sample_time, int total_batch,
    const std::vector<double>& max_batches) {
  if (per_sample_time.size() != max_batches.size() ||
      per_sample_time.empty()) {
    throw std::invalid_argument("bootstrap_assignment: size mismatch");
  }
  if (total_batch <= 0) {
    throw std::invalid_argument("bootstrap_assignment: batch must be > 0");
  }
  // Eq. (8) reduces to b_i proportional to 1 / t_sample_i.
  double inv_sum = 0.0;
  for (double t : per_sample_time) {
    if (t <= 0.0) {
      throw std::invalid_argument("bootstrap_assignment: non-positive time");
    }
    inv_sum += 1.0 / t;
  }
  std::vector<double> continuous(per_sample_time.size());
  for (std::size_t i = 0; i < per_sample_time.size(); ++i) {
    continuous[i] = total_batch * (1.0 / per_sample_time[i]) / inv_sum;
  }
  return round_batches(continuous, total_batch, max_batches);
}

std::vector<int> round_batches(const std::vector<double>& batches, int total,
                               const std::vector<double>& max_batches) {
  if (batches.size() != max_batches.size() || batches.empty()) {
    throw std::invalid_argument("round_batches: size mismatch");
  }
  const std::size_t n = batches.size();
  std::vector<int> out(n, 0);
  std::vector<int> caps(n);
  long cap_sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    caps[i] = static_cast<int>(
        std::min<double>(max_batches[i], std::numeric_limits<int>::max()));
    cap_sum += caps[i];
  }
  const int target = static_cast<int>(std::min<long>(total, cap_sum));

  // Floor, then hand out the remainder by largest fractional part.
  std::vector<std::pair<double, std::size_t>> fractions;
  int assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double clamped = std::clamp(batches[i], 0.0, double(caps[i]));
    out[i] = static_cast<int>(std::floor(clamped));
    assigned += out[i];
    fractions.push_back({clamped - out[i], i});
  }
  std::sort(fractions.begin(), fractions.end(),
            [](const auto& lhs, const auto& rhs) { return lhs.first > rhs.first; });
  int remainder = target - assigned;
  long spare = 0;
  for (std::size_t i = 0; i < n; ++i) spare += caps[i] - out[i];
  remainder = static_cast<int>(std::min<long>(remainder, spare));
  // Hand out by largest fractional part first, cycling while spare
  // capacity remains (remainder can exceed n when caps clamp the input).
  std::size_t cursor = 0;
  while (remainder > 0) {
    const std::size_t i = fractions[cursor % n].second;
    if (out[i] < caps[i]) {
      ++out[i];
      --remainder;
    }
    ++cursor;
  }
  while (remainder < 0) {
    // Shaving (total smaller than the sum of floors cannot happen with
    // exact input, but guard against pathological callers).
    for (std::size_t i = 0; i < n && remainder < 0; ++i) {
      if (out[i] > 0) {
        --out[i];
        ++remainder;
      }
    }
  }
  return out;
}

}  // namespace cannikin::core
