// OptPerf: optimal batch processing time of a heterogeneous cluster
// (Section 3.3) and the overlap-state search of Algorithm 1 (Section 4.2).
//
// Given per-node linear compute models and the shared communication
// parameters, OptPerf for a total batch size B is attained when
//  - every computing-bottleneck node has the same compute time
//    t_compute (Appendix A.1),
//  - every communication-bottleneck node starts its first bucket
//    synchronization at the same instant (Appendix A.2), and
//  - in the mixed case both groups become ready for the last bucket
//    simultaneously: t_compute' = syncStart' + T_o (Appendix A.3).
//
// Each hypothesis "nodes 0..C-1 (in threshold order) are computing-
// bottleneck" yields one linear equation in the common completion time
// mu, so the solver runs Check 1, Check 2, and then a binary search over
// the boundary C exactly as Algorithm 1 prescribes. Each such boundary
// probe is an exact bounded solve: nodes that would fall below 0 or rise
// above their memory cap are fixed there by a variable-fixing loop, and
// the equation is re-solved over the rest.
#pragma once

#include <optional>
#include <vector>

#include "core/perf_model.h"

namespace cannikin::core {

/// The paper's Eq. (7): predicted batch time for arbitrary local batch
/// sizes under the learned model.
double predicted_batch_time(const std::vector<NodeModel>& models,
                            const CommTimes& comm,
                            const std::vector<double>& local_batches);

/// Per-node bottleneck classification at a given assignment.
enum class Bottleneck { kCompute, kCommunication };

struct OptPerfResult {
  double batch_time = 0.0;              ///< predicted OptPerf
  double mu = 0.0;                      ///< common completion time solved
  std::vector<double> local_batches;    ///< continuous optimal assignment
  std::vector<int> local_batches_int;   ///< rounded, sums to round(B)
  std::vector<Bottleneck> bottleneck;   ///< per node
  int num_compute_bottleneck = 0;
  int linear_solves = 0;   ///< #equation solves performed (overhead metric)
  bool feasible = true;    ///< false if B exceeds the sum of caps
};

class OptPerfSolver {
 public:
  OptPerfSolver(std::vector<NodeModel> models, CommTimes comm);

  int size() const { return static_cast<int>(models_.size()); }
  const std::vector<NodeModel>& models() const { return models_; }
  const CommTimes& comm() const { return comm_; }

  /// Algorithm 1: Check 1, Check 2, then binary search on the boundary.
  OptPerfResult solve(double total_batch) const;

  /// Warm-started variant (Section 4.5 "Overlap state searching"): the
  /// boundary `boundary_hint` is probed first and returned if it is
  /// self-consistent, so an unchanged overlap state costs one probe.
  /// Otherwise the full solve() runs and the probe is added to its
  /// solve count.
  OptPerfResult solve_with_hint(double total_batch, int boundary_hint) const;

  /// Reference implementation used by tests and the prediction study:
  /// tries every boundary 0..n and returns the feasible minimum.
  OptPerfResult solve_exhaustive(double total_batch) const;

  /// Gradient accumulation (the AdaptDL/Pollux mechanism this system
  /// integrates with): an optimizer step over `total_batch` samples is
  /// split into `steps` micro-batches of total_batch/steps; only the
  /// last micro-batch synchronizes gradients (DDP no_sync), so a step
  /// costs (steps-1) compute-only micro-batches plus one overlapped
  /// Eq. (7) micro-batch. Searches steps in [min_steps, max_steps] and
  /// returns the per-sample-time minimizer. min_steps > 1 arises when
  /// total_batch exceeds the sum of device-memory caps.
  struct AccumulatedPlan {
    int steps = 1;
    int micro_total = 0;        ///< per-micro-step total batch
    OptPerfResult micro;        ///< OptPerf split of the micro batch
    double step_time = 0.0;     ///< full optimizer-step time
    bool feasible = true;
  };
  AccumulatedPlan solve_accumulated(double total_batch,
                                    int max_steps = 8) const;

  /// Sum of per-node memory caps. A total batch above it is infeasible:
  /// solve() then returns every node at its cap with feasible=false.
  double cap_sum() const { return cap_sum_; }

 private:
  // Completion contribution coeff * b + offset of one node (see .cc).
  struct Form {
    double coeff = 0.0;
    double offset = 0.0;
  };
  static Form compute_form(const NodeModel& m);
  static Form comm_form(const NodeModel& m, const CommTimes& c);

  enum class Pin : unsigned char { kFree, kFloor, kCap };

  // One boundary probe. Callers reuse a Candidate across probes so its
  // buffers are allocated once per solve, not once per probe.
  struct Candidate {
    double mu = 0.0;
    std::vector<double> batches;  // indexed in sorted order
    std::vector<Pin> pins;        // indexed in sorted order
    bool valid = false;
  };

  // Solves the mixed linear system assuming the first `boundary` nodes
  // in threshold order are computing-bottleneck, writing into *out.
  // Honors floors and caps by variable fixing: each pass pins the
  // violators of one bound only, so the probe is the exact bounded
  // equal-completion split whenever total_batch <= cap_sum(). Each pass
  // is one O(n) equation solve and increments *solves.
  void solve_boundary(double total_batch, int boundary, int* solves,
                      Candidate* out) const;

  // Eq. (7) of a candidate, without mapping it back to node order.
  double batch_time(const Candidate& candidate) const;

  // Probes every boundary 0..n and finalizes the valid one with the
  // least batch time; nullopt if none is valid.
  std::optional<OptPerfResult> scan_boundaries(double total_batch,
                                               int* solves) const;

  // Consistency direction: 0 consistent, -1 boundary too high (shrink),
  // +1 boundary too low (grow).
  int consistency(const Candidate& candidate, int boundary) const;

  OptPerfResult finalize(const Candidate& candidate, double total_batch,
                         int boundary, int solves) const;

  std::vector<NodeModel> models_;
  CommTimes comm_;
  // Nodes sorted by the completion-time threshold mu* at which they flip
  // from communication- to computing-bottleneck.
  std::vector<int> order_;        // order_[sorted_pos] = original index
  std::vector<double> mu_star_;   // indexed by sorted position
  // Both forms and the cap of every node, indexed by sorted position.
  std::vector<Form> compute_forms_;
  std::vector<Form> comm_forms_;
  std::vector<double> caps_;
  double cap_sum_ = 0.0;
};

/// Bootstrap assignment for the first epochs when no model exists yet,
/// Eq. (8): local batches inversely proportional to the previous epoch's
/// per-sample compute time. `per_sample_time[i]` must be positive.
std::vector<int> bootstrap_assignment(
    const std::vector<double>& per_sample_time, int total_batch,
    const std::vector<double>& max_batches);

/// Rounds a continuous assignment to integers summing to `total`
/// (largest-remainder), respecting per-node caps.
std::vector<int> round_batches(const std::vector<double>& batches, int total,
                               const std::vector<double>& max_batches);

}  // namespace cannikin::core
