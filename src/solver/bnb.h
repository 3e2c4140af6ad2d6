#ifndef PARINDA_SOLVER_BNB_H_
#define PARINDA_SOLVER_BNB_H_

#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "solver/lp.h"

namespace parinda {

/// A 0/1 integer program: the LP with every variable restricted to {0, 1}.
/// This is exactly the shape of Papadomanolakis & Ailamaki's index-selection
/// ILP (SMDB'07) that PARINDA solves "using a standard off-the-shelf
/// combinatorial solver" — this module is our off-the-shelf solver.
struct BinaryMip {
  LinearProgram lp;
};

struct MipOptions {
  /// Branch-and-bound node cap; exceeding it returns the incumbent with
  /// `proved_optimal = false`.
  int max_nodes = 200000;
  /// Accept the incumbent once the relative gap to the best bound is below
  /// this (0 = prove optimality).
  double relative_gap = 1e-6;
  /// Time budget. When it expires the search stops and returns the best
  /// incumbent so far with `degraded = true` (anytime behaviour). The
  /// default infinite deadline never reads the clock, so un-budgeted solves
  /// are bit-identical to a solver without this knob.
  Deadline deadline;
};

struct MipSolution {
  bool feasible = false;
  bool proved_optimal = false;
  /// True when the deadline cut the search short; the solution is the best
  /// incumbent found within the budget (possibly the all-zero seed).
  bool degraded = false;
  double objective = 0.0;
  std::vector<int> values;  // 0/1 per variable
  int nodes_explored = 0;
  /// Nodes discarded by the relaxation bound without being branched,
  /// including nodes pruned before their LP solve.
  int nodes_pruned = 0;
};

/// Branch and bound with LP-relaxation bounds and most-fractional
/// branching, best-first with a greedy rounded warm start. The search is
/// incremental: one working LP is shared by every node, and a node's fixings
/// are applied by writing variable bounds in place — O(n) writes per node
/// instead of an LP copy. Exact on the advisor's instance sizes.
/// Exploration totals feed the `solver.nodes_expanded` /
/// `solver.nodes_pruned` metrics.
[[nodiscard]] Result<MipSolution> SolveBinaryMip(const BinaryMip& mip,
                                   const MipOptions& options = {});

}  // namespace parinda

#endif  // PARINDA_SOLVER_BNB_H_
